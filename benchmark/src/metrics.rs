//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! must list exactly these (a unit test compares the two).
//!
//! Clocks: `host` metrics time the simulator itself; `sim_*` units are
//! virtual time, the paper's subject, and repeat exactly for a fixed
//! seed. Counts and ratios have no clock.

/// End-to-end metrics every workload reports in its result line, in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("peak_heap_mb", "MB"),
    ("allocs_per_op", "1/op"),
    ("sim_op_ms_p50", "sim_ms"),
    ("sim_goodput_per_s", "op/s"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run (layer = crate name before the dot).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.milenage_f2345_ns", "ns"),
    ("crypto.generate_he_av_ns", "ns"),
    ("crypto.ue_process_challenge_ns", "ns"),
    ("crypto.sha256_1k_ns", "ns"),
    ("crypto.hmac_sha256_ns", "ns"),
    ("crypto.aes_ctr_4k_ns", "ns"),
    ("crypto.x25519_ns", "ns"),
    ("crypto.suci_conceal_ns", "ns"),
    ("crypto.suci_deconceal_ns", "ns"),
    ("sim.http_roundtrip_ns", "ns"),
    ("sim.tls_seal_open_ns", "ns"),
    ("sim.tls_establish_ns", "ns"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.engine_ns_per_event_notrace", "ns"),
    ("sim.engine_allocs_per_event", "1/event"),
    ("sim.engine_events_per_op", "1/op"),
    ("hmee.ecall_roundtrip_ns", "ns"),
    ("hmee.ocall_ns", "ns"),
    ("hmee.enclave_build_ms", "ms"),
    ("hmee.vault_rw_ns", "ns"),
    ("hmee.evict_reload_page_ns", "ns"),
    ("hmee.eenter_per_op", "1/op"),
    ("hmee.aex_per_op", "1/op"),
    ("hmee.enclave_excl_us", "sim_us"),
    ("hmee.sim_load_s", "sim_s"),
    ("libos.boot_ms", "ms"),
    ("libos.gsc_transform_ms", "ms"),
    ("infra.bridge_carry_ns", "ns"),
    ("nf.nas_protect_unprotect_ns", "ns"),
    ("nf.sbi_roundtrip_ns", "ns"),
    ("nf.ngap_roundtrip_ns", "ns"),
    ("nf.amf_excl_us", "sim_us"),
    ("nf.ausf_excl_us", "sim_us"),
    ("nf.udm_excl_us", "sim_us"),
    ("core.serve_eudm_sgx_ns", "ns"),
    ("core.serve_eausf_sgx_ns", "ns"),
    ("core.serve_eamf_sgx_ns", "ns"),
    ("core.serve_eudm_container_ns", "ns"),
    ("core.build_slice_sgx_ms", "ms"),
    ("core.sim_lt_us_eudm", "sim_us"),
    ("core.sim_lt_us_eausf", "sim_us"),
    ("core.sim_lt_us_eamf", "sim_us"),
    ("core.paka_excl_us", "sim_us"),
    ("ran.poisson_ns_per_arrival", "ns"),
    ("ran.ue_excl_us", "sim_us"),
    ("scale.route_ns", "ns"),
    ("scale.avcache_take_put_ns", "ns"),
    ("scale.pool_deploy_ms_per_replica", "ms"),
    ("scale.cache_hit_rate", "ratio"),
    ("scale.replica_imbalance", "ratio"),
    ("mw.stack_bare_ns", "ns"),
    ("mw.stack_full_ns", "ns"),
    ("mw.shed_frac", "ratio"),
    ("mw.queue_wait_ms_p99", "sim_ms"),
    ("mw.retry_amplification", "ratio"),
    ("faults.injected_per_op", "1/op"),
    ("faults.sim_mttr_ms", "sim_ms"),
    ("obs.count_ns", "ns"),
    ("obs.count_noop_ns", "ns"),
    ("obs.span_ns", "ns"),
    ("obs.export_ns_per_span", "ns"),
    ("obs.spans_per_op", "1/op"),
    ("obs.overhead_frac", "ratio"),
    ("bench.runner_us_per_job", "us"),
    ("bench.pool_scaling_smoke_s", "s"),
    ("lint.workspace_s", "s"),
];

/// Values measured for [`PER_LAYER`], keyed by name. A metric that does
/// not apply to the workload stays unset: it is left out of the printed
/// lines and reads 0 in the result line, which must carry every name.
#[derive(Default)]
pub struct LayerValues(std::collections::BTreeMap<&'static str, (f64, String)>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, (value, note.into()));
    }

    pub fn get(&self, name: &str) -> Option<&(f64, String)> {
        self.0.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units of the objects in `BENCHMARK.json`'s array `key`,
    /// read without a JSON parser: every metric object is written
    /// `{"name": "...", "unit": "...", ...}` on one line.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..start + text[start..].find(']').expect("array closes")];
        let field = |line: &str, name: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{name}\": \""))? + name.len() + 5..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        body.lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
            .collect()
    }

    fn table(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        assert_eq!(PER_LAYER.len(), 66);
    }
}
