//! The paper's evaluation as one table.
//!
//! Every figure, table and extension sweep is a row of [`EXPERIMENTS`]:
//! an id, a title, the paper section it reproduces, its seed and a
//! runner. The `experiments` bench prints every row (or the ids given on
//! its command line); `tests/experiments.rs` and
//! `tests/paper_reproduction.rs` run the same rows at fewer repetitions.
//! A row's [`Check`]s are the paper's published numbers, each with the
//! band its measurement must lie in — written once here, asserted by the
//! tests and reported (`ok` / `OUT OF BAND`) by the bench.
//! A number a check reports is not printed again; what each row shows
//! and why is EXPERIMENTS.md's section for it.

use crate::fmt_summary;
use crate::runner::threads;
use crate::sweeps::{
    ablation_sweep, degradation_curve_sweep, fault_recovery_sweep, pool_scaling_sweep, SweepRun,
};
use shield5g_core::harness::{
    fig10_response, fig7_enclave_load, fig8_threads_epc, fig9_latency, module_image_bytes,
    per_registration_delta, standard_request, table1_parameter_sizes, table3_sgx_metrics, Fig9Row,
};
use shield5g_core::ki::{demonstrate, table5 as key_issues, Resolution};
use shield5g_core::paka::{PakaKind, SgxConfig};
use shield5g_core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g_core::stats::Summary;
use shield5g_core::testbed::TestbedConfig;
use shield5g_obs::hub::ObsHandle;
use shield5g_ran::ota::{session_setup_comparison, OtaTestbed};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::fmt::{self, Debug, Display};
use std::ops::{RangeBounds, RangeInclusive};

/// One paper experiment.
pub struct Experiment {
    /// Command-line id, e.g. `fig9`.
    pub id: &'static str,
    /// Banner title.
    pub title: &'static str,
    /// What the row reproduces.
    pub paper: &'static str,
    /// The seed its runs derive from (0 for the structural tables). The
    /// four sweep builders fix their own seeds, which their goldens pin;
    /// for those rows this is the first of them.
    pub seed: u64,
    /// Runs the experiment: `(seed, reps, smoke)`. `reps` scales the
    /// sample counts; `smoke` shrinks the sweeps to one cheap point.
    pub run: fn(u64, u32, bool) -> Result<Outcome, String>,
}

/// What one experiment run produced.
#[derive(Default)]
pub struct Outcome {
    /// Table lines, one `println!` each.
    pub lines: Vec<String>,
    /// A sweep row's run: more lines, and its `BENCH_<name>.json` points.
    pub sweep: Option<SweepRun>,
    /// The hub a sweep recorded into, when its metrics and spans are
    /// exported beside the BENCH document.
    pub hub: Option<ObsHandle>,
    /// The paper's numbers against what was measured.
    pub checks: Vec<Check>,
}

/// A published number, what was measured, and whether the measurement
/// lies in the band around it.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is compared, e.g. `eUDM L_F SGX/container`.
    pub name: String,
    /// The measurement, rendered.
    pub measured: String,
    /// The published value and its band.
    pub paper: String,
    /// Whether the measurement is in the band.
    pub ok: bool,
}

impl Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.ok { "ok" } else { "OUT OF BAND" };
        write!(
            f,
            "    {:30} measured {:>32}   paper {}   {verdict}",
            self.name, self.measured, self.paper
        )
    }
}

impl Outcome {
    fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records `who`'s `what`: measured, published, and whether in band.
    fn check(&mut self, who: &str, what: &str, measured: String, paper: impl Display, ok: bool) {
        self.checks.push(Check {
            name: format!("{who} {what}"),
            measured,
            paper: paper.to_string(),
            ok,
        });
    }

    /// `measured` strictly within `tol` of the published `paper`.
    fn near(&mut self, who: &str, what: &str, measured: f64, paper: f64, tol: f64) {
        let ok = (measured - paper).abs() < tol;
        let paper = format!("{paper} ±{tol}");
        self.check(who, what, format!("{measured:.3}"), paper, ok);
    }

    /// A median, shown with its IQR, within `band` microseconds.
    fn median(
        &mut self,
        who: &str,
        what: &str,
        s: &Summary,
        paper: &str,
        band: RangeInclusive<u64>,
    ) {
        let (lo, hi) = (us(*band.start()), us(*band.end()));
        let ok = (lo..=hi).contains(&s.median);
        let paper = format!("{paper}, band {lo}..={hi}");
        self.check(who, what, fmt_summary(s), paper, ok);
    }

    /// `measured` within `band`, whose bounds are the check's, as written.
    fn band<T: PartialOrd + Display>(
        &mut self,
        who: &str,
        what: &str,
        measured: T,
        paper: impl Display,
        band: impl RangeBounds<T> + Debug,
    ) {
        let ok = band.contains(&measured);
        let paper = format!("{paper}, band {band:?}");
        self.check(who, what, format!("{measured:.3}"), paper, ok);
    }

    /// `measured` equal to the published `paper`.
    fn exact<T: PartialEq + Debug>(&mut self, who: &str, what: &str, measured: T, paper: T) {
        let ok = measured == paper;
        let (measured, paper) = (format!("{measured:?}"), format!("{paper:?}"));
        self.check(who, what, measured, paper, ok);
    }
}

/// Every experiment, in the order the bench runs them.
pub static EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        id: "fig7",
        title: "Enclave load time per P-AKA module",
        paper: "paper Fig. 7 (§V-B1)",
        seed: 700,
        run: fig7,
    },
    Experiment {
        id: "fig8",
        title: "Thread-count / EPC-size sweep on eUDM",
        paper: "paper Fig. 8 (§V-B2)",
        seed: 800,
        run: fig8,
    },
    Experiment {
        id: "fig9",
        title: "Functional and total latency, container vs SGX",
        paper: "paper Fig. 9 + Table II L_F/L_T (§V-B3)",
        seed: 900,
        run: fig9,
    },
    Experiment {
        id: "fig10",
        title: "Response time from the VNF: stable and initial",
        paper: "paper Fig. 10 + Table II R columns (§V-B4)",
        seed: 1000,
        run: fig10,
    },
    Experiment {
        id: "setup",
        title: "End-to-end session setup, container vs SGX",
        paper: "paper §V-B4 + Table II",
        seed: 1300,
        run: setup,
    },
    Experiment {
        id: "table1",
        title: "Enclave input/output parameters and sizes",
        paper: "paper Table I (§IV)",
        seed: 0,
        run: table1,
    },
    Experiment {
        id: "table3",
        title: "EENTER/EEXIT/AEX per module and UE count",
        paper: "paper Table III (§V-B5)",
        seed: 1400,
        run: table3,
    },
    Experiment {
        id: "table4",
        title: "Testbed configuration",
        paper: "paper Table IV (§V-B6)",
        seed: 0,
        run: table4,
    },
    Experiment {
        id: "table5",
        title: "Key Issues summary",
        paper: "paper Table V (§VI)",
        seed: 1600,
        run: table5,
    },
    Experiment {
        id: "ota",
        title: "OTA feasibility: OnePlus 8 through P-AKA enclaves",
        paper: "paper §V-B6 / Fig. 11",
        seed: 1700,
        run: ota,
    },
    Experiment {
        id: "ablation",
        title: "Optimisation ablations on eUDM response time",
        paper: "paper §V-B7 discussion",
        seed: 1800,
        run: ablation,
    },
    Experiment {
        id: "pool_scaling",
        title: "Sharded P-AKA enclave pool under mass registration",
        paper: "paper §VI scaling discussion",
        seed: 4100,
        run: pool_scaling,
    },
    Experiment {
        id: "fault_sweep",
        title: "Recovery under deterministic fault injection",
        paper: "paper §V key issues 2/8/22 (failure model discussion)",
        seed: 900,
        run: fault_sweep,
    },
    Experiment {
        id: "degradation_sweep",
        title: "Overload control and graceful degradation",
        paper: "paper §VI (shielded NFs must not make the control plane more fragile)",
        seed: 930,
        run: degradation_sweep,
    },
];

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn fig7(seed: u64, reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let reps = (reps / 10).max(20);
    let mut o = Outcome::default();
    o.say(format!("    {reps} fresh GSC deployments per module\n"));
    let paper = [
        "~59.2 s (0.988 min)",
        "~58.3 s (0.972 min)",
        "~57.6 s (0.960 min)",
    ];
    for ((kind, summary), paper) in fig7_enclave_load(seed, reps).into_iter().zip(paper) {
        let gb = module_image_bytes(kind) as f64 / 1e9;
        let label = format!("{} ({gb} GB trusted root FS)", kind.name());
        let measured = fmt_summary(&summary);
        o.say(format!(
            "    {label:44} measured {measured:>14}   paper {paper}"
        ));
    }
    Ok(o)
}

fn fig8(seed: u64, reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    o.say(format!("    {reps} requests per configuration\n"));
    let (lf, lt) = ("L_F median [IQR]", "L_T median [IQR]");
    o.say(format!("    {:22} {lf:>28} {lt:>28}", "configuration"));
    for row in fig8_threads_epc(seed, reps) {
        let (lf, lt) = (fmt_summary(&row.lf), fmt_summary(&row.lt));
        o.say(format!("    {:22} {lf:>28} {lt:>28}", row.label));
    }
    Ok(o)
}

fn fig9(seed: u64, reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    o.say(format!("    {reps} requests per module per deployment"));
    let rows = fig9_latency(seed, reps);
    // Table II's L_F and L_T ratios, and Fig. 9's decades.
    for (row, (lf, lt)) in rows.iter().zip([(1.2, 1.86), (1.3, 2.15), (1.5, 2.43)]) {
        let m = row.kind.name();
        o.median(m, "L_F container", &row.lf_container, "30-50us", 28..=50);
        o.median(m, "L_F SGX", &row.lf_sgx, "45-65us", 44..=66);
        o.near(m, "L_F SGX/container", row.lf_ratio(), lf, 0.15);
        o.median(m, "L_T container", &row.lt_container, "50-85us", 50..=85);
        o.median(m, "L_T SGX", &row.lt_sgx, "110-180us", 110..=185);
        o.near(m, "L_T SGX/container", row.lt_ratio(), lt, 0.35);
    }
    let lf: Vec<f64> = rows.iter().map(Fig9Row::lf_ratio).collect();
    let lt: Vec<f64> = rows.iter().map(Fig9Row::lt_ratio).collect();
    let order = format!("{:.2} < {:.2} < {:.2}", lf[0], lf[1], lf[2]);
    let rising = lf[0] < lf[1] && lf[1] < lf[2];
    o.check("L_F", "ratio order", order, "eUDM < eAUSF < eAMF", rising);
    let order = format!("{:.2} < {:.2}", lt[0], lt[2]);
    o.check("L_T", "ratio order", order, "eUDM < eAMF", lt[0] < lt[2]);
    Ok(o)
}

fn fig10(seed: u64, reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let initial = (reps / 10).max(15);
    let mut o = Outcome::default();
    o.say(format!(
        "    {reps} stable samples; {initial} fresh deployments"
    ));
    let rows = fig10_response(seed, reps, initial);
    // Table II's R ratios, and Fig. 10's decades.
    for (row, (rs, ri)) in rows.iter().zip([(2.2, 19.04), (2.5, 18.37), (2.9, 21.42)]) {
        let m = row.kind.name();
        o.median(m, "R^C", &row.r_container, "0.4-0.7ms", 350..=750);
        o.median(m, "R_S^SGX", &row.r_sgx_stable, "1.0-1.6ms", 950..=1_700);
        o.band(m, "R_S^SGX/R^C", row.rs_ratio(), rs, 1.9..3.4);
        o.median(m, "R_I^SGX", &row.r_sgx_initial, "22-24ms", 18000..=28000);
        o.band(m, "R_I/R_S^SGX", row.ri_over_rs(), ri, 12.0..30.0);
    }
    // The ratio grows as the module shrinks (the paper's 2.2 → 2.9).
    let (udm, amf) = (rows[0].rs_ratio(), rows[2].rs_ratio());
    let order = format!("{udm:.2} < {amf:.2}");
    o.check("R_S^SGX/R^C", "order", order, "eUDM < eAMF", amf > udm);
    Ok(o)
}

fn setup(seed: u64, _reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let cmp = session_setup_comparison(seed, 5);
    let (setup, share) = (cmp.sgx_setup, cmp.sgx_share_of_setup());
    let mut o = Outcome::default();
    o.say("    5 full-stack runs per deployment\n");
    o.say(format!("      container setup  {}", cmp.container_setup));
    o.say(format!("      SGX setup        {setup}"));
    let percent = 100.0 * share;
    o.say(format!(
        "      SGX-added delay  {} = {percent:.2}% of setup",
        cmp.sgx_delta
    ));
    // §V-B4: setup 62.38 ms, of which SGX adds 3.48 ms = 5.58 %.
    let ms = setup.as_millis_f64();
    o.band("SGX", "session setup ms", ms, "62.38", 50.0..=80.0);
    o.band("SGX-added", "share of setup", share, "0.0558", 0.01..0.12);
    Ok(o)
}

fn table1(_seed: u64, _reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (input, output) = ("input bytes", "output bytes");
    o.say(format!(
        "    {:7} {input:>12} {output:>13}  derive/execute",
        "module"
    ));
    let derivations = ["f1, f2345, KAUSF, AUTN", "HXRES*, KSEAF", "KAMF"];
    for (row, derive) in table1_parameter_sizes().iter().zip(derivations) {
        let (m, input, output) = (row.kind.name(), row.input_bytes, row.output_bytes);
        o.say(format!("    {m:7} {input:>12} {output:>13}  {derive}"));
    }
    Ok(o)
}

fn table3(seed: u64, _reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let (rows, empty) = table3_sgx_metrics(seed, 3);
    let mut o = Outcome::default();
    o.say(format!(
        "    {:8} {:>5} {:>8} {:>8} {:>8}",
        "module", "#UEs", "EENTER", "EEXIT", "AEX"
    ));
    for row in &rows {
        let (m, ues, c) = (row.kind.name(), row.ues, row.counters);
        o.say(format!(
            "    {m:8} {ues:>5} {:>8} {:>8} {:>8}",
            c.eenter, c.eexit, c.aex
        ));
    }
    o.say(format!(
        "    {:8} {:>5} {:>8} {:>8} {:>8}",
        "empty", "-", empty.eenter, empty.eexit, empty.aex
    ));
    let deltas =
        PakaKind::all().map(|kind| (kind.name(), per_registration_delta(seed + 100, kind)));
    o.say("\n    Per-registration transition deltas:");
    for (m, d) in &deltas {
        let (enter, exit, aex) = (d.eenter, d.eexit, d.aex);
        o.say(format!(
            "      {m:6} +{enter} EENTER, +{exit} EEXIT, +{aex} AEX per UE"
        ));
    }
    let counts = (empty.eenter, empty.eexit, empty.aex);
    o.exact("empty", "EENTER/EEXIT/AEX", counts, (762, 680, 49_674));
    // 1 UE: eUDM 1508/1414/140320, eAUSF 1539/1445/140380, eAMF
    // 1537/1443/140354, AEX dominated by 131,072 preheat faults.
    let paper = [
        (1508, 1414, 140_320),
        (1539, 1445, 140_380),
        (1537, 1443, 140_354),
    ];
    for (row, (enter, exit, aex)) in rows.iter().filter(|r| r.ues == 1).zip(paper) {
        let (m, c) = (row.kind.name(), row.counters);
        o.band(m, "1 UE EENTER", c.eenter, enter, enter - 8..=enter + 8);
        o.band(m, "1 UE EEXIT", c.eexit, exit, exit - 8..=exit + 8);
        o.band(m, "1 UE AEX", c.aex, aex, 139_000..142_000);
    }
    // §V-B5: "the number of EENTERs and EEXITs for registering one UE is
    // around 90".
    for (m, d) in &deltas {
        o.band(m, "EENTER per UE", d.eenter, "around 90", 85..=97);
        o.exact(m, "EEXIT per UE", d.eexit, d.eenter);
    }
    Ok(o)
}

fn table4(_seed: u64, _reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let t = TestbedConfig::paper();
    let mut o = Outcome::default();
    o.say(format!("    Server:   {}", t.server_cpus));
    o.say(format!("              {}", t.server_memory));
    o.say(format!(
        "              {} / {}",
        t.server_os, t.server_kernel
    ));
    o.say(format!(
        "    Core:     {} + {}",
        t.core_version, t.gsc_version
    ));
    o.say(format!(
        "    Radio:    {} ({} PRBs @ {} GHz)",
        t.gnb_radio, t.prbs, t.frequency_ghz
    ));
    o.say(format!("    RAN sw:   {}", t.ran_software));
    o.say(format!("    UE:       {} on {}", t.ue_model, t.ue_os_build));
    o.say(format!(
        "    PLMN:     {} (MCC {}, MNC {})",
        t.plmn_string(),
        t.mcc,
        t.mnc
    ));
    Ok(o)
}

fn table5(seed: u64, _reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    o.say("    ● = HMEE-applicable per 3GPP; + = full; ◐ = partial\n");
    let matrix = key_issues();
    for ki in &matrix {
        let flag = if ki.hmee_flagged_by_3gpp { "●" } else { " " };
        let resolution = match ki.resolution {
            Resolution::Full => "+",
            Resolution::Partial => "◐",
        };
        let (n, description, mechanism) = (ki.number, ki.description, ki.mechanism);
        o.say(format!(
            "    KI {n:2} {flag} {resolution} {description:45} — {mechanism}"
        ));
    }
    o.say("\n    Demonstrations (the §III attacker against live slices):");
    let sgx = AkaDeployment::Sgx(SgxConfig::default());
    for deployment in [AkaDeployment::Container, sgx] {
        let label = deployment.label();
        o.say(format!("    --- {label} deployment ---"));
        let mut env = Env::new(seed);
        env.log.disable();
        let config = SliceConfig {
            deployment,
            subscriber_count: 2,
        };
        let mut slice = build_slice(&mut env, &config).map_err(|e| format!("{label}: {e}"))?;
        if let Some(mut client) = slice.client_for(PakaKind::EUdm, "udm.oai") {
            let req = standard_request(PakaKind::EUdm);
            client
                .call(&mut env, &req.path, req.body.clone())
                .map_err(|e| format!("{label} AKA round: {e}"))?;
        }
        for demo in demonstrate(&mut env, &mut slice) {
            let (ki, upheld, evidence) = (demo.ki, demo.upheld, demo.evidence);
            o.say(format!("      KI {ki:2} upheld={upheld} — {evidence}"));
        }
    }
    let flagged: Vec<u8> = matrix
        .iter()
        .filter(|k| k.hmee_flagged_by_3gpp)
        .map(|k| k.number)
        .collect();
    o.exact("3GPP", "HMEE-flagged KIs", flagged, vec![6, 7, 15, 25]);
    o.exact("Table V", "Key Issues", matrix.len(), 13);
    Ok(o)
}

fn ota(seed: u64, _reps: u32, _smoke: bool) -> Result<Outcome, String> {
    let mut testbed = OtaTestbed::assemble(seed, AkaDeployment::Sgx(SgxConfig::default()));
    let cold = testbed.run().map_err(|e| format!("first OTA run: {e}"))?;
    let warm = testbed.run().map_err(|e| format!("steady OTA run: {e}"))?;
    let mut o = Outcome::default();
    o.say(format!(
        "    registration through isolated AKA:  {}",
        cold.registered
    ));
    o.say(format!(
        "    PDU session (UE IP 10.0.0.{}):       {}",
        cold.ue_ip[3], cold.session_established
    ));
    o.say(format!(
        "    user-plane echo:                    {}",
        cold.data_echoed
    ));
    o.say(format!(
        "    first session setup:                {}",
        cold.session_setup
    ));
    o.say(format!(
        "    steady-state session setup:         {}",
        warm.session_setup
    ));
    o.say(format!(
        "    P-AKA time within setup:            {} ({:.1}%)",
        warm.paka_time,
        warm.paka_fraction() * 100.0
    ));
    Ok(o)
}

fn sweep(run: SweepRun, hub: Option<ObsHandle>) -> Outcome {
    Outcome {
        sweep: Some(run),
        hub,
        ..Outcome::default()
    }
}

fn ablation(_seed: u64, reps: u32, smoke: bool) -> Result<Outcome, String> {
    let reps = if smoke { 1 } else { reps };
    let run = ablation_sweep(&ObsHandle::new(), threads(), smoke, reps);
    let mut o = sweep(run, None);
    o.say(format!("    {reps} stable requests per configuration\n"));
    Ok(o)
}

fn pool_scaling(_seed: u64, _reps: u32, smoke: bool) -> Result<Outcome, String> {
    let hub = ObsHandle::new();
    Ok(sweep(pool_scaling_sweep(&hub, threads(), smoke), Some(hub)))
}

fn fault_sweep(_seed: u64, _reps: u32, smoke: bool) -> Result<Outcome, String> {
    Ok(sweep(
        fault_recovery_sweep(&ObsHandle::new(), threads(), smoke),
        None,
    ))
}

fn degradation_sweep(_seed: u64, _reps: u32, smoke: bool) -> Result<Outcome, String> {
    Ok(sweep(
        degradation_curve_sweep(&ObsHandle::new(), threads(), smoke),
        None,
    ))
}
