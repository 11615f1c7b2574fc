//! The paper's evaluation as one table.
//!
//! Every figure, table and extension sweep is a row of [`EXPERIMENTS`]:
//! an id, a title, the paper section it reproduces, its seed and a
//! runner. The `experiments` bench prints every row (or the ids given on
//! its command line); `tests/experiments.rs` runs every row but the
//! three open-loop sweeps at fewer repetitions. A row's [`Check`]s are
//! the paper's published numbers, each with the one band its measurement
//! must lie in — written once here, asserted by the tests and reported
//! (`ok` / `OUT OF BAND`) by the bench.
//! A number a check reports is not printed again; what each row shows
//! and why is EXPERIMENTS.md's section for it. A full bench run records
//! every check in `BENCH_paper.json` ([`Check::to_json`]) and [`splice`]s
//! each row's printed [`Outcome::block`] into EXPERIMENTS.md.

use crate::fmt_summary;
use crate::runner::threads;
use crate::sweeps::{
    ablation_sweep, degradation_curve_sweep, fault_recovery_sweep, pool_scaling_sweep,
    AblationPoint, SweepRun,
};
use shield5g_core::harness::{
    deploy_module, measure_lf_lt, measure_response_times, standard_request, ModuleDeployment,
};
use shield5g_core::ki::{demonstrate, table5 as key_issues, Resolution};
use shield5g_core::paka::{paka_image, PakaKind, PakaModule, SgxConfig};
use shield5g_core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g_core::stats::Summary;
use shield5g_core::testbed::TestbedConfig;
use shield5g_crypto::ident::{Plmn, Supi};
use shield5g_crypto::keys::{
    derive_hxres_star, derive_kamf, derive_kseaf, generate_he_av, ServingNetworkName,
};
use shield5g_crypto::milenage::Milenage;
use shield5g_crypto::secret::SecretBytes;
use shield5g_hmee::counters::SgxCounters;
use shield5g_hmee::platform::SgxPlatform;
use shield5g_libos::gsc::{transform, ImageSpec};
use shield5g_libos::libos::GramineLibos;
use shield5g_libos::manifest::Manifest;
use shield5g_nf::backend::{AmfAkaRequest, AusfAkaRequest, UdmAkaRequest};
use shield5g_obs::export::JsonObj;
use shield5g_obs::hub::ObsHandle;
use shield5g_ran::ota::{session_setup_comparison, OtaTestbed};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::fmt::{self, Debug, Display};
use std::mem::size_of_val;
use std::ops::Bound::{Excluded, Included, Unbounded};
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
    /// Runs the experiment: `(seed, reps)`. `reps` scales the sample
    /// counts.
    pub run: fn(u64, u32) -> Result<Outcome, String>,
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

impl Check {
    /// Its record in `BENCH_paper.json`, as row `row`'s.
    #[must_use]
    pub fn to_json(&self, row: &str) -> String {
        JsonObj::new()
            .str("row", row)
            .str("check", &self.name)
            .str("measured", &self.measured)
            .str("paper", &self.paper)
            .raw("ok", &self.ok.to_string())
            .render()
    }
}

impl Outcome {
    /// What the bench prints for the row and EXPERIMENTS.md shows: its
    /// lines, a sweep's lines, then its checks, each line ended.
    #[must_use]
    pub fn block(&self) -> String {
        let sweep_lines = self.sweep.iter().flat_map(|run| run.lines.iter().cloned());
        let checks = self.checks.iter().map(ToString::to_string);
        let lines = self.lines.iter().cloned().chain(sweep_lines).chain(checks);
        lines.map(|line| line + "\n").collect()
    }

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

    /// A median, shown with its IQR, within `band`.
    fn median(
        &mut self,
        who: &str,
        what: &str,
        s: &Summary,
        paper: &str,
        band: impl RangeBounds<SimDuration>,
    ) {
        let paper = format!("{paper}, band {}", interval(&band));
        self.check(who, what, fmt_summary(s), paper, band.contains(&s.median));
    }

    /// `measured` within `band`, whose bounds are the check's, as written.
    fn band<T: PartialOrd + Display>(
        &mut self,
        who: &str,
        what: &str,
        measured: T,
        paper: impl Display,
        band: impl RangeBounds<T>,
    ) {
        let paper = format!("{paper}, band {}", interval(&band));
        let ok = band.contains(&measured);
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

/// Row `<id>`'s block in EXPERIMENTS.md runs from the comment
/// `<!-- experiments:<id> -->` to [`CLOSE`].
const OPEN: &str = "<!-- experiments:";
const CLOSE: &str = "<!-- /experiments -->";

/// `doc` with each marked block's body replaced by its row's block in a
/// `text` fence; the text outside the markers comes back as it was.
///
/// # Errors
///
/// A row of `blocks` with no marked block or with two, or a marker that
/// names no row of `blocks` or is not closed; the message names the id.
pub fn splice(doc: &str, blocks: &[(&str, String)]) -> Result<String, String> {
    let (mut out, mut rest, mut seen) = (String::new(), doc, Vec::new());
    while let Some(at) = rest.find(OPEN) {
        let (id, body) = rest[at + OPEN.len()..]
            .split_once(" -->")
            .unwrap_or(("", ""));
        let Some((_, block)) = blocks.iter().find(|(row, _)| *row == id) else {
            return Err(format!("EXPERIMENTS.md marks `{id}`, which is no row"));
        };
        if seen.contains(&id) {
            return Err(format!("EXPERIMENTS.md marks row `{id}` twice"));
        }
        seen.push(id);
        let end = body.find(CLOSE).filter(|&end| !body[..end].contains(OPEN));
        let Some(end) = end else {
            return Err(format!("EXPERIMENTS.md does not close row `{id}`'s block"));
        };
        out.push_str(&rest[..at + OPEN.len() + id.len() + " -->".len()]);
        out.push_str(&format!("\n```text\n{block}```\n"));
        rest = &body[end..];
    }
    out.push_str(rest);
    match blocks.iter().find(|(row, _)| !seen.contains(row)) {
        Some((id, _)) => Err(format!("EXPERIMENTS.md has no block for row `{id}`")),
        None => Ok(out),
    }
}

/// `band` in interval notation, e.g. `[1.1, 1.35)` or `(95, +inf)`.
fn interval<T: Display>(band: &impl RangeBounds<T>) -> String {
    let lo = match band.start_bound() {
        Included(x) => format!("[{x}"),
        Excluded(x) => format!("({x}"),
        Unbounded => "(-inf".to_owned(),
    };
    let hi = match band.end_bound() {
        Included(x) => format!("{x}]"),
        Excluded(x) => format!("{x})"),
        Unbounded => "+inf)".to_owned(),
    };
    format!("{lo}, {hi}")
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn sgx() -> ModuleDeployment {
    ModuleDeployment::Sgx(SgxConfig::default())
}

/// The §V-B4 steady-state session setup, 62.38 ms in the paper: the one
/// band of the `setup` and `ota` rows.
const SETUP_MS: RangeInclusive<f64> = 50.0..=80.0;

/// Image bytes GSC hashes per module: why eUDM loads slowest (Fig. 7).
fn module_image_bytes(kind: PakaKind) -> u64 {
    paka_image(kind).spec.total_bytes()
}

fn fig7(seed: u64, reps: u32) -> Result<Outcome, String> {
    let reps = (reps / 10).max(20);
    let mut o = Outcome::default();
    o.say(format!("    {reps} fresh GSC deployments per module"));
    let paper = [
        "~59.2 s (0.988 min)",
        "~58.3 s (0.972 min)",
        "~57.6 s (0.960 min)",
    ];
    let band = (
        Excluded(SimDuration::from_secs(50)),
        Excluded(SimDuration::from_secs(70)),
    );
    let mut medians = Vec::new();
    for (kind, paper) in PakaKind::all().into_iter().zip(paper) {
        let loads: Option<Vec<_>> = (0..reps)
            .map(|i| {
                let (_, module) = deploy_module(seed + u64::from(i), kind, sgx());
                module.boot_report().map(|b| b.load_time)
            })
            .collect();
        let load = Summary::of(&loads.ok_or(format!("{}: no boot report", kind.name()))?);
        let gb = module_image_bytes(kind) as f64 / 1e9;
        let what = format!("load ({gb:.2} GB root FS)");
        o.median(kind.name(), &what, &load, paper, band);
        medians.push(load.median);
    }
    let order = format!("{} > {} > {}", medians[0], medians[1], medians[2]);
    let ok = medians[0] > medians[1] && medians[1] > medians[2];
    o.check("load", "order", order, "eUDM > eAUSF > eAMF", ok);
    Ok(o)
}

fn fig8(seed: u64, reps: u32) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    o.say(format!("    {reps} requests per configuration\n"));
    let (lf, lt) = ("L_F median [IQR]", "L_T median [IQR]");
    o.say(format!("    {:22} {lf:>28} {lt:>28}", "configuration"));
    let (mib, gib) = (1 << 20, 1 << 30);
    let configs = [
        ("threads=4 epc=512M", Some((4, 512 * mib))),
        ("threads=10 epc=512M", Some((10, 512 * mib))),
        ("threads=10 epc=2G", Some((10, 2 * gib))),
        ("threads=50 epc=8G", Some((50, 8 * gib))),
        ("non-SGX", None),
    ];
    let [base, _, two_gig, big_epc, native] = configs.map(|(label, sgx)| {
        let deployment = sgx.map_or(ModuleDeployment::Container, |(threads, bytes)| {
            ModuleDeployment::Sgx(SgxConfig {
                max_threads: threads,
                enclave_size_bytes: bytes,
                ..SgxConfig::default()
            })
        });
        let (lf, lt) = measure_lf_lt(seed, PakaKind::EUdm, deployment, reps);
        let (f, t) = (fmt_summary(&lf), fmt_summary(&lt));
        o.say(format!("    {label:22} {f:>28} {t:>28}"));
        lf
    });
    let versus = format!("{} < {}", native.median, base.median);
    let ok = native.median < base.median;
    o.check("non-SGX", "L_F vs threads=4 epc=512M", versus, "lower", ok);
    // Over-committed EPC pages: slower, and noisier.
    let (median, iqr) = (big_epc.median, big_epc.iqr());
    let versus = format!("{median} >= {}, IQR {iqr} > {}", base.median, base.iqr());
    let ok = median >= base.median && iqr > base.iqr();
    o.check("8G EPC", "L_F vs 512M", versus, "no faster, wider IQR", ok);
    // §V-B2: "Increasing the EPC size from 512MB to 2GB does not have
    // any effect on the performance of the modules."
    let drift = two_gig.median_ratio_to(&base);
    o.band("2G / 512M", "L_F median", drift, "no effect", 0.95..1.05);
    Ok(o)
}

fn fig9(seed: u64, reps: u32) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    o.say(format!("    {reps} requests per module per deployment"));
    // Table II's L_F and L_T ratios with their bands, and Fig. 9's decades.
    let lf_ratios = [
        (1.2, (Included(1.10), Excluded(1.35))),
        (1.3, (Included(1.20), Excluded(1.45))),
        (1.5, (Excluded(1.35), Excluded(1.65))),
    ];
    let lt_ratios = [
        (1.86, (Excluded(1.6), Excluded(2.21))),
        (2.15, (Excluded(1.80), Excluded(2.50))),
        (2.43, (Excluded(2.08), Excluded(2.78))),
    ];
    let (mut lf, mut lt) = (Vec::new(), Vec::new());
    let kinds = PakaKind::all().into_iter().zip(lf_ratios).zip(lt_ratios);
    for ((kind, (lf_paper, lf_band)), (lt_paper, lt_band)) in kinds {
        let (lf_c, lt_c) = measure_lf_lt(seed, kind, ModuleDeployment::Container, reps);
        let (lf_s, lt_s) = measure_lf_lt(seed + 1000, kind, sgx(), reps);
        let m = kind.name();
        o.median(m, "L_F container", &lf_c, "30-50us", us(28)..=us(50));
        o.median(m, "L_F SGX", &lf_s, "45-65us", us(44)..=us(66));
        let ratio = lf_s.median_ratio_to(&lf_c);
        o.band(m, "L_F SGX/container", ratio, lf_paper, lf_band);
        lf.push(ratio);
        o.median(m, "L_T container", &lt_c, "50-85us", us(50)..=us(85));
        o.median(m, "L_T SGX", &lt_s, "110-180us", us(110)..=us(185));
        let ratio = lt_s.median_ratio_to(&lt_c);
        o.band(m, "L_T SGX/container", ratio, lt_paper, lt_band);
        lt.push(ratio);
    }
    let order = format!("{:.2} < {:.2} < {:.2}", lf[0], lf[1], lf[2]);
    let rising = lf[0] < lf[1] && lf[1] < lf[2];
    o.check("L_F", "ratio order", order, "eUDM < eAUSF < eAMF", rising);
    let order = format!("{:.2} < {:.2}", lt[0], lt[2]);
    o.check("L_T", "ratio order", order, "eUDM < eAMF", lt[0] < lt[2]);
    Ok(o)
}

fn fig10(seed: u64, reps: u32) -> Result<Outcome, String> {
    let initial = (reps / 10).max(15);
    let mut o = Outcome::default();
    o.say(format!(
        "    {reps} stable samples; {initial} fresh deployments"
    ));
    // Table II's R ratios, and Fig. 10's decades.
    let papers = [(2.2, 19.04), (2.5, 18.37), (2.9, 21.42)];
    let rs_band = (Excluded(1.9), Excluded(3.3));
    let ri_band = (Excluded(12.0), Excluded(30.0));
    let mut rs_ratios = Vec::new();
    for (kind, (rs_paper, ri_paper)) in PakaKind::all().into_iter().zip(papers) {
        let stable = |seed, deployment| measure_response_times(seed, kind, deployment, reps).1;
        let rc = Summary::of(&stable(seed, ModuleDeployment::Container));
        let rs = Summary::of(&stable(seed + 2000, sgx()));
        // An initial response needs a fresh deployment per sample.
        let initials: Vec<SimDuration> = (0..initial)
            .map(|i| measure_response_times(seed + 3000 + u64::from(i), kind, sgx(), 1).0)
            .collect();
        let ri = Summary::of(&initials);
        let m = kind.name();
        o.median(m, "R^C", &rc, "0.4-0.7ms", us(350)..=us(750));
        o.median(m, "R_S^SGX", &rs, "1.0-1.6ms", us(950)..=us(1_700));
        let ratio = rs.median_ratio_to(&rc);
        o.band(m, "R_S^SGX/R^C", ratio, rs_paper, rs_band);
        rs_ratios.push(ratio);
        o.median(m, "R_I^SGX", &ri, "22-24ms", us(18_000)..=us(28_000));
        o.band(m, "R_I/R_S^SGX", ri.median_ratio_to(&rs), ri_paper, ri_band);
    }
    // The ratio grows as the module shrinks (the paper's 2.2 → 2.9).
    let (udm, amf) = (rs_ratios[0], rs_ratios[2]);
    let order = format!("{udm:.2} < {amf:.2}");
    o.check("R_S^SGX/R^C", "order", order, "eUDM < eAMF", amf > udm);
    Ok(o)
}

fn setup(seed: u64, _reps: u32) -> Result<Outcome, String> {
    let cmp = session_setup_comparison(seed, 5);
    let (setup, share) = (cmp.sgx_setup, cmp.sgx_share_of_setup());
    let mut o = Outcome::default();
    o.say("    5 full-stack runs per deployment\n");
    o.say(format!("      SGX-added delay  {}", cmp.sgx_delta));
    // §V-B4: setup 62.38 ms, of which SGX adds 3.48 ms = 5.58 %.
    let ms = setup.as_millis_f64();
    o.band("SGX", "session setup ms", ms, "62.38", SETUP_MS);
    o.band("SGX-added", "share of setup", share, "0.0558", 0.01..0.12);
    let versus = format!("{setup} > {}", cmp.container_setup);
    let ok = setup > cmp.container_setup;
    o.check("SGX", "setup vs container", versus, "longer", ok);
    Ok(o)
}

/// Table I from one run of the three functions: the inputs are the
/// fixed-size fields of each module's request, the outputs what the
/// derivations return.
fn table1(_seed: u64, _reps: u32) -> Result<Outcome, String> {
    let plmn = Plmn::test_network();
    let (supi, snn) = (Supi::numbered(plmn, 1, 10), ServingNetworkName::of(&plmn));
    let udm = UdmAkaRequest {
        supi,
        opc: SecretBytes::new([0xcd; 16]),
        rand: [0x23; 16],
        sqn: [0, 0, 0, 0, 0, 1],
        amf_field: [0x80, 0],
        snn,
    };
    let milenage = Milenage::new(&SecretBytes::new([0x46; 16]), &udm.opc);
    let av = generate_he_av(&milenage, &udm.rand, &udm.sqn, &udm.amf_field, &snn);
    let (opc, rand, sqn, amf) = (&udm.opc, &udm.rand, &udm.sqn, &udm.amf_field);
    let udm_in = size_of_val(opc) + size_of_val(rand) + size_of_val(sqn) + size_of_val(amf);
    let (rand, autn, xres_star, kausf) = (&av.rand, &av.autn, &av.xres_star, &av.kausf);
    let udm_out =
        size_of_val(rand) + size_of_val(autn) + size_of_val(xres_star) + size_of_val(kausf);
    let ausf = AusfAkaRequest {
        rand: av.rand,
        xres_star: av.xres_star,
        kausf: av.kausf,
        snn,
    };
    let hxres_star = derive_hxres_star(&ausf.rand, &ausf.xres_star);
    let kseaf = derive_kseaf(&ausf.kausf, &ausf.snn);
    let (rand, xres_star, kausf) = (&ausf.rand, &ausf.xres_star, &ausf.kausf);
    // The SNN goes into eAUSF as its 2-byte id, not as the name.
    let ausf_in = size_of_val(rand) + size_of_val(xres_star) + 2 + size_of_val(kausf);
    let ausf_out = size_of_val(&kseaf) + size_of_val(&hxres_star);
    let amf = AmfAkaRequest {
        kseaf,
        supi,
        abba: [0, 0],
    };
    let kamf = derive_kamf(&amf.kseaf, amf.supi.as_str(), &amf.abba);
    let mut o = Outcome::default();
    o.say("    one run of each module's function: (input, output) bytes");
    let udm = (udm_in, udm_out);
    o.exact("eUDM", "in/out (f1, f2345, KAUSF, AUTN)", udm, (40, 80));
    let ausf = (ausf_in, ausf_out);
    let what = "in/out (HXRES*, KSEAF)";
    let paper = "(66, 48): HXRES* 16 B (TS 33.501 A.5), not the paper's 8 B";
    o.check("eAUSF", what, format!("{ausf:?}"), paper, ausf == (66, 48));
    let amf = (size_of_val(&amf.kseaf), size_of_val(&kamf));
    o.exact("eAMF", "in/out (KAMF)", amf, (32, 32));
    Ok(o)
}

/// Registers `ues` UEs on a fresh SGX module: its counters before and
/// after the last registration.
fn register(seed: u64, kind: PakaKind, ues: u32) -> Result<(SgxCounters, SgxCounters), String> {
    let (mut env, mut module) = deploy_module(seed, kind, sgx());
    let request = standard_request(kind);
    let m = kind.name();
    let counters = |module: &PakaModule| module.sgx_stats().ok_or(format!("{m}: no counters"));
    let mut after = counters(&module)?;
    let mut before = after;
    for _ in 0..ues {
        let (response, _) = module.serve(&mut env, request.clone());
        if !response.is_success() {
            return Err(format!("{m}: registration failed"));
        }
        (before, after) = (after, counters(&module)?);
    }
    Ok((before, after))
}

/// The bare GSC base image booted: Table III's "Empty workload" row.
fn empty_workload(seed: u64) -> Result<SgxCounters, String> {
    let mut env = Env::new(seed);
    env.log.disable();
    let platform = SgxPlatform::new(&mut env);
    let image = ImageSpec::synthetic("empty-workload", "/gramine/app", 1_900_000_000, 209)
        .with_working_set(2 * 1024 * 1024);
    let manifest = Manifest::paka_default("x").with_enclave_size(192 * 1024 * 1024);
    let shielded = transform(&image, manifest, &[9; 32]).map_err(|e| format!("gsc: {e}"))?;
    let libos = GramineLibos::boot(&mut env, &shielded, &platform).map_err(|e| e.to_string())?;
    Ok(libos.sgx_stats())
}

fn table3(seed: u64, _reps: u32) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let line = |m: &str, ues: &str, c: &SgxCounters| {
        let (enter, exit, aex) = (c.eenter, c.eexit, c.aex);
        format!("    {m:8} {ues:>5} {enter:>8} {exit:>8} {aex:>8}")
    };
    let (m, ues, enter, exit, aex) = ("module", "#UEs", "EENTER", "EEXIT", "AEX");
    o.say(format!("    {m:8} {ues:>5} {enter:>8} {exit:>8} {aex:>8}"));
    let mut totals = Vec::new();
    for kind in PakaKind::all() {
        let mut runs = Vec::new();
        for ues in 1..=3 {
            let (_, c) = register(seed + u64::from(ues), kind, ues)?;
            o.say(line(kind.name(), &ues.to_string(), &c));
            runs.push(c);
        }
        totals.push(runs);
    }
    let empty = empty_workload(seed)?;
    o.say(line("empty", "-", &empty));
    let counts = (empty.eenter, empty.eexit, empty.aex);
    o.exact("empty", "EENTER/EEXIT/AEX", counts, (762, 680, 49_674));
    // 1 UE: eUDM 1508/1414/140320, eAUSF 1539/1445/140380, eAMF
    // 1537/1443/140354, AEX dominated by 131,072 preheat faults.
    let paper = [
        (1508, 1414, 140_320),
        (1539, 1445, 140_380),
        (1537, 1443, 140_354),
    ];
    for ((kind, runs), (enter, exit, aex)) in PakaKind::all().into_iter().zip(&totals).zip(paper) {
        let (m, one) = (kind.name(), runs[0]);
        o.band(m, "1 UE EENTER", one.eenter, enter, enter - 8..=enter + 8);
        o.band(m, "1 UE EEXIT", one.eexit, exit, exit - 8..=exit + 8);
        o.band(m, "1 UE AEX", one.aex, aex, 139_000..142_000);
        // One-way event-injection entries and resident thread ECALLs.
        let gap = one.eenter.saturating_sub(one.eexit);
        o.band(m, "1 UE EENTER-EEXIT", gap, "~94", 80..=110);
        // §V-B5: "the number of EENTERs and EEXITs for registering one UE
        // is around 90", one per OCALL, and AEX stays flat in the UE count.
        let (before, after) = register(seed + 100, kind, 2)?;
        let d = after.delta_since(&before);
        o.band(m, "EENTER per UE", d.eenter, "around 90", 91..=96);
        let same = format!("{} = {} = {}", d.eexit, d.eenter, d.ocalls);
        let ok = d.eexit == d.eenter && d.eenter == d.ocalls;
        o.check(m, "EEXIT = EENTER = OCALL per UE", same, "equal", ok);
        let drift = runs.windows(2).map(|w| w[1].aex.abs_diff(w[0].aex));
        let drift = drift.fold(0, u64::max);
        o.band(m, "AEX change per UE", drift, "flat", 0..200);
    }
    Ok(o)
}

fn table4(_seed: u64, _reps: u32) -> Result<Outcome, String> {
    let t = TestbedConfig::paper();
    let mut o = Outcome::default();
    let (os, kernel) = (t.server_os, t.server_kernel);
    o.say(format!(
        "    Server:   {} ({os} / {kernel})",
        t.server_memory
    ));
    o.say(format!(
        "    Core:     {} + {}",
        t.core_version, t.gsc_version
    ));
    o.say(format!(
        "    Radio:    {} ({})",
        t.gnb_radio, t.ran_software
    ));
    o.say(format!("    UE OS:    {}", t.ue_os_build));
    o.exact("testbed", "PLMN", t.plmn_string().as_str(), "00101");
    o.exact("testbed", "PRBs", t.prbs, 106);
    let ghz = t.frequency_ghz;
    let ok = (ghz - 3.6192).abs() < 1e-9;
    o.check("testbed", "carrier GHz", ghz.to_string(), 3.6192, ok);
    let (cpu, ok) = (t.server_cpus, t.server_cpus.contains("4314"));
    o.check("testbed", "server CPU", cpu.into(), "Xeon 4314", ok);
    let (ue, ok) = (t.ue_model, t.ue_model.contains("OnePlus 8"));
    o.check("testbed", "UE", ue.into(), "OnePlus 8", ok);
    Ok(o)
}

fn table5(seed: u64, _reps: u32) -> Result<Outcome, String> {
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

fn ota(seed: u64, _reps: u32) -> Result<Outcome, String> {
    let mut testbed = OtaTestbed::assemble(seed, AkaDeployment::Sgx(SgxConfig::default()));
    let cold = testbed.run().map_err(|e| format!("first OTA run: {e}"))?;
    let warm = testbed.run().map_err(|e| format!("steady OTA run: {e}"))?;
    let mut o = Outcome::default();
    let (paka, percent) = (warm.paka_time, warm.paka_fraction() * 100.0);
    o.say(format!(
        "    P-AKA time within steady setup: {paka} ({percent:.1}%)"
    ));
    let [a, b, c, d] = cold.ue_ip;
    let (registered, session, echo) = (cold.registered, cold.session_established, cold.data_echoed);
    let reached =
        format!("registered {registered}, session {session}, echo {echo}, UE IP {a}.{b}.{c}.{d}");
    let ok = registered && session && echo && a == 10 && warm.registered && warm.data_echoed;
    let paper = "registered, PDU session up, echo; UE IP in 10/8";
    o.check("OnePlus 8", "through P-AKA", reached, paper, ok);
    // The first registration pays each module's initial response (R_I
    // ≈ 20 × R_S, §V-B4); the next is the steady state.
    let first = cold.session_setup.as_millis_f64();
    o.band(
        "first",
        "session setup ms",
        first,
        "every module's R_I",
        (Excluded(95.0), Unbounded),
    );
    let steady = warm.session_setup.as_millis_f64();
    o.band("steady", "session setup ms", steady, "62.38", SETUP_MS);
    Ok(o)
}

fn sweep(run: SweepRun, hub: Option<ObsHandle>) -> Outcome {
    Outcome {
        sweep: Some(run),
        hub,
        ..Outcome::default()
    }
}

fn ablation(_seed: u64, reps: u32) -> Result<Outcome, String> {
    let (run, measured) = ablation_sweep(&ObsHandle::new(), threads(), false, reps)?;
    let mut o = sweep(run, None);
    o.say(format!("    {reps} stable requests per configuration\n"));
    let mut scaling = Vec::new();
    for point in measured {
        match point {
            AblationPoint::Optimisations(rows) => {
                let [(_, baseline), faster @ ..] = &*rows;
                for (label, r) in faster {
                    let versus = format!("{} < {}", r.median, baseline.median);
                    let ok = r.median < baseline.median;
                    o.check(label, "R_S vs SGX baseline", versus, "lower", ok);
                }
            }
            AblationPoint::Scaling(row) => scaling.push(row),
        }
    }
    let (Some(one), Some(all)) = (scaling.first(), scaling.last()) else {
        return Err("no horizontal-scaling point".into());
    };
    // A single enclave sustains several hundred authentications/s, and
    // N replicas about N times that.
    let (t1, n) = (one.throughput_per_sec, all.replicas);
    o.band(
        "1 replica",
        "auth/s",
        t1,
        "~650",
        (Excluded(300.0), Excluded(1500.0)),
    );
    let linear = all.throughput_per_sec / (f64::from(n) * t1);
    let ok = linear > 2.5 / 3.0 && linear < 3.5 / 3.0;
    let paper = "~1, band (2.5/3, 3.5/3)";
    o.check(
        &format!("{n} replicas"),
        "auth/s / (N x 1)",
        format!("{linear:.3}"),
        paper,
        ok,
    );
    // Below saturation nothing is shed and responses stay bounded.
    let shed: u64 = scaling.iter().map(|r| r.shed).sum();
    let worst = scaling
        .iter()
        .map(|r| r.response.median)
        .fold(SimDuration::ZERO, SimDuration::max);
    let ok = shed == 0 && worst < SimDuration::from_millis(20);
    let measured = format!("{shed} shed, worst R {worst}");
    o.check(
        "every N",
        "shed, stable R",
        measured,
        "0 shed, R < 20ms",
        ok,
    );
    Ok(o)
}

fn pool_scaling(_seed: u64, _reps: u32) -> Result<Outcome, String> {
    let hub = ObsHandle::new();
    Ok(sweep(pool_scaling_sweep(&hub, threads(), false), Some(hub)))
}

fn fault_sweep(_seed: u64, _reps: u32) -> Result<Outcome, String> {
    Ok(sweep(
        fault_recovery_sweep(&ObsHandle::new(), threads(), false),
        None,
    ))
}

fn degradation_sweep(_seed: u64, _reps: u32) -> Result<Outcome, String> {
    Ok(sweep(
        degradation_curve_sweep(&ObsHandle::new(), threads(), false),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<(&'static str, String)> {
        vec![("fig7", "a\n".into()), ("fig8", "b\n".into())]
    }

    #[test]
    fn the_splice_leaves_the_text_outside_the_markers_alone() {
        let doc = "# T\n\n<!-- experiments:fig8 -->\nold\n<!-- /experiments -->\n\
                   prose\n<!-- experiments:fig7 --><!-- /experiments -->\ntail";
        let spliced = splice(doc, &blocks()).unwrap();
        assert_eq!(
            spliced,
            "# T\n\n<!-- experiments:fig8 -->\n```text\nb\n```\n<!-- /experiments -->\n\
             prose\n<!-- experiments:fig7 -->\n```text\na\n```\n<!-- /experiments -->\ntail"
        );
        // A spliced document is a fixed point, as the committed one is.
        assert_eq!(splice(&spliced, &blocks()).unwrap(), spliced);
    }

    #[test]
    fn a_missing_doubled_unknown_or_open_marker_names_its_row() {
        let pair = |id: &str| format!("<!-- experiments:{id} -->x<!-- /experiments -->\n");
        let cases = [
            (pair("fig7"), "no block for row `fig8`"),
            (
                pair("fig7") + &pair("fig8") + &pair("fig7"),
                "row `fig7` twice",
            ),
            (
                pair("fig7") + &pair("fig8") + &pair("fig9"),
                "`fig9`, which is no row",
            ),
            (
                "<!-- experiments:fig8 -->x\n".to_owned() + &pair("fig7"),
                "close row `fig8`",
            ),
        ];
        for (doc, error) in cases {
            let err = splice(&doc, &blocks()).unwrap_err();
            assert!(err.contains(error), "{doc:?}: {err}");
        }
    }

    #[test]
    fn image_bytes_ordering_drives_fig7() {
        assert!(module_image_bytes(PakaKind::EUdm) > module_image_bytes(PakaKind::EAusf));
        assert!(module_image_bytes(PakaKind::EAusf) > module_image_bytes(PakaKind::EAmf));
    }
}
