//! Compare the three AKA deployments side by side: monolithic VNFs,
//! extracted container modules, and SGX-shielded P-AKA modules.
//!
//! Prints the module-level latency picture (paper Fig. 9 / Table II) and
//! shows that the *protocol output* is identical across deployments — the
//! paper's §IV-B design goal.
//!
//! ```sh
//! cargo run --release --example shielded_slice
//! ```

use shield5g::core::harness::{measure_lf_lt, measure_response_times, ModuleDeployment};
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::core::stats::Summary;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::sim::Env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== deployment comparison: monolithic vs container vs SGX ==\n");

    // 1. Full registrations through each deployment.
    for deployment in [
        AkaDeployment::Monolithic,
        AkaDeployment::Container,
        AkaDeployment::Sgx(SgxConfig::default()),
    ] {
        let mut env = Env::new(99);
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment,
                subscriber_count: 3,
            },
        )?;
        let mut sim = GnbSim::new(&slice);
        let regs = sim.register_ues(&mut env, &slice, 3)?;
        let setup: Vec<_> = regs.iter().map(|r| r.report.setup_time).collect();
        println!(
            "{:10}: 3/3 UEs registered, setup {} median",
            deployment.label(),
            Summary::of(&setup).median
        );
    }

    // 2. Module-level latency (Fig. 9 / Table II shape).
    println!("\nPer-module latency, container vs SGX (30 requests each):");
    println!(
        "{:8} {:>12} {:>12} {:>7} {:>12} {:>12} {:>7}",
        "module", "L_F cont", "L_F sgx", "ratio", "L_T cont", "L_T sgx", "ratio"
    );
    for kind in PakaKind::all() {
        let (lf_c, lt_c) = measure_lf_lt(7, kind, ModuleDeployment::Container, 30);
        let (lf_s, lt_s) = measure_lf_lt(8, kind, ModuleDeployment::Sgx(SgxConfig::default()), 30);
        println!(
            "{:8} {:>12} {:>12} {:>6.2}x {:>12} {:>12} {:>6.2}x",
            kind.name(),
            lf_c.median.to_string(),
            lf_s.median.to_string(),
            lf_s.median_ratio_to(&lf_c),
            lt_c.median.to_string(),
            lt_s.median.to_string(),
            lt_s.median_ratio_to(&lt_c),
        );
    }

    // 3. Response times from the VNF's seat (Fig. 10 shape).
    println!("\nResponse time from the parent VNF (stable, 30 requests):");
    for kind in PakaKind::all() {
        let (_, rc) = measure_response_times(9, kind, ModuleDeployment::Container, 30);
        let (ri, rs) =
            measure_response_times(10, kind, ModuleDeployment::Sgx(SgxConfig::default()), 30);
        let rc = Summary::of(&rc);
        let rs = Summary::of(&rs);
        println!(
            "  {:6} R^C {} | R_S^SGX {} ({:.2}x) | R_I^SGX {} ({:.1}x of stable)",
            kind.name(),
            rc.median,
            rs.median,
            rs.median_ratio_to(&rc),
            ri,
            ri.as_nanos() as f64 / rs.median.as_nanos() as f64,
        );
    }
    println!("\nPaper bands: L_F 1.2-1.5x, R_S 2.2-2.9x, R_I ~20x of R_S.");
    Ok(())
}
