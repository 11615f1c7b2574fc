//! Narrated message flow: one registration through the SGX slice, printed
//! from the engine trace — the paper's Figure 5 sequence, live.
//!
//! ```sh
//! cargo run --release --example message_flow
//! ```

use shield5g::core::harness::concurrency_sweep;
use shield5g::core::paka::SgxConfig;
use shield5g::core::slice::{build_traced_slice, AkaDeployment, SliceConfig};
use shield5g::ran::gnbsim::GnbSim;
use shield5g::sim::Env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== one UE registration, narrated (paper Fig. 5) ==\n");
    let mut env = Env::new(555);
    let slice = build_traced_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 1,
        },
    )?;
    let mut sim = GnbSim::new(&slice);
    // Traced from its first decision, so the count is the next line's index.
    let mark = slice.engine.borrow().trace().len();
    sim.register_ues(&mut env, &slice, 1)?;

    for line in &slice.engine.borrow().trace_lines()[mark..] {
        println!("  {line}");
    }

    println!("\n== concurrency vs thread budget (§V-B2 extension) ==\n");
    println!(
        "  {:>8} {:>12} {:>16}",
        "clients", "max_threads", "mean response"
    );
    for row in concurrency_sweep(556, &[1, 4, 8], &[4, 10]) {
        println!(
            "  {:>8} {:>12} {:>16}",
            row.concurrent_clients,
            row.max_threads,
            row.mean_response.to_string()
        );
    }
    println!("\n  With sgx.max_threads = 4, Gramine's 3 helper threads leave one");
    println!("  application thread: concurrent flows queue. Raising the thread");
    println!("  budget restores parallel service — the paper's §V-B2 point.");
    Ok(())
}
