//! The paper's headline numbers as hard gates: every row of the
//! `experiments` table except the four sweeps (`golden_sweeps.rs` and
//! `merge_determinism.rs` run those) and `fig9`, `fig10` and `table3`
//! (`paper_reproduction.rs` gates those, one test per published shape)
//! runs at its bench seed with fewer repetitions, and every check it
//! reports must be in band. A cost-model change that breaks a published
//! shape fails here by the check's name.

use shield5g_bench::experiments::EXPERIMENTS;

const REPS: u32 = 50;

/// Runs row `id` and asserts its `checks` paper checks (counted, so a
/// row that lost one cannot pass vacuously) are all in band.
fn run(id: &str, checks: usize) {
    let Some(row) = EXPERIMENTS.iter().find(|r| r.id == id) else {
        panic!("no experiment {id}");
    };
    let outcome = match (row.run)(row.seed, REPS, false) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{id}: {e}"),
    };
    assert!(!outcome.lines.is_empty(), "{id} printed nothing");
    assert_eq!(outcome.checks.len(), checks, "{id}: checks");
    let out_of_band: Vec<String> = outcome
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(ToString::to_string)
        .collect();
    assert!(out_of_band.is_empty(), "{id}:\n{}", out_of_band.join("\n"));
}

/// One test per row, so the rows run in parallel: `id: paper checks`.
macro_rules! rows {
    ($($id:ident: $checks:expr),* $(,)?) => {
        $(
            #[test]
            fn $id() {
                run(stringify!($id), $checks);
            }
        )*
    };
}

rows! {
    fig7: 0,
    fig8: 0,
    setup: 2,
    table1: 0,
    table4: 0,
    table5: 2,
    ota: 0,
}

/// DESIGN.md's "Experiment index" names every row, and nothing else, in
/// its last column.
#[test]
fn the_design_index_is_the_table() {
    let design = include_str!("../../../DESIGN.md");
    let index = design
        .split("## Experiment index")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .unwrap_or_default();
    let named: Vec<&str> = index
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---") && !l.starts_with("| Exp."))
        .filter_map(|l| l.trim_end_matches('|').rsplit('|').next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|r| r.id).collect();
    for id in &ids {
        assert!(named.contains(id), "DESIGN.md's index lacks the row `{id}`");
    }
    for id in &named {
        assert!(
            ids.contains(id),
            "DESIGN.md's index names `{id}`, which is no row"
        );
    }
}
