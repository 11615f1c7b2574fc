//! The paper's headline numbers as hard gates: every row of the
//! `experiments` table except the three open-loop sweeps
//! (`golden_sweeps.rs` and `merge_determinism.rs` run those) runs at its
//! bench seed with fewer repetitions, and every check it reports must be
//! in band. A cost-model change that breaks a published shape fails here
//! by the check's name. The committed record, `BENCH_paper.json`, holds
//! one line per check: a row's live checks must be its records, by name
//! and in order, so a row cannot lose a check or gain one unrecorded.

use shield5g_bench::experiments::{splice, EXPERIMENTS};
use shield5g_obs::export::JsonObj;

const REPS: u32 = 50;

/// The committed record's check lines, one JSON object each.
fn records() -> impl Iterator<Item = &'static str> {
    let record = include_str!("../../../BENCH_paper.json");
    record
        .lines()
        .filter(|l| l.starts_with('{') && !l.starts_with("{\"bench\""))
}

/// The row a record names: `{"row":"<row>",…`.
fn row_of(record: &str) -> &str {
    record.split('"').nth(3).unwrap_or_default()
}

/// `{"row":…,"check":…}`: a record (or a live check) without its numbers.
fn key(row: &str, check: &str) -> String {
    JsonObj::new().str("row", row).str("check", check).render()
}

/// Runs row `id` and asserts its checks are the row's records in the
/// committed record, in order, and all in band.
fn run(id: &str) {
    let Some(row) = EXPERIMENTS.iter().find(|r| r.id == id) else {
        panic!("no experiment {id}");
    };
    let outcome = match (row.run)(row.seed, REPS, false) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{id}: {e}"),
    };
    assert!(!outcome.lines.is_empty(), "{id} printed nothing");
    let live: Vec<String> = outcome.checks.iter().map(|c| key(id, &c.name)).collect();
    let recorded: Vec<String> = records()
        .filter(|l| row_of(l) == id)
        .filter_map(|l| l.split_once(",\"measured\":"))
        .map(|(k, _)| format!("{k}}}"))
        .collect();
    assert!(
        !recorded.is_empty(),
        "BENCH_paper.json has no check of {id}"
    );
    assert_eq!(live, recorded, "{id}: checks vs BENCH_paper.json");
    let out_of_band: Vec<String> = outcome
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(ToString::to_string)
        .collect();
    assert!(out_of_band.is_empty(), "{id}:\n{}", out_of_band.join("\n"));
}

/// One test per row, so the rows run in parallel. Also emits `GATED`,
/// the ids in table order.
macro_rules! rows {
    ($($id:ident),* $(,)?) => {
        const GATED: &[&str] = &[$(stringify!($id)),*];
        $(
            #[test]
            fn $id() {
                run(stringify!($id));
            }
        )*
    };
}

rows! {
    fig7, fig8, fig9, fig10, setup, table1, table3, table4, table5, ota, ablation,
}

/// The committed record names only rows of the table, and every record
/// in it is in band; EXPERIMENTS.md marks one block per row.
#[test]
fn the_record_is_the_table_in_band() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|r| r.id).collect();
    for record in records() {
        assert!(
            ids.contains(&row_of(record)),
            "BENCH_paper.json names no row: {record}"
        );
        let ok = record.trim_end_matches(',').ends_with("\"ok\":true}");
        assert!(ok, "BENCH_paper.json records a check out of band: {record}");
    }
    let blocks: Vec<(&str, String)> = ids.iter().map(|id| (*id, String::new())).collect();
    let spliced = splice(include_str!("../../../EXPERIMENTS.md"), &blocks);
    assert!(spliced.is_ok(), "{spliced:?}");
}

/// A new row cannot land ungated: the table above is every row but the
/// open-loop sweeps, in the bench's order.
#[test]
fn every_row_but_the_sweeps_is_gated() {
    let sweeps = ["pool_scaling", "fault_sweep", "degradation_sweep"];
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|r| r.id)
        .filter(|id| !sweeps.contains(id))
        .collect();
    assert_eq!(GATED, ids.as_slice());
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
