//! Table II, Table III and Fig. 9/10 by published shape. Each test runs
//! its row of the `experiments` table (once per test binary: the `fig9`,
//! `fig10` and `table3` rows are shared by the tests that read them) and
//! asserts that the row's checks of that shape are all in band. The
//! bands themselves are written once, in the row, and
//! `tests/experiments.rs` gates every check of these rows too; a
//! cost-model change that breaks one fails here by the check's name.

use shield5g_bench::experiments::{Check, EXPERIMENTS};
use std::sync::OnceLock;

const REPS: u32 = 50;

static FIG9: OnceLock<Vec<Check>> = OnceLock::new();
static FIG10: OnceLock<Vec<Check>> = OnceLock::new();
static TABLE3: OnceLock<Vec<Check>> = OnceLock::new();

/// Row `id`'s checks, run at most once into `cell`; `total` pins the
/// row's check count, so the shapes below cover every check it reports.
fn checks(cell: &'static OnceLock<Vec<Check>>, id: &str, total: usize) -> &'static [Check] {
    let checks = cell.get_or_init(|| {
        let Some(row) = EXPERIMENTS.iter().find(|r| r.id == id) else {
            panic!("no experiment {id}");
        };
        match (row.run)(row.seed, REPS) {
            Ok(outcome) => outcome.checks,
            Err(e) => panic!("{id}: {e}"),
        }
    });
    assert_eq!(checks.len(), total, "{id}: checks");
    checks
}

/// Asserts that exactly `count` of `checks` match `shape`, all in band.
fn assert_shape(checks: &[Check], shape: impl Fn(&str) -> bool, count: usize) {
    let picked: Vec<&Check> = checks.iter().filter(|c| shape(&c.name)).collect();
    let names: Vec<&str> = picked.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(picked.len(), count, "checks of this shape: {names:?}");
    let out_of_band: Vec<String> = picked
        .iter()
        .filter(|c| !c.ok)
        .map(ToString::to_string)
        .collect();
    assert!(out_of_band.is_empty(), "\n{}", out_of_band.join("\n"));
}

/// A ratio or an ordering of ratios, rather than an absolute median.
fn is_ratio(name: &str) -> bool {
    name.contains('/') || name.contains("order")
}

#[test]
fn table3_empty_workload_exact() {
    let checks = checks(&TABLE3, "table3", 22);
    assert_shape(checks, |n| n.starts_with("empty "), 1);
}

#[test]
fn table3_one_ue_rows_match_paper_within_noise() {
    let checks = checks(&TABLE3, "table3", 22);
    assert_shape(checks, |n| n.contains(" 1 UE "), 12);
}

#[test]
fn per_registration_cost_is_about_90_transitions() {
    let checks = checks(&TABLE3, "table3", 22);
    assert_shape(checks, |n| n.ends_with(" per UE"), 9);
}

#[test]
fn table2_lf_ratios() {
    let checks = checks(&FIG9, "fig9", 20);
    assert_shape(checks, |n| n.contains("L_F") && is_ratio(n), 4);
}

#[test]
fn table2_lt_ratios() {
    let checks = checks(&FIG9, "fig9", 20);
    assert_shape(checks, |n| n.contains("L_T") && is_ratio(n), 4);
}

#[test]
fn fig9_absolute_latencies_in_paper_decade() {
    let checks = checks(&FIG9, "fig9", 20);
    assert_shape(checks, |n| !is_ratio(n), 12);
}

#[test]
fn table2_response_time_ratios() {
    let checks = checks(&FIG10, "fig10", 16);
    assert_shape(checks, is_ratio, 7);
}

#[test]
fn fig10_absolute_response_times_in_paper_decade() {
    let checks = checks(&FIG10, "fig10", 16);
    assert_shape(checks, |n| !is_ratio(n), 9);
}
