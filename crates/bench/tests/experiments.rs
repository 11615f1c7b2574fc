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
    let outcome = match (row.run)(row.seed, REPS) {
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

/// The body of DESIGN.md's `## <heading>` section, up to the next one.
fn design_section(heading: &str) -> &'static str {
    include_str!("../../../DESIGN.md")
        .split(&format!("\n## {heading}"))
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .unwrap_or_default()
}

/// The body rows of a section's tables: every `|` line but the headers
/// and the `|---` separators.
fn table_rows(section: &str) -> Vec<&str> {
    let lines: Vec<&str> = section.lines().collect();
    lines
        .iter()
        .enumerate()
        .filter(|(i, l)| {
            let header = lines.get(i + 1).is_some_and(|n| n.starts_with("|-"));
            l.starts_with('|') && !l.starts_with("|-") && !header
        })
        .map(|(_, l)| *l)
        .collect()
}

/// DESIGN.md's "Experiment index" names every row, and nothing else, in
/// its last column.
#[test]
fn the_design_index_is_the_table() {
    let named: Vec<&str> = table_rows(design_section("Experiment index"))
        .into_iter()
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

/// Whether Rust source `text` declares `name` as a `fn`, `struct`,
/// `enum`, `trait`, `type`, `const` or `mod`.
fn declares(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    ["fn", "struct", "enum", "trait", "type", "const", "mod"]
        .iter()
        .any(|kw| {
            let decl = format!("{kw} {name}");
            text.match_indices(&decl).any(|(at, _)| {
                let before = text[..at].chars().next_back();
                let after = text[at + decl.len()..].chars().next();
                !before.is_some_and(ident) && !after.is_some_and(ident)
            })
        })
}

/// Every row of DESIGN.md's two invariant tables names its enforcer as
/// `` `<repo path>::<name>` ``, and every such reference resolves: the
/// path exists from the repository root, and `name` is an item a `.rs`
/// file declares or text another file (`clippy.toml`, `Cargo.toml`)
/// contains. An invariant whose test is renamed or deleted fails here.
#[test]
fn the_design_enforcers_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for heading in ["Enforced invariants", "Invariants every run checks"] {
        let rows = table_rows(design_section(heading));
        assert!(!rows.is_empty(), "DESIGN.md has no \"{heading}\" table");
        for row in rows {
            let refs: Vec<(&str, &str)> = row
                .split('`')
                .skip(1)
                .step_by(2)
                .filter_map(|span| span.split_once("::"))
                .filter(|(path, _)| path.contains('.'))
                .collect();
            assert!(
                !refs.is_empty(),
                "DESIGN.md, \"{heading}\": a row names no `<path>::<name>` enforcer: {row}"
            );
            for (path, name) in refs {
                let text = std::fs::read_to_string(root.join(path))
                    .unwrap_or_else(|e| panic!("DESIGN.md, \"{heading}\": `{path}::{name}`: {e}"));
                let found = if path.ends_with(".rs") {
                    declares(&text, name)
                } else {
                    text.contains(name)
                };
                assert!(found, "DESIGN.md, \"{heading}\": `{path}` has no `{name}`");
            }
        }
    }
}

/// `BENCH_host.json`, the host-time log `scripts/host_record.sh` appends
/// to, is one JSON document, and each of its rows (one per line) is well
/// formed and records every workload `BENCHMARK.json` declares.
#[test]
fn every_host_record_row_parses_and_names_every_workload() {
    let workloads: Vec<&str> = include_str!("../../../BENCHMARK.json")
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| l.split('"').nth(3))
        .collect();
    assert_eq!(workloads.len(), 5, "{workloads:?}");
    let log = include_str!("../../../BENCH_host.json");
    assert!(
        skip_value(log).is_some_and(|rest| rest.trim().is_empty()),
        "BENCH_host.json is not one JSON document"
    );
    let rows: Vec<&str> = log
        .lines()
        .filter(|l| l.starts_with("{\"commit\""))
        .collect();
    assert!(!rows.is_empty(), "BENCH_host.json has no row");
    for row in rows {
        let row = row.trim_end_matches(',');
        assert_eq!(skip_value(row), Some(""), "a row does not parse: {row}");
        for w in &workloads {
            assert!(
                row.contains(&format!("\"{w}\":{{")),
                "a row lacks {w}: {row}"
            );
        }
    }
}

/// The rest of `s` after the JSON value at its front (white space first
/// skipped), or `None` when no well-formed value starts it.
fn skip_value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    match s.chars().next()? {
        '{' => skip_items(&s[1..], '}', |s| {
            skip_value(skip_string(s)?.trim_start().strip_prefix(':')?)
        }),
        '[' => skip_items(&s[1..], ']', skip_value),
        '"' => skip_string(s),
        _ => {
            let end = s
                .find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                .unwrap_or(s.len());
            let token = &s[..end];
            let literal = matches!(token, "true" | "false" | "null");
            (literal || token.parse::<f64>().is_ok_and(f64::is_finite)).then(|| &s[end..])
        }
    }
}

/// The rest of `s` after the `"…"` string at its front.
fn skip_string(s: &str) -> Option<&str> {
    let body = s.strip_prefix('"')?;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some(&body[i + 1..]),
            _ => {}
        }
    }
    None
}

/// The rest of `s` after `item, …, item` and `close`, with no item at all
/// allowed.
fn skip_items(s: &str, close: char, item: impl Fn(&str) -> Option<&str>) -> Option<&str> {
    let mut s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Some(rest);
    }
    loop {
        s = item(s.trim_start())?.trim_start();
        match s.chars().next()? {
            ',' => s = &s[1..],
            c if c == close => return Some(&s[1..]),
            _ => return None,
        }
    }
}
