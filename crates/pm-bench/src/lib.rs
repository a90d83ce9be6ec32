//! Benchmark and figure-regeneration crate.
//!
//! * The `reproduce_all` binary regenerates the paper's table and the
//!   scaling figures as plain-text tables (`cargo run -p pm-bench --bin
//!   reproduce_all [id [arg]]`, `--release` recommended for the larger
//!   sweeps); the other `src/bin/*` binaries are performance benches that
//!   each write their own `BENCH_results.json` sections through
//!   [`merge_sections`].
//! * The Criterion benches under `benches/` measure the wall-clock cost of
//!   the simulator itself (geometry, DLE, OBD, Collect, full pipeline) so
//!   regressions in the implementation are visible; the *round counts* that
//!   reproduce the paper's claims are printed by `reproduce_all` (see the
//!   README section "Reproducing Table 1 and the figures").

use pm_analysis::Table;
use serde_json::Value;
use std::path::Path;

/// Prints a table to stdout in both aligned-text and markdown form.
pub fn print_table(table: &Table) {
    println!("{table}");
    println!("{}", table.to_markdown());
}

/// Parses an optional positive integer argument from the command line
/// (`args[1]`), falling back to `default`.
pub fn arg_or(default: u32) -> u32 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Writes `sections` into the JSON object stored at `path`: each named
/// top-level key is replaced in place (or appended when new), and every
/// other key is kept as it was. Every bench binary owns its sections of
/// `BENCH_results.json` this way and never erases another's. A missing or
/// unparsable file starts from an empty object.
///
/// # Errors
///
/// Whatever writing the file fails with.
pub fn merge_sections(path: &Path, sections: Vec<(&str, Value)>) -> std::io::Result<()> {
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|value| match value {
            Value::Object(fields) => Some(fields),
            _ => None,
        })
        .unwrap_or_default();
    for (key, section) in sections {
        match root.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = section,
            None => root.push((key.to_string(), section)),
        }
    }
    let text = serde_json::to_string_pretty(&Value::Object(root)).expect("results serialize");
    std::fs::write(path, text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sections_replaces_named_keys_and_keeps_the_rest() {
        let path = std::env::temp_dir().join(format!("pm-bench-merge-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let text = |s: &str| Value::Str(s.to_string());
        merge_sections(&path, vec![("a", text("a1")), ("b", text("b1"))]).unwrap();
        merge_sections(&path, vec![("a", text("a2")), ("c", text("c1"))]).unwrap();
        let merged: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            merged,
            Value::Object(vec![
                ("a".to_string(), text("a2")),
                ("b".to_string(), text("b1")),
                ("c".to_string(), text("c1")),
            ])
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn print_table_does_not_panic() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(["1"]);
        print_table(&t);
    }

    #[test]
    fn arg_or_falls_back() {
        assert_eq!(arg_or(7), 7);
    }
}
