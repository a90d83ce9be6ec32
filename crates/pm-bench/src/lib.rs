//! Benchmark and figure-regeneration crate.
//!
//! * The `reproduce_all` binary regenerates the paper's table and the
//!   scaling figures as plain-text tables (`cargo run -p pm-bench --bin
//!   reproduce_all [id [arg]]`, `--release` recommended for the larger
//!   sweeps); the other `src/bin/*` binaries are performance benches that
//!   write `BENCH_results.json` sections.
//! * The Criterion benches under `benches/` measure the wall-clock cost of
//!   the simulator itself (geometry, DLE, OBD, Collect, full pipeline) so
//!   regressions in the implementation are visible; the *round counts* that
//!   reproduce the paper's claims are printed by the binaries and recorded in
//!   `EXPERIMENTS.md`.

use pm_analysis::Table;

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

#[cfg(test)]
mod tests {
    use super::*;

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
