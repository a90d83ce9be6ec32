//! Regenerates the paper's Table 1 and the scaling figures as plain-text
//! tables.
//!
//! Usage: `cargo run --release -p pm-bench --bin reproduce_all [id [arg]]`
//!
//! With no id, prints every table (T1, F2–F9) at moderate scales. With an
//! id, prints that one table; `arg` is its scale knob, falling back to the
//! default when missing or unparsable and raised to the minimum when
//! smaller:
//!
//! | id | experiment | arg (default, minimum) |
//! |----|------------|------------------------|
//! | t1 | Table 1 | hexagon radius of the mixed family (6) |
//! | f2 | DLE rounds vs `D_A` (Theorem 18) | max radius (12, 4) |
//! | f3 | DLE vs the no-movement erosion baseline | — |
//! | f4 | Collect rounds vs leader eccentricity (Theorem 23) | max eccentricity (256, 8) |
//! | f5 | breadcrumb property after DLE (Lemma 19) | — |
//! | f6 | OBD rounds vs `L_out + D` (Theorem 41) | max radius (13, 5) |
//! | f7 | per-phase rounds of OBD → DLE → Collect | max radius (11, 4) |
//! | f8 | DLE rounds under every fair strong scheduler | — |
//! | f9 | DLE decision convergence (50% / 90% / all) | max radius (11, 4) |

use pm_analysis::Table;
use std::process::ExitCode;

/// One reproducible table: its id, its scale knob's default and minimum,
/// the knob used when every table is printed, and the table builder.
struct Experiment {
    id: &'static str,
    default: u32,
    min: u32,
    all: u32,
    run: fn(u32) -> Table,
}

/// Odd radii from 3 up to `max`.
fn radii(max: u32) -> Vec<u32> {
    (3..=max).step_by(2).collect()
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "t1",
        default: 6,
        min: 0,
        all: 6,
        run: pm_analysis::experiment_table1,
    },
    Experiment {
        id: "f2",
        default: 12,
        min: 4,
        all: 12,
        run: |max| pm_analysis::experiment_dle_scaling(&radii(max)),
    },
    Experiment {
        id: "f3",
        default: 0,
        min: 0,
        all: 0,
        run: |_| pm_analysis::experiment_erosion_ablation(),
    },
    Experiment {
        id: "f4",
        default: 256,
        min: 8,
        all: 256,
        run: |max| {
            let eccentricities: Vec<u32> = std::iter::successors(Some(8u32), |e| e.checked_mul(2))
                .take_while(|e| *e <= max)
                .collect();
            pm_analysis::experiment_collect_scaling(&eccentricities)
        },
    },
    Experiment {
        id: "f5",
        default: 0,
        min: 0,
        all: 0,
        run: |_| pm_analysis::experiment_breadcrumbs(),
    },
    Experiment {
        id: "f6",
        default: 13,
        min: 5,
        all: 11,
        run: |max| pm_analysis::experiment_obd_scaling(&radii(max)),
    },
    Experiment {
        id: "f7",
        default: 11,
        min: 4,
        all: 9,
        run: |max| pm_analysis::experiment_full_pipeline(&radii(max)),
    },
    Experiment {
        id: "f8",
        default: 0,
        min: 0,
        all: 0,
        run: |_| pm_analysis::experiment_scheduler_robustness(),
    },
    Experiment {
        id: "f9",
        default: 11,
        min: 4,
        all: 9,
        run: |max| pm_analysis::experiment_convergence(&radii(max)),
    },
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(id) = args.next() else {
        for experiment in EXPERIMENTS {
            pm_bench::print_table(&(experiment.run)(experiment.all));
            println!();
        }
        return ExitCode::SUCCESS;
    };
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.id == id) else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!(
            "unknown experiment `{id}`; usage: reproduce_all [{} [arg]]",
            ids.join("|")
        );
        return ExitCode::FAILURE;
    };
    let arg = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(experiment.default)
        .max(experiment.min);
    pm_bench::print_table(&(experiment.run)(arg));
    ExitCode::SUCCESS
}
