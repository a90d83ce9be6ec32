//! Experiment harness for the PODC 2021 leader-election reproduction.
//!
//! The paper is a theory paper: its evaluation artefacts are Table 1 (the
//! comparison of round complexities and assumptions across algorithms) and
//! the asymptotic bounds proved for each component (Theorems 18, 23, 41). The
//! experiments here regenerate an *empirical* Table 1 and one scaling series
//! per proved bound, so that the relative ordering of algorithms — who wins,
//! by what factor, and under which assumptions — can be checked directly
//! against the paper. The `reproduce_all` binary (`pm-bench`) prints every
//! table; the README section "Reproducing Table 1 and the figures" maps
//! each experiment id to the claim it checks.
//!
//! * [`stats`] — per-shape workload statistics (`n`, `D`, `D_A`, `D_G`,
//!   `L_out`, `L_max`, number of holes).
//! * [`fit`] — least-squares scaling fits (log–log slopes) used to check the
//!   linear/quadratic claims.
//! * [`table`] — plain-text/markdown tables printed by the benchmark
//!   binaries.
//! * [`workloads`] — the named shape families used across the experiments.
//! * [`experiments`] — one function per experiment id (T1, F2, …, F9).

pub mod experiments;
pub mod fit;
pub mod stats;
pub mod table;
pub mod workloads;

pub use experiments::{
    experiment_breadcrumbs, experiment_collect_scaling, experiment_convergence,
    experiment_dle_scaling, experiment_erosion_ablation, experiment_full_pipeline,
    experiment_obd_scaling, experiment_scheduler_robustness, experiment_table1,
};
pub use fit::{linear_fit, loglog_slope, Fit};
pub use stats::ShapeStats;
pub use table::Table;
