//! Baseline leader-election algorithms for the amoebot model.
//!
//! These are the comparison points of the paper's Table 1, implemented at the
//! fidelity needed to reproduce the table's *ordering* (who wins, by roughly
//! what factor, and under which assumptions):
//!
//! * [`erosion_le`] — the no-movement erosion family (Di Luna et al. \[22\],
//!   Gastineau et al. \[27\]): deterministic, per-activation, `O(n)` rounds,
//!   **requires a hole-free shape** (it stalls on shapes with holes, which is
//!   exactly why those papers assume simple connectivity).
//! * [`randomized_boundary`] — the randomized boundary-election family
//!   (Derakhshandeh et al. \[19\], Daymude et al. \[10, 11\]): coin-flip
//!   tournament over the outer boundary, `O(L_out + D)` rounds with high
//!   probability, handles holes, but is randomized.
//! * [`quadratic_boundary`] — the unpipelined deterministic boundary
//!   election (Bazzi–Briones \[3\] style): deterministic, handles holes, elects
//!   up to six leaders, but pays `O(|s|·|s1|)` per segment comparison and is
//!   therefore quadratic overall.
//! * [`self_stab`] — the self-stabilising family (Chalopin–Das–Kokkou,
//!   arXiv 2408.08775): deterministic, handles holes, never moves, and —
//!   uniquely among the contenders — recovers a unique leader from arbitrary
//!   memory corruption without a global reset.
//!
//! Every baseline implements the unified
//! [`LeaderElection`](pm_core::api::LeaderElection) trait and returns the
//! same [`RunReport`](pm_core::api::RunReport) as the paper pipeline, so the
//! analysis crate tabulates all contenders through one `&dyn LeaderElection`
//! loop (or admits them as sessions of one thread-sharded
//! [`SessionScheduler`](pm_core::session::SessionScheduler)):
//!
//! ```
//! use pm_baselines::{ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary};
//! use pm_core::api::{LeaderElection, RunOptions};
//! use pm_amoebot::scheduler::RoundRobin;
//! use pm_grid::builder::hexagon;
//!
//! let shape = hexagon(3);
//! let algorithms: [&dyn LeaderElection; 3] =
//!     [&ErosionLeaderElection, &RandomizedBoundary, &QuadraticBoundary];
//! for algorithm in algorithms {
//!     let report = algorithm
//!         .elect(&shape, &mut RoundRobin, &RunOptions::default())
//!         .expect("hole-free shape");
//!     assert!(report.leaders >= 1);
//! }
//! ```
//!
//! A baseline writes only its [`plan`](pm_core::api::LeaderElection::plan):
//! its phases and what differs between contenders. Erosion and the
//! self-stabilising election declare one round-driven
//! [`Rounds`](pm_core::api::Rounds) phase over their amoebot algorithm,
//! whose budget running out is a [`Stuck`](pm_core::api::ElectionError::Stuck)
//! stall, and say through [`RoundDriven`](pm_core::api::RoundDriven) how a
//! particle's memory reads as leader, follower or undecided. The two
//! boundary elections declare closed-form phases and keep a small
//! [`Contender`](pm_core::api::Contender) state that runs each phase body
//! and names the leaders. The one [`Execution`](pm_core::api::Execution)
//! does the rest for all of them: the step grammar, the phase reports and
//! their totals, the status, the empty-system, budget and no-leader errors,
//! and the final report.

pub mod erosion_le;
pub mod quadratic_boundary;
pub mod randomized_boundary;
pub mod self_stab;

pub use erosion_le::{ErosionLeaderElection, ErosionMemory, EROSION_MEMORY_BITS};
pub use quadratic_boundary::{QuadraticBoundary, QUADRATIC_BOUNDARY_MEMORY_BITS};
pub use randomized_boundary::{RandomizedBoundary, RANDOMIZED_BOUNDARY_MEMORY_BITS};
pub use self_stab::{SelfStabMaxElection, SelfStabMemory, SELF_STAB_MEMORY_BITS};

#[cfg(test)]
mod tests {
    use super::*;
    use pm_amoebot::scheduler::RoundRobin;
    use pm_core::api::{LeaderElection, RunOptions};
    use pm_grid::builder::{annulus, hexagon};

    #[test]
    fn all_baselines_run_through_the_trait_object() {
        let algorithms: [&dyn LeaderElection; 4] = [
            &ErosionLeaderElection,
            &RandomizedBoundary,
            &QuadraticBoundary,
            &SelfStabMaxElection,
        ];
        let names: Vec<&str> = algorithms.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            [
                "erosion-le",
                "randomized-boundary",
                "quadratic-boundary",
                "self-stab-max"
            ]
        );
        for algorithm in algorithms {
            let report = algorithm
                .elect(&hexagon(3), &mut RoundRobin, &RunOptions::default())
                .unwrap();
            assert_eq!(report.algorithm, algorithm.name());
            assert!(report.rounds_consistent());
            assert_eq!(report.n, hexagon(3).len());
        }
    }

    #[test]
    fn hole_tolerance_matches_table1() {
        let holey = annulus(4, 1);
        let mut rr = RoundRobin;
        assert!(ErosionLeaderElection
            .elect(&holey, &mut rr, &RunOptions::default())
            .is_err());
        assert!(RandomizedBoundary
            .elect(&holey, &mut rr, &RunOptions::default())
            .is_ok());
        assert!(QuadraticBoundary
            .elect(&holey, &mut rr, &RunOptions::default())
            .is_ok());
        assert!(SelfStabMaxElection
            .elect(&holey, &mut rr, &RunOptions::default())
            .is_ok());
    }

    #[test]
    fn baselines_run_through_the_batch_runner() {
        // A batch of baseline runs goes through the one engine: sessions of
        // a scheduler sweeping on two threads, each run to completion.
        use pm_amoebot::scheduler::SchedulerSpec;
        use pm_core::session::{no_hook, Goal, SessionScheduler};
        let mut scheduler: SessionScheduler = SessionScheduler::with_threads(16, 2);
        let ids: Vec<_> = (0..4)
            .map(|i| {
                let execution = ErosionLeaderElection
                    .start_owned(
                        &hexagon(3),
                        SchedulerSpec::SeededRandom(i).build(),
                        &RunOptions::default(),
                    )
                    .unwrap();
                let id = scheduler.admit(execution, ());
                scheduler.set_goal(id, Goal::Complete);
                id
            })
            .collect();
        while scheduler.sweep(&no_hook) > 0 {}
        for id in ids {
            let report = scheduler.outcome(id).expect("swept to completion");
            assert_eq!(report.as_ref().unwrap().leaders, 1);
        }
    }
}
