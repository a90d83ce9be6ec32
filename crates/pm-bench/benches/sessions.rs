//! Criterion benchmark of the session scheduler, the one engine that drives
//! executions: N concurrent small elections driven to completion through
//! `SessionScheduler` sweeps, sequential and sharded over 4 threads. This
//! is the path both the server and the experiment sweeps take.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_amoebot::scheduler::SchedulerSpec;
use pm_core::api::{LeaderElection, PaperPipeline, RunOptions};
use pm_core::session::{no_hook, Goal, SessionScheduler};
use pm_grid::builder::hexagon;
use std::hint::black_box;
use std::time::Duration;

const SLICE_STEPS: u64 = 16;

fn sessions_total_rounds(n_sessions: u64, threads: usize) -> u64 {
    let shape = hexagon(3);
    let opts = RunOptions::default();
    let mut scheduler: SessionScheduler = SessionScheduler::with_threads(SLICE_STEPS, threads);
    for seed in 0..n_sessions {
        let execution = PaperPipeline
            .start_owned(&shape, SchedulerSpec::SeededRandom(seed).build(), &opts)
            .expect("valid configuration");
        let id = scheduler.admit(execution, ());
        scheduler.set_goal(id, Goal::Complete);
    }
    while scheduler.sweep(&no_hook) > 0 {}
    scheduler
        .ids()
        .into_iter()
        .map(|id| {
            scheduler
                .outcome(id)
                .expect("swept to completion")
                .as_ref()
                .expect("hexagon elects")
                .total_rounds
        })
        .sum()
}

fn bench_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("sessions");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n_sessions in [16u64, 64] {
        group.bench_with_input(
            BenchmarkId::new("scheduler-seq", n_sessions),
            &n_sessions,
            |b, &n| b.iter(|| black_box(sessions_total_rounds(n, 1))),
        );
        group.bench_with_input(
            BenchmarkId::new("scheduler-4t", n_sessions),
            &n_sessions,
            |b, &n| b.iter(|| black_box(sessions_total_rounds(n, 4))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sessions);
criterion_main!(benches);
