//! The library path, from scenario to report: build the shape, `start` the
//! election (connectivity check, shape analysis), run its phases (OBD →
//! DLE → Collect) and assemble the report — what a caller of
//! `LeaderElection::elect` pays for an input. Every election builds its
//! shape anew: a shape caches its analysis, and a caller with a new input
//! has no analysis to reuse.

use crate::stats::{median, ms, process_cpu_time, reference_cpu_time, Metric};
use crate::Inputs;
use pm_core::api::{phase, RunReport};
use pm_scenarios::ScenarioSpec;
use std::time::{Duration, Instant};

/// Elections are timed in batches that last at least this long, so that
/// reading the CPU clock stays a small part of what a short election costs.
const BATCH: Duration = Duration::from_millis(2);
/// How often the library phase times the reference work.
const REFERENCE_EVERY: Duration = Duration::from_millis(20);
/// The reference work's thread CPU time on the host the benchmark was
/// tuned on, in its quiet spells (see `README.md`). `elect_cpu_ms` is
/// scaled to a host this fast.
const REFERENCE_MS: f64 = 2.0;

/// One election and where its wall time went.
pub struct Election {
    pub report: RunReport,
    build: Duration,
    start: Duration,
    total: Duration,
}

/// Builds `spec`'s shape and elects on it, profiling the phases when
/// asked. Fails unless the election predicate holds.
pub fn elect(spec: &ScenarioSpec, profile: bool) -> Result<Election, String> {
    let began = Instant::now();
    let shape = spec.build_shape();
    let build = began.elapsed();
    let mut scheduler = spec.scheduler.build();
    let mut execution = spec
        .algorithm
        .instance()
        .start(&shape, &mut *scheduler, &spec.options)
        .map_err(|e| format!("{}: {e}", spec.name))?;
    let start = began.elapsed() - build;
    if profile {
        execution.enable_profiling();
    }
    let report = execution
        .finish()
        .map_err(|e| format!("{}: {e}", spec.name))?;
    let total = began.elapsed();
    if !report.predicate_holds() {
        return Err(format!("{}: the election predicate fails", spec.name));
    }
    Ok(Election {
        report,
        build,
        start,
        total,
    })
}

/// The library phase of one run.
#[derive(Default)]
pub struct LibraryRun {
    pub attempted: usize,
    pub failed: usize,
    /// The index of the library stream's next input.
    next: u64,
    /// Per batch, the process CPU time per election, shape build included,
    /// scaled by its round's reference time.
    scaled_ms: Vec<f64>,
    /// The thread CPU time of each timing of the reference work.
    reference_ms: Vec<f64>,
    layers: Layers,
}

/// One sample per election of each layer, in traced runs.
#[derive(Default)]
struct Layers {
    build_ms: Vec<f64>,
    start_ms: Vec<f64>,
    obd_ms: Vec<f64>,
    dle_ms: Vec<f64>,
    collect_ms: Vec<f64>,
    report_ms: Vec<f64>,
    dle_ns_per_activation: Vec<f64>,
    dle_rounds: Vec<f64>,
    charged_rounds: Vec<f64>,
    activations: Vec<f64>,
}

impl LibraryRun {
    /// Elects the library stream's next inputs, one after another, until
    /// `duration` has passed, and times the reference work every
    /// [`REFERENCE_EVERY`]. The host's speed changes over seconds, so each
    /// round's batches are scaled by that round's median reference time.
    pub fn measure(&mut self, inputs: &Inputs, duration: Duration, traced: bool) {
        let deadline = Instant::now() + duration;
        let mut next_reference = Instant::now();
        let (mut batches_ms, mut reference_ms) = (Vec::new(), Vec::new());
        while Instant::now() < deadline {
            if Instant::now() >= next_reference {
                reference_ms.push(ms(reference_cpu_time()));
                next_reference = Instant::now() + REFERENCE_EVERY;
            }
            let (began, cpu) = (Instant::now(), process_cpu_time());
            let mut elections = 0u32;
            while elections == 0 || began.elapsed() < BATCH {
                let spec = inputs.scenario(Inputs::LIBRARY, self.next);
                self.next += 1;
                self.attempted += 1;
                elections += 1;
                match elect(&spec, traced) {
                    Ok(election) if traced => self.layers.record(&election),
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        self.failed += 1;
                    }
                }
            }
            let cpu = process_cpu_time().saturating_sub(cpu);
            batches_ms.push(ms(cpu) / f64::from(elections));
        }
        let scale = REFERENCE_MS / median(&reference_ms);
        self.scaled_ms
            .extend(batches_ms.into_iter().map(|batch| batch * scale));
        self.reference_ms.extend(reference_ms);
    }

    /// The median reference time over the run.
    pub fn reference_ms(&self) -> f64 {
        median(&self.reference_ms)
    }

    /// The end-to-end metric: the median over every batch of its scaled
    /// CPU time per election.
    pub fn end_to_end(&self) -> Metric {
        Metric::new("elect_cpu_ms", "ms", median(&self.scaled_ms))
    }

    /// The per-layer metrics: medians over the traced elections.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let layers = &self.layers;
        vec![
            Metric::new("build_ms", "ms", median(&layers.build_ms)),
            Metric::new("start_ms", "ms", median(&layers.start_ms)),
            Metric::new("obd_ms", "ms", median(&layers.obd_ms)),
            Metric::new("dle_ms", "ms", median(&layers.dle_ms)),
            Metric::new("collect_ms", "ms", median(&layers.collect_ms)),
            Metric::new("report_ms", "ms", median(&layers.report_ms)),
            Metric::new(
                "dle_ns_per_activation",
                "ns",
                median(&layers.dle_ns_per_activation),
            ),
            Metric::new("dle_rounds", "count", median(&layers.dle_rounds)),
            Metric::new("charged_rounds", "count", median(&layers.charged_rounds)),
            Metric::new("activations", "count", median(&layers.activations)),
        ]
    }
}

impl Layers {
    fn record(&mut self, election: &Election) {
        let report = &election.report;
        let phase_ms = |name: &str| -> f64 {
            let nanos: u64 = report
                .profile
                .iter()
                .filter(|p| p.name == name)
                .map(|p| p.wall_nanos)
                .sum();
            nanos as f64 / 1e6
        };
        let in_phases: u64 = report.profile.iter().map(|p| p.wall_nanos).sum();
        let dle_activations: u64 = report
            .phases
            .iter()
            .filter(|p| p.name == phase::DLE)
            .map(|p| p.activations)
            .sum();
        let outside = election
            .total
            .saturating_sub(election.build + election.start);
        self.build_ms.push(ms(election.build));
        self.start_ms.push(ms(election.start));
        self.obd_ms.push(phase_ms(phase::OBD));
        self.dle_ms.push(phase_ms(phase::DLE));
        self.collect_ms.push(phase_ms(phase::COLLECT));
        self.report_ms.push(ms(outside) - in_phases as f64 / 1e6);
        self.dle_ns_per_activation
            .push(phase_ms(phase::DLE) * 1e6 / dle_activations.max(1) as f64);
        self.dle_rounds.push(report.phase_rounds(phase::DLE) as f64);
        self.charged_rounds
            .push((report.phase_rounds(phase::OBD) + report.phase_rounds(phase::COLLECT)) as f64);
        self.activations.push(report.activations as f64);
    }
}
