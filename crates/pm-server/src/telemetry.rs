//! The server's telemetry wiring: one process-wide [`Registry`] shared by
//! the core, the transports, and the persist layer, plus the named handles
//! each of them hammers on their hot paths.
//!
//! Telemetry is **out-of-band by contract**: nothing here feeds back into
//! scheduling, elections, or the wire protocol's deterministic payloads.
//! The only protocol surface is the `metrics` verb, which — like `stats` —
//! is documented as not byte-reproducible and stays out of golden-diffed
//! scripts. Handles are cheap `Arc`-backed atomics, so transports clone
//! them once per connection and record without taking the core lock.

use pm_core::api::PhaseProfile;
use pm_telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Microsecond buckets for request/sweep latencies: 50µs to ~10s.
const LATENCY_US_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// Microsecond buckets for core-lock waits and holds: a small request holds
/// the lock for tens of µs, a long `run` for seconds.
const LOCK_US_BOUNDS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 10_000, 50_000, 250_000, 1_000_000,
    10_000_000,
];

/// Microsecond buckets for durable-write latencies: disk syncs dominate,
/// so the range shifts up relative to [`LATENCY_US_BOUNDS`].
const WRITE_US_BOUNDS: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 2_000_000,
];

/// Byte-size buckets for checkpoint files: 1 KiB to 16 MiB.
const BYTES_BOUNDS: &[u64] = &[
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    16 << 20,
];

/// Round-count buckets for recovery histograms: 1 to ~4k rounds.
const ROUNDS_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 4_096];

/// Every verb name `pm_server_verb_latency_us` is labeled with, in protocol
/// order. Kept in one place so the smoke test and docs can enumerate them.
pub const VERBS: &[&str] = &[
    "submit",
    "status",
    "watch",
    "run",
    "fault",
    "pause",
    "resume",
    "cancel",
    "checkpoint",
    "restore",
    "sessions",
    "stats",
    "metrics",
    "shutdown",
];

/// The shared telemetry bundle: the registry plus pre-registered handles
/// for every hot-path series. Clone the `Arc`, not the struct.
pub struct ServerTelemetry {
    registry: Registry,
    /// Request bytes read off client connections.
    pub bytes_read: Counter,
    /// Response bytes written to client connections.
    pub bytes_written: Counter,
    /// Connections currently open.
    pub active_connections: Gauge,
    /// Connections accepted over the process lifetime.
    pub connections_total: Counter,
    /// Listener `accept` failures (backed off, not fatal).
    pub accept_errors: Counter,
    /// Per-connection I/O failures (connection dropped, server lives on).
    pub connection_errors: Counter,
    /// Malformed request lines answered with a protocol error.
    pub malformed_requests: Counter,
    /// Request lines longer than the transport's line cap: answered with
    /// an error, then the connection is closed.
    pub oversize_lines: Counter,
    /// Protocol connections dropped because a write blocked past the
    /// transport's write timeout (a client that stopped reading).
    pub write_timeouts: Counter,
    /// Time from asking for the core lock to holding it, µs.
    pub core_lock_wait_us: Histogram,
    /// Time the core lock was held, µs: requests, housekeeping, HTTP
    /// scrapes and the final sweep alike.
    pub core_lock_hold_us: Histogram,
    /// Wall time of one scheduler sweep, µs.
    pub sweep_duration_us: Histogram,
    /// Wall time of one durable checkpoint write, µs.
    pub checkpoint_write_us: Histogram,
    /// Serialized size of one durable checkpoint, bytes.
    pub checkpoint_bytes: Histogram,
    /// Autosave failures (logged and skipped).
    pub checkpoint_errors: Counter,
    /// Checkpoint files written: autosaves plus the rewrites of startup
    /// recovery.
    pub checkpoints_written: Counter,
    /// Sessions evicted by the idle-TTL sweep.
    pub evictions: Counter,
    /// Sessions rebuilt from checkpoints (`restore` verbs and startup
    /// recovery).
    pub restores: Counter,
    /// Wall time of one housekeeping pass, µs.
    pub housekeeping_duration_us: Histogram,
    /// Fault-plan firings across finished fault-injected sessions.
    pub faults_fired_total: Counter,
    /// Rounds from the last fault firing to termination, per finished
    /// fault-injected session.
    pub recovery_rounds: Histogram,
    /// Fault-injected sessions that finished with a unique leader.
    pub recoveries_total: Counter,
    /// Fault-injected sessions that finished without a unique leader.
    pub recovery_failures_total: Counter,
    /// Trace events lost to full recorder rings — mirrored from the trace
    /// recorder's drop counter at snapshot time, so a `/metrics` scrape
    /// reveals when `/trace` is truncating.
    pub trace_dropped_events: Gauge,
}

impl ServerTelemetry {
    /// A fresh registry with every hot-path series pre-registered, so the
    /// first scrape already lists them (at zero) and the smoke test can
    /// assert their presence without traffic.
    pub fn new() -> Arc<ServerTelemetry> {
        let registry = Registry::new();
        for verb in VERBS {
            registry.histogram_with(
                "pm_server_verb_latency_us",
                &[("verb", verb)],
                LATENCY_US_BOUNDS,
            );
        }
        let telemetry = ServerTelemetry {
            bytes_read: registry.counter("pm_server_bytes_read_total"),
            bytes_written: registry.counter("pm_server_bytes_written_total"),
            active_connections: registry.gauge("pm_server_active_connections"),
            connections_total: registry.counter("pm_server_connections_total"),
            accept_errors: registry.counter("pm_server_accept_errors_total"),
            connection_errors: registry.counter("pm_server_connection_errors_total"),
            malformed_requests: registry.counter("pm_server_malformed_requests_total"),
            oversize_lines: registry.counter("pm_server_oversize_lines_total"),
            write_timeouts: registry.counter("pm_server_write_timeouts_total"),
            core_lock_wait_us: registry.histogram("pm_server_core_lock_wait_us", LOCK_US_BOUNDS),
            core_lock_hold_us: registry.histogram("pm_server_core_lock_hold_us", LOCK_US_BOUNDS),
            sweep_duration_us: registry.histogram("pm_server_sweep_duration_us", LATENCY_US_BOUNDS),
            checkpoint_write_us: registry
                .histogram("pm_server_checkpoint_write_us", WRITE_US_BOUNDS),
            checkpoint_bytes: registry.histogram("pm_server_checkpoint_bytes", BYTES_BOUNDS),
            checkpoint_errors: registry.counter("pm_server_checkpoint_errors_total"),
            checkpoints_written: registry.counter("pm_server_checkpoints_written_total"),
            evictions: registry.counter("pm_server_evictions_total"),
            restores: registry.counter("pm_server_restores_total"),
            housekeeping_duration_us: registry
                .histogram("pm_server_housekeeping_duration_us", LATENCY_US_BOUNDS),
            faults_fired_total: registry.counter("pm_election_faults_fired_total"),
            recovery_rounds: registry.histogram("pm_election_recovery_rounds", ROUNDS_BOUNDS),
            recoveries_total: registry.counter("pm_election_recoveries_total"),
            recovery_failures_total: registry.counter("pm_election_recovery_failures_total"),
            trace_dropped_events: registry.gauge("pm_trace_dropped_events"),
            registry,
        };
        Arc::new(telemetry)
    }

    /// The verb-latency histogram for one protocol verb (get-or-create, so
    /// unknown labels never panic).
    pub fn verb_latency(&self, verb: &str) -> Histogram {
        self.registry.histogram_with(
            "pm_server_verb_latency_us",
            &[("verb", verb)],
            LATENCY_US_BOUNDS,
        )
    }

    /// Records one served request against its verb's latency series.
    pub fn observe_verb(&self, verb: &str, elapsed: Duration) {
        self.verb_latency(verb).observe(as_micros(elapsed));
    }

    /// Folds one finished election's per-phase profile into the registry:
    /// wall time as `pm_election_phase_wall_us{phase=…}` plus monotone
    /// round/activation/move totals per phase. Call once per session — the
    /// core guards this with its harvested-session set.
    pub fn harvest_profile(&self, profile: &[PhaseProfile]) {
        for phase in profile {
            let labels = &[("phase", phase.name.as_str())];
            self.registry
                .histogram_with("pm_election_phase_wall_us", labels, LATENCY_US_BOUNDS)
                .observe(phase.wall_nanos / 1_000);
            self.registry
                .counter_with("pm_election_phase_rounds_total", labels)
                .add(phase.rounds);
            self.registry
                .counter_with("pm_election_phase_activations_total", labels)
                .add(phase.activations);
            self.registry
                .counter_with("pm_election_phase_moves_total", labels)
                .add(phase.moves);
        }
    }

    /// Folds one finished fault-injected session's recovery outcome into
    /// the registry: total firings, rounds-to-termination after the last
    /// firing, and whether a unique leader emerged. Call once per session
    /// (guarded by the core's harvested-session set), and only for sessions
    /// whose fault plan actually fired.
    pub fn harvest_recovery(&self, faults_fired: usize, recovery_rounds: u64, recovered: bool) {
        self.faults_fired_total
            .add(u64::try_from(faults_fired).unwrap_or(u64::MAX));
        self.recovery_rounds.observe(recovery_rounds);
        if recovered {
            self.recoveries_total.inc();
        } else {
            self.recovery_failures_total.inc();
        }
    }

    /// One consistent snapshot of every registered series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Saturating `Duration` → whole microseconds.
pub fn as_micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_verb_series_exists_before_any_traffic() {
        let telemetry = ServerTelemetry::new();
        let snapshot = telemetry.snapshot();
        let verbs: Vec<&str> = snapshot
            .histograms
            .iter()
            .filter(|h| h.name == "pm_server_verb_latency_us")
            .flat_map(|h| h.labels.iter())
            .filter(|l| l.key == "verb")
            .map(|l| l.value.as_str())
            .collect();
        for verb in VERBS {
            assert!(verbs.contains(verb), "missing verb series `{verb}`");
        }
    }

    #[test]
    fn harvesting_a_profile_creates_the_phase_series() {
        let telemetry = ServerTelemetry::new();
        telemetry.harvest_profile(&[PhaseProfile {
            name: "dle".to_string(),
            steps: 10,
            rounds: 7,
            activations: 40,
            moves: 3,
            wall_nanos: 5_000,
        }]);
        let snapshot = telemetry.snapshot();
        let wall = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "pm_election_phase_wall_us")
            .expect("phase wall series");
        assert_eq!(wall.count, 1);
        assert_eq!(wall.sum, 5);
        let rounds = snapshot
            .counters
            .iter()
            .find(|c| c.name == "pm_election_phase_rounds_total")
            .expect("phase rounds series");
        assert_eq!(rounds.value, 7);
    }

    #[test]
    fn recovery_series_exist_at_zero_and_accumulate_on_harvest() {
        let telemetry = ServerTelemetry::new();
        let snapshot = telemetry.snapshot();
        assert!(snapshot
            .counters
            .iter()
            .any(|c| c.name == "pm_election_faults_fired_total" && c.value == 0));
        assert!(snapshot
            .histograms
            .iter()
            .any(|h| h.name == "pm_election_recovery_rounds" && h.count == 0));

        telemetry.harvest_recovery(3, 12, true);
        telemetry.harvest_recovery(1, 40, false);
        let snapshot = telemetry.snapshot();
        assert_eq!(telemetry.faults_fired_total.get(), 4);
        assert_eq!(telemetry.recoveries_total.get(), 1);
        assert_eq!(telemetry.recovery_failures_total.get(), 1);
        let rounds = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "pm_election_recovery_rounds")
            .expect("recovery rounds series");
        assert_eq!(rounds.count, 2);
        assert_eq!(rounds.sum, 52);
    }
}
