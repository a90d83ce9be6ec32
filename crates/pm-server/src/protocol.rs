//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one [`Request`] serialized as a single JSON line; the
//! server answers with one or more [`Response`] lines, of which exactly the
//! last is *final* ([`Response::is_final`]) — the only non-final response is
//! [`Response::Round`], the per-round status stream of a `watch` window, so
//! a client reads lines until it sees anything else. Enums use serde's
//! externally-tagged encoding (`{"Submit": {...}}`, bare `"Sessions"` for
//! unit verbs); every field is always present (`null` for absent options).
//! `PROTOCOL.md` at the repository root documents each verb with examples.

use pm_core::api::{ExecutionStatus, RunReport};
use pm_core::session::{ExecutionCheckpoint, SessionId};
use pm_faults::FaultProcess;
use pm_scenarios::ScenarioSpec;
use pm_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// One client request, one JSON line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Admits a new session for the scenario; the session starts parked.
    Submit {
        /// The full declarative scenario to run.
        spec: ScenarioSpec,
    },
    /// Reports the session's current election status without advancing it.
    Status {
        /// The session to inspect.
        session: SessionId,
    },
    /// Advances the session by up to `rounds` further rounds of its
    /// round-driven phase, streaming one [`Response::Round`] line per
    /// completed round (other live sessions keep advancing fairly during
    /// the window). Closed-form algorithms complete no discrete rounds, so
    /// they stream zero `Round` lines and run to completion instead.
    Watch {
        /// The session to advance.
        session: SessionId,
        /// How many additional rounds to stream.
        rounds: u64,
    },
    /// Runs the session to completion (final report or error).
    Run {
        /// The session to finish.
        session: SessionId,
    },
    /// Appends a fault process to a live session's plan (removals, column
    /// cuts, regrow, corruption, relocation), fired under the reset policy
    /// the plan was submitted with. Finished sessions, sessions whose round
    /// cursor already passed the process's first firing round, and
    /// algorithms with no round-driven phase are rejected, so accepted
    /// processes always replay identically from a checkpoint.
    Fault {
        /// The session to fault.
        session: SessionId,
        /// The process to append to the session's fault plan.
        process: FaultProcess,
    },
    /// Parks the session: sweeps skip it until `Resume`.
    Pause {
        /// The session to pause.
        session: SessionId,
    },
    /// Clears the session's pause flag.
    Resume {
        /// The session to resume.
        session: SessionId,
    },
    /// Removes the session entirely.
    Cancel {
        /// The session to remove.
        session: SessionId,
    },
    /// Snapshots the session as a [`SessionCheckpoint`] that restores
    /// byte-identically — in this server process or a fresh one.
    Checkpoint {
        /// The session to snapshot.
        session: SessionId,
    },
    /// Admits a session rebuilt from a checkpoint (validated by replay).
    Restore {
        /// The checkpoint to rebuild from.
        checkpoint: SessionCheckpoint,
    },
    /// Lists every live session.
    Sessions,
    /// Reports server-wide operational counters as [`Response::Stats`].
    /// Uptime is wall-clock, so transcripts containing this verb are not
    /// byte-reproducible — keep it out of golden-diffed scripts.
    Stats,
    /// Reports the full telemetry registry as [`Response::Metrics`]: one
    /// consistent snapshot rendered both as structured JSON and as
    /// Prometheus text exposition. Like `Stats`, the payload contains
    /// wall-clock-derived values (latency histograms, durations), so it is
    /// *not* byte-reproducible — keep it out of golden-diffed scripts.
    Metrics,
    /// Stops serving after acknowledging with [`Response::Bye`].
    Shutdown,
}

/// One server response, one JSON line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Submit` acknowledged; the session is parked until watched or run.
    Submitted {
        /// The new session's id.
        session: SessionId,
        /// The scenario name, echoed back.
        name: String,
        /// The algorithm's reporting name.
        algorithm: String,
        /// Particles in the initial configuration.
        n: usize,
    },
    /// The session's bookkeeping and election status.
    Status {
        /// The inspected session.
        session: SessionId,
        /// Whether the session is paused.
        paused: bool,
        /// Steps executed so far (the checkpoint replay cursor).
        steps: u64,
        /// Completed round-driven rounds so far.
        rounds: u64,
        /// The election status snapshot.
        status: ExecutionStatus,
    },
    /// One completed round of a `watch` window (the only non-final
    /// response: more lines follow).
    Round {
        /// The watched session.
        session: SessionId,
        /// Status after the round completed.
        status: ExecutionStatus,
    },
    /// The session finished with a final report.
    Done {
        /// The finished session.
        session: SessionId,
        /// The election's final report.
        report: RunReport,
    },
    /// The session finished with an election error.
    Failed {
        /// The failed session.
        session: SessionId,
        /// The election error, rendered.
        error: String,
    },
    /// `Fault` acknowledged.
    Faulted {
        /// The faulted session.
        session: SessionId,
        /// Total fault processes now in the session's plan.
        processes: usize,
    },
    /// `Pause` acknowledged.
    Paused {
        /// The paused session.
        session: SessionId,
    },
    /// `Resume` acknowledged.
    Resumed {
        /// The resumed session.
        session: SessionId,
    },
    /// `Cancel` acknowledged.
    Cancelled {
        /// The removed session.
        session: SessionId,
    },
    /// `Checkpoint` acknowledged.
    Checkpointed {
        /// The snapshotted session.
        session: SessionId,
        /// The restorable snapshot.
        checkpoint: SessionCheckpoint,
    },
    /// `Restore` acknowledged: the checkpoint replayed and validated.
    Restored {
        /// The restored session's id (fresh — ids are never reused).
        session: SessionId,
        /// Steps replayed (equals the checkpoint's cursor).
        steps: u64,
        /// Completed rounds after replay.
        rounds: u64,
    },
    /// The live session listing.
    Sessions {
        /// One summary per live session, ascending by id.
        sessions: Vec<SessionSummary>,
    },
    /// The server-wide operational counters.
    Stats {
        /// The counters snapshot.
        stats: ServerStats,
    },
    /// The telemetry registry, snapshotted once and rendered twice.
    Metrics {
        /// The structured snapshot (counters, gauges, histograms).
        metrics: MetricsSnapshot,
        /// The same snapshot as Prometheus text exposition (one string,
        /// embedded newlines — scrapers unwrap it to a `/metrics` body).
        prometheus: String,
    },
    /// The request was valid but the server is at its session budget.
    /// Unlike [`Response::Error`], this rejection is *retryable*: the same
    /// request succeeds once sessions complete, are cancelled, or expire —
    /// clients should back off and resend.
    Busy {
        /// Which budget rejected the request.
        message: String,
    },
    /// The request could not be served (unknown session, invalid spec,
    /// malformed JSON, rejected fault process or checkpoint…).
    Error {
        /// What went wrong.
        message: String,
    },
    /// `Shutdown` acknowledged; the server stops reading.
    Bye,
}

impl Response {
    /// Whether this response ends its request's line stream. Everything is
    /// final except [`Response::Round`].
    pub fn is_final(&self) -> bool {
        !matches!(self, Response::Round { .. })
    }
}

/// Server-wide operational counters, reported by the `stats` verb. The
/// session counts partition the live sessions: `running + paused + done ==
/// sessions`. The remaining counters are monotone over the process
/// lifetime (they reset on restart, not on recovery).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Milliseconds since the server core was created.
    pub uptime_ms: u64,
    /// Live sessions right now.
    pub sessions: usize,
    /// Live sessions that are neither paused nor finished.
    pub running: usize,
    /// Live sessions currently paused.
    pub paused: usize,
    /// Live sessions holding a final outcome.
    pub done: usize,
    /// Scheduler sweeps performed by `watch`/`run` pumping.
    pub sweeps: u64,
    /// Checkpoint files written: autosaves (which skip unchanged sessions)
    /// plus the rewrites of startup recovery.
    pub checkpoints_written: u64,
    /// Sessions evicted by the idle-TTL sweep.
    pub evictions: u64,
    /// Sessions rebuilt from checkpoints: `restore` verbs plus the startup
    /// recovery scan.
    pub restores: u64,
    /// Request bytes read off client connections (all transports).
    pub bytes_read: u64,
    /// Response bytes written to client connections (all transports).
    pub bytes_written: u64,
    /// Client connections currently open (the stdio transport counts as
    /// one connection for its whole lifetime).
    pub active_connections: i64,
}

/// One row of the `Sessions` listing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// The session's id.
    pub session: SessionId,
    /// The scenario name it was submitted with.
    pub name: String,
    /// The algorithm's reporting name.
    pub algorithm: String,
    /// Completed round-driven rounds so far.
    pub rounds: u64,
    /// Whether the session is paused.
    pub paused: bool,
    /// Whether the session has produced its outcome.
    pub done: bool,
}

/// A restorable session snapshot: the full scenario (original plus every
/// injected fault process) and the execution's replay checkpoint. Restoring
/// rebuilds the scenario from scratch and replays
/// [`ExecutionCheckpoint::steps`] steps with the fault script live —
/// strict determinism makes the result byte-identical to the original
/// session, which the checkpoint's counters validate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// The scenario to rebuild (its fault plan includes injected processes).
    pub spec: ScenarioSpec,
    /// The replay cursor and validation counters.
    pub execution: ExecutionCheckpoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_scenarios::GeneratorSpec;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request::Submit {
                spec: ScenarioSpec::new("s", GeneratorSpec::Hexagon { radius: 3 }),
            },
            Request::Watch {
                session: 1,
                rounds: 3,
            },
            Request::Fault {
                session: 1,
                process: FaultProcess::periodic(pm_faults::FaultKind::Removals, 2, 3, 11, 4),
            },
            Request::Fault {
                session: 1,
                process: FaultProcess::once(pm_faults::FaultKind::SplitColumn { column: -2 }, 5, 0),
            },
            Request::Sessions,
            Request::Shutdown,
        ];
        for request in requests {
            let line = serde_json::to_string(&request).unwrap();
            assert!(!line.contains('\n'), "one request, one line");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn only_round_responses_are_non_final() {
        let round = Response::Round {
            session: 1,
            status: ExecutionStatus {
                algorithm: "dle+collect",
                phase: None,
                rounds_in_phase: 0,
                total_rounds: 0,
                decided: 0,
                undecided: 0,
                next_round: None,
                finished: false,
            },
        };
        assert!(!round.is_final());
        assert!(Response::Bye.is_final());
        assert!(Response::Error {
            message: "x".into()
        }
        .is_final());
    }
}
