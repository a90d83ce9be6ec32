//! The transport-agnostic server core: protocol requests in, protocol
//! responses out, with every live session multiplexed through one
//! [`SessionScheduler`].
//!
//! The core is deliberately synchronous and single-threaded at the protocol
//! layer (requests are served in arrival order); concurrency lives below it,
//! in the scheduler's sharded sweeps, and *fairness* is the scheduler's
//! round-robin slice budget — a `watch` or `run` request pumps the whole
//! scheduler, so every runnable session advances while one client's request
//! is being served, and no session can starve the rest.

use crate::persist::PersistDir;
use crate::protocol::{Request, Response, ServerStats, SessionCheckpoint, SessionSummary};
use crate::telemetry::{as_micros, ServerTelemetry};
use pm_core::api::Execution;
use pm_core::session::{Goal, SessionId, SessionScheduler};
use pm_faults::{apply_faults, FaultProcess, FaultScript};
use pm_scenarios::ScenarioSpec;
use pm_telemetry::{trace, warn};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The log target every core-side line is tagged with.
const LOG: &str = "pm_server::core";

/// Resource bounds a server core enforces. The defaults bound nothing —
/// existing embedded uses keep their unlimited behavior unless they opt in.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerLimits {
    /// Reject `submit`/`restore` with the retryable [`Response::Busy`] once
    /// this many sessions are live. Sessions are the server's only
    /// per-client state, so this is also the memory budget.
    pub max_sessions: Option<usize>,
    /// Evict sessions idle (no request touched them) for at least this
    /// long during [`ServerCore::housekeeping`] sweeps.
    pub idle_ttl: Option<Duration>,
}

/// The multi-tenant session server behind every transport. See the
/// [module docs](self) for the scheduling model and `PROTOCOL.md` for the
/// wire protocol.
pub struct ServerCore {
    scheduler: SessionScheduler<FaultScript>,
    /// Each session's scenario, kept current with injected fault processes —
    /// this is what a checkpoint persists, so a fresh process can rebuild
    /// the session from nothing but the checkpoint.
    specs: BTreeMap<SessionId, ScenarioSpec>,
    /// When each session was last named by a request (idle-TTL eviction).
    touched: BTreeMap<SessionId, Instant>,
    /// The autosave cursor last written per session — sessions that have
    /// not advanced since are skipped, so an idle server writes nothing.
    saved: BTreeMap<SessionId, (u64, u64, usize)>,
    persist: Option<PersistDir>,
    limits: ServerLimits,
    /// How often transports should call [`ServerCore::housekeeping`].
    autosave_interval: Duration,
    started: Instant,
    /// The shared metric registry and its hot-path handles; transports
    /// clone the `Arc` and record without taking the core lock.
    telemetry: Arc<ServerTelemetry>,
    /// Sessions whose finished profile was already folded into the
    /// registry (profiles must count exactly once per election).
    harvested: BTreeSet<SessionId>,
}

impl ServerCore {
    /// A server core giving each runnable session at most `slice_steps`
    /// steps per scheduler sweep, sweeping on up to `threads` threads.
    pub fn new(slice_steps: u64, threads: usize) -> ServerCore {
        ServerCore {
            scheduler: SessionScheduler::with_threads(slice_steps, threads),
            specs: BTreeMap::new(),
            touched: BTreeMap::new(),
            saved: BTreeMap::new(),
            persist: None,
            limits: ServerLimits::default(),
            autosave_interval: Duration::from_millis(500),
            started: Instant::now(),
            telemetry: ServerTelemetry::new(),
            harvested: BTreeSet::new(),
        }
    }

    /// The core's telemetry bundle — transports clone it to record
    /// connection and byte counters off the core lock, and embedders can
    /// scrape it directly.
    pub fn telemetry(&self) -> Arc<ServerTelemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Rebases the core's uptime clock onto an external epoch — the
    /// `--http` path installs the trace recorder and the core on one shared
    /// `Instant`, so `/stats` uptime, `/metrics` scrape ages and trace
    /// timestamps all count from the same origin.
    pub fn set_epoch(&mut self, epoch: Instant) {
        self.started = epoch;
    }

    /// Number of live sessions.
    pub fn sessions(&self) -> usize {
        self.scheduler.len()
    }

    /// Installs resource bounds (session budget, idle TTL).
    pub fn set_limits(&mut self, limits: ServerLimits) {
        self.limits = limits;
    }

    /// Sets how often transports run [`ServerCore::housekeeping`].
    pub fn set_autosave_interval(&mut self, interval: Duration) {
        self.autosave_interval = interval.max(Duration::from_millis(1));
    }

    /// The housekeeping cadence transports should honor.
    pub fn autosave_interval(&self) -> Duration {
        self.autosave_interval
    }

    /// Whether this core wants a periodic housekeeping tick at all (it does
    /// once persistence or an idle TTL is configured).
    pub fn wants_housekeeping(&self) -> bool {
        self.persist.is_some() || self.limits.idle_ttl.is_some()
    }

    /// Attaches a persist directory and recovers every session checkpointed
    /// in it, in ascending saved-id order (restored sessions get fresh ids,
    /// preserving the original order). Corrupt or torn files are logged to
    /// stderr with their typed error and skipped — recovery never panics
    /// and never aborts the scan. Returns `(restored, rejected)` counts.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created or listed.
    pub fn attach_persistence(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(usize, usize), String> {
        let persist = PersistDir::open(dir).map_err(|e| e.to_string())?;
        let scanned = persist.scan().map_err(|e| e.to_string())?;
        let mut restored = 0;
        let mut rejected = 0;
        for (path, parsed) in scanned {
            let checkpoint = match parsed {
                Ok(checkpoint) => checkpoint,
                Err(error) => {
                    warn!(LOG, "recovery: skipping {error}");
                    rejected += 1;
                    continue;
                }
            };
            let name = checkpoint.spec.name.clone();
            match self.restore(checkpoint) {
                Response::Restored { session, .. } => {
                    // The session lives under a fresh id now; the stale file
                    // must not resurrect a duplicate on the next restart.
                    let _ = std::fs::remove_file(&path);
                    if let Some(checkpoint) = self.session_checkpoint(session) {
                        if persist.save(session, &checkpoint).is_ok() {
                            self.mark_saved(session);
                        }
                    }
                    restored += 1;
                }
                response => {
                    warn!(
                        LOG,
                        "recovery: skipping {} (`{name}`): {response:?}",
                        path.display()
                    );
                    rejected += 1;
                }
            }
        }
        self.persist = Some(persist);
        Ok((restored, rejected))
    }

    /// Serves one request, appending every response line to `out` (exactly
    /// one final response, preceded by any number of [`Response::Round`]
    /// stream lines). Returns `true` iff the request was [`Request::Shutdown`]
    /// and the transport should stop reading.
    pub fn handle(&mut self, request: Request, out: &mut Vec<Response>) -> bool {
        let verb = ServerCore::verb_name(&request);
        let _span = trace::span("verb", verb);
        let served = Instant::now();
        if let Some(session) = ServerCore::named_session(&request) {
            self.touch(session);
        }
        let shutdown = match request {
            Request::Submit { spec } => {
                out.push(self.submit(spec));
                false
            }
            Request::Status { session } => {
                out.push(self.status(session));
                false
            }
            Request::Watch { session, rounds } => {
                self.watch(session, rounds, out);
                false
            }
            Request::Run { session } => {
                self.run(session, out);
                false
            }
            Request::Fault { session, process } => {
                out.push(self.fault(session, process));
                false
            }
            Request::Pause { session } => {
                out.push(self.pause(session));
                false
            }
            Request::Resume { session } => {
                out.push(self.resume(session));
                false
            }
            Request::Cancel { session } => {
                out.push(self.cancel(session));
                false
            }
            Request::Checkpoint { session } => {
                out.push(self.checkpoint(session));
                false
            }
            Request::Restore { checkpoint } => {
                out.push(self.restore(checkpoint));
                false
            }
            Request::Sessions => {
                out.push(self.list());
                false
            }
            Request::Stats => {
                out.push(self.stats());
                false
            }
            Request::Metrics => {
                out.push(self.metrics());
                false
            }
            Request::Shutdown => {
                out.push(Response::Bye);
                true
            }
        };
        self.telemetry.observe_verb(verb, served.elapsed());
        shutdown
    }

    /// The metric label each verb's latency is recorded under.
    fn verb_name(request: &Request) -> &'static str {
        match request {
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Watch { .. } => "watch",
            Request::Run { .. } => "run",
            Request::Fault { .. } => "fault",
            Request::Pause { .. } => "pause",
            Request::Resume { .. } => "resume",
            Request::Cancel { .. } => "cancel",
            Request::Checkpoint { .. } => "checkpoint",
            Request::Restore { .. } => "restore",
            Request::Sessions => "sessions",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }

    /// The session a request names, if any — every such request counts as
    /// client interest for the idle-TTL clock.
    fn named_session(request: &Request) -> Option<SessionId> {
        match request {
            Request::Status { session }
            | Request::Watch { session, .. }
            | Request::Run { session }
            | Request::Fault { session, .. }
            | Request::Pause { session }
            | Request::Resume { session }
            | Request::Cancel { session }
            | Request::Checkpoint { session } => Some(*session),
            Request::Submit { .. }
            | Request::Restore { .. }
            | Request::Sessions
            | Request::Stats
            | Request::Metrics
            | Request::Shutdown => None,
        }
    }

    fn touch(&mut self, session: SessionId) {
        if self.scheduler.view(session).is_some() {
            self.touched.insert(session, Instant::now());
        }
    }

    /// Pumps the scheduler until `session` reaches its goal, timing each
    /// sweep into the registry (whose count is the `stats` verb's sweep
    /// counter). Sessions that finish during the pumping — the named one
    /// or any other runnable session — get their profiles harvested.
    fn drive(&mut self, session: SessionId) {
        while self.scheduler.runnable(session) {
            let swept = Instant::now();
            self.scheduler.sweep(&apply_faults);
            self.telemetry
                .sweep_duration_us
                .observe(as_micros(swept.elapsed()));
        }
        self.harvest_finished();
    }

    /// Folds every newly finished session's per-phase profile — and, for
    /// fault-injected sessions, its recovery outcome — into the registry,
    /// exactly once per session.
    fn harvest_finished(&mut self) {
        for id in self.scheduler.ids() {
            if self.harvested.contains(&id) {
                continue;
            }
            let (total_rounds, recovered) = match self.scheduler.outcome(id) {
                Some(Ok(report)) => {
                    self.telemetry.harvest_profile(&report.profile);
                    (report.total_rounds, report.unique_leader())
                }
                _ => continue,
            };
            if let Some(faults) = self.scheduler.payload(id) {
                if faults.fired() > 0 {
                    let recovery_rounds =
                        total_rounds.saturating_sub(faults.rounds_at_last_fault());
                    self.telemetry
                        .harvest_recovery(faults.fired(), recovery_rounds, recovered);
                }
            }
            self.harvested.insert(id);
        }
    }

    /// The retryable rejection when the session budget is exhausted, or
    /// `None` while there is room.
    fn at_budget(&self) -> Option<Response> {
        let max = self.limits.max_sessions?;
        (self.scheduler.len() >= max).then(|| Response::Busy {
            message: format!(
                "session budget {max} exhausted; retry after sessions complete, \
                 are cancelled, or expire"
            ),
        })
    }

    /// One housekeeping sweep: evict idle sessions past their TTL, then
    /// autosave every session that advanced since its last save (a
    /// replay checkpoint of a few hundred bytes). Transports call this on
    /// the [`ServerCore::autosave_interval`] cadence and once more right
    /// before exiting. Returns `(evicted, files_written)`.
    pub fn housekeeping(&mut self) -> (usize, usize) {
        let _pass_span = trace::span("server", "housekeeping");
        let now = Instant::now();
        let pass = Instant::now();
        let mut evicted = 0;
        if let Some(ttl) = self.limits.idle_ttl {
            for id in self.scheduler.ids() {
                let fresh = self
                    .touched
                    .get(&id)
                    .is_some_and(|at| now.duration_since(*at) < ttl);
                if !fresh {
                    self.forget(id);
                    self.telemetry.evictions.inc();
                    evicted += 1;
                    if trace::enabled() {
                        trace::instant("server", format!("evict:session-{id}"));
                    }
                }
            }
        }
        let mut written = 0;
        if self.persist.is_none() {
            self.telemetry
                .housekeeping_duration_us
                .observe(as_micros(pass.elapsed()));
            return (evicted, written);
        }
        for id in self.scheduler.ids() {
            let cursor = self.cursor(id);
            if self.saved.get(&id) == Some(&cursor) {
                continue;
            }
            let Some(checkpoint) = self.session_checkpoint(id) else {
                continue;
            };
            let saved_at = Instant::now();
            match self.persist.as_ref().map(|p| p.save(id, &checkpoint)) {
                Some(Ok(bytes)) => {
                    self.telemetry
                        .checkpoint_write_us
                        .observe(as_micros(saved_at.elapsed()));
                    self.telemetry.checkpoint_bytes.observe(bytes);
                    self.saved.insert(id, cursor);
                    self.telemetry.checkpoints_written.inc();
                    written += 1;
                    if trace::enabled() {
                        trace::instant("server", format!("checkpoint:session-{id}"));
                    }
                }
                Some(Err(error)) => {
                    self.telemetry.checkpoint_errors.inc();
                    warn!(LOG, "autosave: {error}");
                }
                None => {}
            }
        }
        self.telemetry
            .housekeeping_duration_us
            .observe(as_micros(pass.elapsed()));
        (evicted, written)
    }

    /// Drops every trace of a session: scheduler slot, spec, TTL clock,
    /// autosave cursor, and checkpoint file.
    fn forget(&mut self, session: SessionId) {
        self.scheduler.remove(session);
        self.specs.remove(&session);
        self.touched.remove(&session);
        self.saved.remove(&session);
        self.harvested.remove(&session);
        if let Some(persist) = &self.persist {
            persist.delete(session);
        }
    }

    /// The autosave-staleness cursor: a session whose cursor is unchanged
    /// since its last save has an up-to-date file on disk.
    fn cursor(&self, session: SessionId) -> (u64, u64, usize) {
        let view = self.scheduler.view(session).expect("live session");
        let events = self
            .specs
            .get(&session)
            .map_or(0, |spec| spec.faults.processes.len());
        (view.steps, view.rounds, events)
    }

    fn mark_saved(&mut self, session: SessionId) {
        let cursor = self.cursor(session);
        self.saved.insert(session, cursor);
        self.telemetry.checkpoints_written.inc();
    }

    /// The full restorable snapshot of one session (spec + execution
    /// checkpoint), shared by the `checkpoint` verb and autosave.
    fn session_checkpoint(&self, session: SessionId) -> Option<SessionCheckpoint> {
        match (self.scheduler.checkpoint(session), self.specs.get(&session)) {
            (Some(execution), Some(spec)) => Some(SessionCheckpoint {
                spec: spec.clone(),
                execution,
            }),
            _ => None,
        }
    }

    /// The live operational snapshot behind the `stats` verb and the HTTP
    /// `/stats` route — both surfaces serve exactly this struct, so they
    /// can never drift apart.
    pub fn server_stats(&self) -> ServerStats {
        let mut running = 0;
        let mut paused = 0;
        let mut done = 0;
        for id in self.scheduler.ids() {
            let view = self.scheduler.view(id).expect("listed id exists");
            if view.done {
                done += 1;
            } else if view.paused {
                paused += 1;
            } else {
                running += 1;
            }
        }
        ServerStats {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            sessions: self.scheduler.len(),
            running,
            paused,
            done,
            sweeps: self.telemetry.sweep_duration_us.count(),
            checkpoints_written: self.telemetry.checkpoints_written.get(),
            evictions: self.telemetry.evictions.get(),
            restores: self.telemetry.restores.get(),
            bytes_read: self.telemetry.bytes_read.get(),
            bytes_written: self.telemetry.bytes_written.get(),
            active_connections: self.telemetry.active_connections.get(),
        }
    }

    fn stats(&self) -> Response {
        Response::Stats {
            stats: self.server_stats(),
        }
    }

    /// One registry snapshot — the shared path behind the `metrics` verb
    /// and the HTTP `/metrics` route, so both scrape surfaces expose the
    /// identical series set. Harvests any sessions that finished since the
    /// last pumping request first (a scrape never misses a completed
    /// election's phase profile) and mirrors the trace recorder's ring-drop
    /// counter into the registry.
    pub fn metrics_snapshot(&mut self) -> pm_telemetry::MetricsSnapshot {
        self.harvest_finished();
        let dropped = i64::try_from(trace::dropped()).unwrap_or(i64::MAX);
        self.telemetry.trace_dropped_events.set(dropped);
        self.telemetry.snapshot()
    }

    fn metrics(&mut self) -> Response {
        let metrics = self.metrics_snapshot();
        let prometheus = metrics.to_prometheus();
        Response::Metrics {
            metrics,
            prometheus,
        }
    }

    fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
        }
    }

    fn unknown(session: SessionId) -> Response {
        ServerCore::error(format!("no session {session}"))
    }

    /// Starts an owned, profiled execution for a scenario — the shared path
    /// behind `submit` and `restore`. Returns it with the initial particle
    /// count, so the shape is built exactly once per start.
    fn start(spec: &ScenarioSpec) -> Result<(Execution<'static>, usize), String> {
        spec.check_faults()?;
        let shape = {
            let _span = trace::span("start", "shape:build");
            spec.build_shape()
        };
        let mut execution = spec
            .algorithm
            .instance()
            .start_owned(&shape, spec.scheduler.build(), &spec.options)
            .map_err(|e| format!("start `{}`: {e}", spec.name))?;
        // Profiles feed the registry when the session finishes; they never
        // touch the deterministic report fields or checkpoint replay.
        execution.enable_profiling();
        Ok((execution, shape.len()))
    }

    fn submit(&mut self, spec: ScenarioSpec) -> Response {
        if let Some(busy) = self.at_budget() {
            return busy;
        }
        let (execution, n) = match ServerCore::start(&spec) {
            Ok(started) => started,
            Err(message) => return ServerCore::error(message),
        };
        let script = FaultScript::new(spec.faults.clone());
        let session = self.scheduler.admit(execution, script);
        let response = Response::Submitted {
            session,
            name: spec.name.clone(),
            algorithm: spec.algorithm.name().to_string(),
            n,
        };
        self.specs.insert(session, spec);
        self.touch(session);
        response
    }

    fn status(&self, session: SessionId) -> Response {
        match (self.scheduler.view(session), self.scheduler.status(session)) {
            (Some(view), Some(status)) => Response::Status {
                session,
                paused: view.paused,
                steps: view.steps,
                rounds: view.rounds,
                status,
            },
            _ => ServerCore::unknown(session),
        }
    }

    /// The terminal line of a pumping request: the outcome if the session
    /// finished, its status otherwise.
    fn outcome_or_status(&self, session: SessionId) -> Response {
        match self.scheduler.outcome(session) {
            Some(Ok(report)) => Response::Done {
                session,
                report: report.clone(),
            },
            Some(Err(error)) => Response::Failed {
                session,
                error: error.to_string(),
            },
            None => self.status(session),
        }
    }

    fn watch(&mut self, session: SessionId, rounds: u64, out: &mut Vec<Response>) {
        let Some(view) = self.scheduler.view(session) else {
            out.push(ServerCore::unknown(session));
            return;
        };
        self.scheduler.set_recording(session, true);
        self.scheduler
            .set_goal(session, Goal::Rounds(view.rounds + rounds));
        self.drive(session);
        self.scheduler.set_goal(session, Goal::Hold);
        self.scheduler.set_recording(session, false);
        for status in self.scheduler.drain_recorded(session) {
            out.push(Response::Round { session, status });
        }
        out.push(self.outcome_or_status(session));
    }

    fn run(&mut self, session: SessionId, out: &mut Vec<Response>) {
        if self.scheduler.view(session).is_none() {
            out.push(ServerCore::unknown(session));
            return;
        }
        self.scheduler.set_goal(session, Goal::Complete);
        self.drive(session);
        out.push(self.outcome_or_status(session));
    }

    /// Appends a fault process to a live session's plan (fired under the
    /// plan's reset policy, fixed at submit). Finished sessions, algorithms
    /// with no round-driven phase, and processes whose first firing round
    /// the session already completed are rejected, so every accepted
    /// process replays identically from a checkpoint.
    fn fault(&mut self, session: SessionId, process: FaultProcess) -> Response {
        let Some(view) = self.scheduler.view(session) else {
            return ServerCore::unknown(session);
        };
        let spec = self.specs.get_mut(&session).expect("specs mirror sessions");
        if view.done || self.scheduler.status(session).is_some_and(|s| s.finished) {
            return ServerCore::error(format!("session {session} has finished"));
        }
        if !spec.algorithm.supports_faults() {
            return ServerCore::error(format!(
                "`{}` runs no round-driven phase to fault",
                spec.algorithm.name()
            ));
        }
        // A process starting at a round the session already completed would
        // fire under replay but not live, breaking checkpoint determinism.
        if process.start < view.rounds {
            return ServerCore::error(format!(
                "session {session} already completed round {} (process starts at round {})",
                view.rounds, process.start
            ));
        }
        spec.faults.processes.push(process);
        let script = self.scheduler.payload_mut(session).expect("session exists");
        script.push(process);
        Response::Faulted {
            session,
            processes: script.plan().processes.len(),
        }
    }

    fn pause(&mut self, session: SessionId) -> Response {
        if self.scheduler.pause(session) {
            Response::Paused { session }
        } else {
            ServerCore::unknown(session)
        }
    }

    fn resume(&mut self, session: SessionId) -> Response {
        if self.scheduler.resume(session) {
            Response::Resumed { session }
        } else {
            ServerCore::unknown(session)
        }
    }

    fn cancel(&mut self, session: SessionId) -> Response {
        if self.scheduler.view(session).is_some() {
            self.forget(session);
            Response::Cancelled { session }
        } else {
            ServerCore::unknown(session)
        }
    }

    fn checkpoint(&self, session: SessionId) -> Response {
        match self.session_checkpoint(session) {
            Some(checkpoint) => Response::Checkpointed {
                session,
                checkpoint,
            },
            None => ServerCore::unknown(session),
        }
    }

    fn restore(&mut self, checkpoint: SessionCheckpoint) -> Response {
        if let Some(busy) = self.at_budget() {
            return busy;
        }
        let (execution, _) = match ServerCore::start(&checkpoint.spec) {
            Ok(started) => started,
            Err(message) => return ServerCore::error(message),
        };
        let script = FaultScript::new(checkpoint.spec.faults.clone());
        match self
            .scheduler
            .restore(execution, script, &checkpoint.execution, &apply_faults)
        {
            Ok(session) => {
                self.specs.insert(session, checkpoint.spec);
                self.touch(session);
                self.telemetry.restores.inc();
                if trace::enabled() {
                    trace::instant("server", format!("restore:session-{session}"));
                }
                let view = self.scheduler.view(session).expect("just restored");
                Response::Restored {
                    session,
                    steps: view.steps,
                    rounds: view.rounds,
                }
            }
            Err(error) => ServerCore::error(format!("restore `{}`: {error}", checkpoint.spec.name)),
        }
    }

    fn list(&self) -> Response {
        let sessions = self
            .scheduler
            .ids()
            .into_iter()
            .map(|session| {
                let view = self.scheduler.view(session).expect("listed id exists");
                let spec = &self.specs[&session];
                SessionSummary {
                    session,
                    name: spec.name.clone(),
                    algorithm: spec.algorithm.name().to_string(),
                    rounds: view.rounds,
                    paused: view.paused,
                    done: view.done,
                }
            })
            .collect();
        Response::Sessions { sessions }
    }
}

impl Default for ServerCore {
    /// A sequential core with a 64-step slice budget.
    fn default() -> ServerCore {
        ServerCore::new(64, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_scenarios::GeneratorSpec;

    fn spec(name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name, GeneratorSpec::Annulus { outer: 4, inner: 2 })
    }

    fn handle(core: &mut ServerCore, request: Request) -> Vec<Response> {
        let mut out = Vec::new();
        core.handle(request, &mut out);
        assert!(out.last().is_some_and(Response::is_final));
        assert!(out[..out.len() - 1].iter().all(|r| !r.is_final()));
        out
    }

    fn submit(core: &mut ServerCore, name: &str) -> SessionId {
        match handle(core, Request::Submit { spec: spec(name) }).remove(0) {
            Response::Submitted { session, .. } => session,
            other => panic!("expected Submitted, got {other:?}"),
        }
    }

    #[test]
    fn submit_watch_run_produces_rounds_then_a_report() {
        let mut core = ServerCore::default();
        let session = submit(&mut core, "a");
        let watched = handle(&mut core, Request::Watch { session, rounds: 3 });
        assert_eq!(watched.len(), 4, "3 round lines + final status");
        assert!(watched[..3]
            .iter()
            .all(|r| matches!(r, Response::Round { .. })));
        let finished = handle(&mut core, Request::Run { session });
        match &finished[finished.len() - 1] {
            Response::Done { report, .. } => assert!(report.unique_leader()),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn checkpointed_sessions_restore_to_the_same_report() {
        let mut core = ServerCore::default();
        let session = submit(&mut core, "a");
        handle(&mut core, Request::Run { session });
        let reference = match handle(&mut core, Request::Run { session }).remove(0) {
            Response::Done { report, .. } => report,
            other => panic!("expected Done, got {other:?}"),
        };

        let mut core = ServerCore::default();
        let session = submit(&mut core, "a");
        handle(&mut core, Request::Watch { session, rounds: 4 });
        let checkpoint = match handle(&mut core, Request::Checkpoint { session }).remove(0) {
            Response::Checkpointed { checkpoint, .. } => checkpoint,
            other => panic!("expected Checkpointed, got {other:?}"),
        };

        // A brand-new core stands in for a fresh server process.
        let mut fresh = ServerCore::default();
        let restored = match handle(&mut fresh, Request::Restore { checkpoint }).remove(0) {
            Response::Restored { session, .. } => session,
            other => panic!("expected Restored, got {other:?}"),
        };
        match handle(&mut fresh, Request::Run { session: restored }).remove(0) {
            Response::Done { report, .. } => assert_eq!(report, reference),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn fault_processes_past_the_cursor_are_rejected() {
        use pm_faults::FaultKind;
        // A process whose first firing round the session already completed
        // is rejected, so every accepted process replays identically from a
        // checkpoint.
        let mut core = ServerCore::default();
        let session = submit(&mut core, "a");
        handle(&mut core, Request::Watch { session, rounds: 5 });
        let stale = FaultProcess::once(FaultKind::Removals, 2, 1);
        match handle(
            &mut core,
            Request::Fault {
                session,
                process: stale,
            },
        )
        .remove(0)
        {
            Response::Error { message } => assert!(message.contains("already completed")),
            other => panic!("expected Error, got {other:?}"),
        }
        let due = FaultProcess::periodic(FaultKind::Removals, 8, 2, 12, 1);
        match handle(
            &mut core,
            Request::Fault {
                session,
                process: due,
            },
        )
        .remove(0)
        {
            Response::Faulted { processes, .. } => assert_eq!(processes, 1),
            other => panic!("expected Faulted, got {other:?}"),
        }
        // The spec mirrors the injection, so checkpoints replay it.
        match handle(&mut core, Request::Checkpoint { session }).remove(0) {
            Response::Checkpointed { checkpoint, .. } => {
                assert_eq!(checkpoint.spec.faults.processes, vec![due]);
            }
            other => panic!("expected Checkpointed, got {other:?}"),
        }
    }

    #[test]
    fn faulted_sessions_checkpoint_and_restore_byte_identically() {
        use pm_faults::{FaultKind, FaultPlan};
        // Self-stabilising contender: the only algorithm that survives a
        // periodic removal process past the pipeline's early fault window
        // without a reset, so the run actually terminates.
        let faulted = |name: &str| {
            spec(name)
                .algorithm(pm_scenarios::AlgorithmSpec::SelfStabMax)
                .faults(FaultPlan::new(7).process(FaultProcess::periodic(
                    FaultKind::Removals,
                    1,
                    3,
                    10,
                    1,
                )))
        };
        let reference = {
            let mut core = ServerCore::default();
            let session = match handle(
                &mut core,
                Request::Submit {
                    spec: faulted("ref"),
                },
            )
            .remove(0)
            {
                Response::Submitted { session, .. } => session,
                other => panic!("expected Submitted, got {other:?}"),
            };
            match handle(&mut core, Request::Run { session }).remove(0) {
                Response::Done { report, .. } => report,
                other => panic!("expected Done, got {other:?}"),
            }
        };
        assert!(reference.unique_leader());

        // Checkpoint mid-run (inside the fault window) and finish in a
        // fresh core: the fault firings replay bit-identically.
        let mut core = ServerCore::default();
        let session = match handle(
            &mut core,
            Request::Submit {
                spec: faulted("ref"),
            },
        )
        .remove(0)
        {
            Response::Submitted { session, .. } => session,
            other => panic!("expected Submitted, got {other:?}"),
        };
        handle(&mut core, Request::Watch { session, rounds: 4 });
        let checkpoint = match handle(&mut core, Request::Checkpoint { session }).remove(0) {
            Response::Checkpointed { checkpoint, .. } => checkpoint,
            other => panic!("expected Checkpointed, got {other:?}"),
        };
        let mut fresh = ServerCore::default();
        let restored = match handle(&mut fresh, Request::Restore { checkpoint }).remove(0) {
            Response::Restored { session, .. } => session,
            other => panic!("expected Restored, got {other:?}"),
        };
        match handle(&mut fresh, Request::Run { session: restored }).remove(0) {
            Response::Done { report, .. } => assert_eq!(report, reference),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn fault_plans_on_closed_form_algorithms_are_rejected_at_submit() {
        use pm_faults::{FaultKind, FaultPlan};
        let mut core = ServerCore::default();
        let bad = spec("bad")
            .algorithm(pm_scenarios::AlgorithmSpec::QuadraticBoundary)
            .faults(FaultPlan::new(1).process(FaultProcess::once(FaultKind::Removals, 1, 1)));
        match handle(&mut core, Request::Submit { spec: bad }).remove(0) {
            Response::Error { message } => {
                assert!(message.contains("fault plan"), "{message}");
                assert!(message.contains("no round-driven phase"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn lifecycle_verbs_cover_unknown_sessions() {
        let mut core = ServerCore::default();
        for request in [
            Request::Status { session: 9 },
            Request::Watch {
                session: 9,
                rounds: 1,
            },
            Request::Run { session: 9 },
            Request::Pause { session: 9 },
            Request::Resume { session: 9 },
            Request::Cancel { session: 9 },
            Request::Checkpoint { session: 9 },
        ] {
            match handle(&mut core, request).remove(0) {
                Response::Error { message } => assert!(message.contains("no session 9")),
                other => panic!("expected Error, got {other:?}"),
            }
        }
    }

    #[test]
    fn session_budget_rejects_with_retryable_busy() {
        let mut core = ServerCore::default();
        core.set_limits(ServerLimits {
            max_sessions: Some(1),
            idle_ttl: None,
        });
        let first = submit(&mut core, "a");
        match handle(&mut core, Request::Submit { spec: spec("b") }).remove(0) {
            Response::Busy { message } => assert!(message.contains("retry")),
            other => panic!("expected Busy, got {other:?}"),
        }
        // Freeing a slot makes the identical request succeed: the
        // rejection was retryable, not an error.
        handle(&mut core, Request::Cancel { session: first });
        submit(&mut core, "b");
    }

    #[test]
    fn idle_sessions_are_evicted_by_housekeeping() {
        let mut core = ServerCore::default();
        core.set_limits(ServerLimits {
            max_sessions: None,
            idle_ttl: Some(Duration::ZERO),
        });
        submit(&mut core, "a");
        submit(&mut core, "b");
        let (evicted, written) = core.housekeeping();
        assert_eq!((evicted, written), (2, 0));
        assert_eq!(core.sessions(), 0);
        match handle(&mut core, Request::Stats).remove(0) {
            Response::Stats { stats } => assert_eq!(stats.evictions, 2),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_partitions_sessions_and_counts_sweeps() {
        let mut core = ServerCore::default();
        let a = submit(&mut core, "a");
        let b = submit(&mut core, "b");
        handle(&mut core, Request::Pause { session: b });
        handle(&mut core, Request::Run { session: a });
        match handle(&mut core, Request::Stats).remove(0) {
            Response::Stats { stats } => {
                assert_eq!(
                    (stats.sessions, stats.running, stats.paused, stats.done),
                    (2, 0, 1, 1)
                );
                assert!(stats.sweeps > 0, "run pumped at least one sweep");
                assert_eq!(stats.checkpoints_written, 0, "no persistence attached");
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pm-server-core-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn autosaved_sessions_recover_byte_identically_in_a_fresh_core() {
        let reference = {
            let mut core = ServerCore::default();
            let session = submit(&mut core, "a");
            match handle(&mut core, Request::Run { session }).remove(0) {
                Response::Done { report, .. } => report,
                other => panic!("expected Done, got {other:?}"),
            }
        };

        let dir = temp_dir("recover");
        let mut crashed = ServerCore::default();
        assert_eq!(crashed.attach_persistence(&dir).unwrap(), (0, 0));
        let session = submit(&mut crashed, "a");
        handle(&mut crashed, Request::Watch { session, rounds: 4 });
        let (_, written) = crashed.housekeeping();
        assert_eq!(written, 1, "the advanced session was autosaved");
        let (_, rewritten) = crashed.housekeeping();
        assert_eq!(rewritten, 0, "unchanged sessions are not rewritten");
        drop(crashed); // SIGKILL stand-in: no shutdown, no final sweep.

        // A torn file next to the good one must be rejected, not fatal.
        std::fs::write(dir.join("session-7.json"), b"{\"Sub").unwrap();
        let mut fresh = ServerCore::default();
        let (restored, rejected) = fresh.attach_persistence(&dir).unwrap();
        assert_eq!((restored, rejected), (1, 1));
        let restored_id = match handle(&mut fresh, Request::Sessions).remove(0) {
            Response::Sessions { sessions } => {
                assert_eq!(sessions.len(), 1);
                assert_eq!(sessions[0].rounds, 4, "recovery lands on the saved cursor");
                sessions[0].session
            }
            other => panic!("expected Sessions, got {other:?}"),
        };
        match handle(
            &mut fresh,
            Request::Run {
                session: restored_id,
            },
        )
        .remove(0)
        {
            Response::Done { report, .. } => assert_eq!(report, reference),
            other => panic!("expected Done, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn autosaved_checkpoints_stay_small_whatever_the_shape() {
        // A checkpoint is replay instructions: spec, cursor and counters.
        // When checkpoints also carried the native state, this session's
        // file was 1 986 237 bytes.
        let dir = temp_dir("small");
        let mut core = ServerCore::default();
        core.attach_persistence(&dir).unwrap();
        let spec = ScenarioSpec::new("big", GeneratorSpec::Hexagon { radius: 57 });
        let session = match handle(&mut core, Request::Submit { spec }).remove(0) {
            Response::Submitted { session, .. } => session,
            other => panic!("expected Submitted, got {other:?}"),
        };
        handle(&mut core, Request::Watch { session, rounds: 1 });
        assert_eq!(core.housekeeping(), (0, 1));
        let status = core.scheduler.status(session).unwrap();
        assert_eq!(status.phase, Some(pm_core::api::phase::DLE));
        let bytes = std::fs::metadata(dir.join(format!("session-{session}.json")))
            .unwrap()
            .len();
        assert!(bytes <= 1024, "the checkpoint file holds {bytes} bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_counters_equal_their_registry_series() {
        // Startup recovery restores one session and rewrites its file; a
        // fresh session runs; housekeeping then evicts both.
        let dir = temp_dir("counters");
        let mut crashed = ServerCore::default();
        crashed.attach_persistence(&dir).unwrap();
        let session = submit(&mut crashed, "a");
        handle(&mut crashed, Request::Watch { session, rounds: 2 });
        crashed.housekeeping();
        drop(crashed);

        let mut core = ServerCore::default();
        assert_eq!(core.attach_persistence(&dir).unwrap(), (1, 0));
        let session = submit(&mut core, "b");
        handle(&mut core, Request::Run { session });
        core.set_limits(ServerLimits {
            max_sessions: None,
            idle_ttl: Some(Duration::ZERO),
        });
        assert_eq!(core.housekeeping(), (2, 0));

        let stats = match handle(&mut core, Request::Stats).remove(0) {
            Response::Stats { stats } => stats,
            other => panic!("expected Stats, got {other:?}"),
        };
        let metrics = core.metrics_snapshot();
        let counter = |name: &str| {
            metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("missing counter `{name}`"))
                .value
        };
        let sweeps = metrics
            .histograms
            .iter()
            .find(|h| h.name == "pm_server_sweep_duration_us")
            .expect("sweep duration series")
            .count;
        assert_eq!(stats.sweeps, sweeps);
        assert_eq!(
            stats.checkpoints_written,
            counter("pm_server_checkpoints_written_total")
        );
        assert_eq!(stats.evictions, counter("pm_server_evictions_total"));
        assert_eq!(stats.restores, counter("pm_server_restores_total"));
        assert!(stats.sweeps > 0, "run pumped at least one sweep");
        assert_eq!(
            (stats.checkpoints_written, stats.evictions, stats.restores),
            (1, 2, 1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancel_removes_the_checkpoint_file() {
        let dir = temp_dir("cancel");
        let mut core = ServerCore::default();
        core.attach_persistence(&dir).unwrap();
        let session = submit(&mut core, "a");
        handle(&mut core, Request::Watch { session, rounds: 2 });
        core.housekeeping();
        assert!(dir.join(format!("session-{session}.json")).exists());
        handle(&mut core, Request::Cancel { session });
        assert!(
            !dir.join(format!("session-{session}.json")).exists(),
            "cancelled sessions must not resurrect on restart"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessions_listing_tracks_lifecycle() {
        let mut core = ServerCore::default();
        let a = submit(&mut core, "a");
        let b = submit(&mut core, "b");
        handle(&mut core, Request::Pause { session: a });
        handle(&mut core, Request::Run { session: b });
        match handle(&mut core, Request::Sessions).remove(0) {
            Response::Sessions { sessions } => {
                assert_eq!(sessions.len(), 2);
                assert!(sessions[0].paused && !sessions[0].done);
                assert!(!sessions[1].paused && sessions[1].done);
            }
            other => panic!("expected Sessions, got {other:?}"),
        }
        handle(&mut core, Request::Cancel { session: a });
        assert_eq!(core.sessions(), 1);
    }
}
