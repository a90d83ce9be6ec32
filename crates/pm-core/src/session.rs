//! Multi-tenant session scheduling over owned [`Execution`] handles — the
//! workspace's one engine for driving executions.
//!
//! A long-lived server keeps thousands of elections *live at once*, and
//! progress must be fair: a giant workload must not starve the small ones,
//! and any session must be pausable, inspectable and cancellable between
//! rounds. Experiment sweeps (scenario suites, the Table 1 grid) are the
//! same engine with every session's goal set to [`Goal::Complete`]: admit
//! the runs, `while scheduler.sweep(hook) > 0 {}`, read the outcomes back
//! by session id.
//!
//! [`SessionScheduler`] holds owned executions
//! ([`crate::api::LeaderElection::start_owned`]) and advances them
//! cooperatively: each
//! [`SessionScheduler::sweep`] gives every *runnable* session at most
//! `slice_steps` calls to [`Execution::step_round`], in session-id order
//! (optionally sharded across threads — sessions are independent, so the
//! thread count never changes any session's observable behaviour). What
//! "runnable" means is per-session policy ([`Goal`]): parked, run until a
//! round target, or run to completion.
//!
//! # Checkpoints
//!
//! [`ExecutionCheckpoint`] snapshots a session as *replay instructions*:
//! the checkpoint pins the step cursor plus the status counters, and
//! [`SessionScheduler::restore`] rebuilds the session by replaying exactly
//! `steps` steps on a freshly started execution — every run in this
//! workspace is deterministic given its inputs, which is what makes
//! replay-based snapshots byte-exact. The counters are *validation*, not
//! state: after replay the restored status must reproduce them, or the
//! restore is rejected as diverged (e.g. a checkpoint presented against a
//! different corpus or code version).
//!
//! A restore therefore costs what the session has run so far: its own
//! steps, replayed on the caller's thread (the server's core lock), at
//! most one whole election of the spec, since replay stops at the
//! session's outcome. A checkpoint stays a few hundred bytes however
//! large the shape.

use crate::api::{ElectionError, Execution, ExecutionStatus, RunReport, StepOutcome};
use pm_telemetry::trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one live session within a [`SessionScheduler`]. Ids are
/// assigned sequentially from 1 and never reused, so a scripted request
/// sequence always observes the same ids.
pub type SessionId = u64;

/// How far the scheduler should advance a session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Goal {
    /// Parked: admitted but not advanced (the state of freshly submitted
    /// sessions, and of sessions whose watch window has been served).
    #[default]
    Hold,
    /// Advance until the session has completed the given *cumulative* number
    /// of round-driven rounds (a `watch` window), then hold.
    Rounds(u64),
    /// Advance until the session produces its final report or an error.
    Complete,
}

/// A read-only snapshot of a session's bookkeeping (not the election state
/// itself — that is [`SessionScheduler::status`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionView {
    /// Step cursor: how many [`Execution::step_round`] calls the session has
    /// executed (the replay count a checkpoint records).
    pub steps: u64,
    /// Completed rounds of the round-driven phase, cumulative.
    pub rounds: u64,
    /// The session's current goal.
    pub goal: Goal,
    /// Whether the session is paused (overrides the goal).
    pub paused: bool,
    /// Whether the session has an outcome (final report or error).
    pub done: bool,
}

/// A serializable snapshot of one session: replay cursor + validation
/// counters. Produced by [`SessionScheduler::checkpoint`], consumed by
/// [`SessionScheduler::restore`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecutionCheckpoint {
    /// The algorithm's [`LeaderElection::name`]
    /// (validation: a checkpoint only restores onto the same algorithm).
    ///
    /// [`LeaderElection::name`]: crate::api::LeaderElection::name
    pub algorithm: String,
    /// How many steps to replay on a freshly started execution.
    pub steps: u64,
    /// Validation: cumulative round-driven rounds at capture time.
    pub rounds: u64,
    /// Validation: [`ExecutionStatus::total_rounds`] at capture time.
    pub total_rounds: u64,
    /// Validation: [`ExecutionStatus::rounds_in_phase`] at capture time.
    pub rounds_in_phase: u64,
    /// Validation: the active phase at capture time.
    pub phase: Option<String>,
    /// Validation: decided particles at capture time.
    pub decided: usize,
    /// Validation: undecided particles at capture time.
    pub undecided: usize,
    /// Validation: whether the run had finished at capture time.
    pub finished: bool,
}

impl ExecutionCheckpoint {
    fn capture(steps: u64, rounds: u64, status: &ExecutionStatus) -> ExecutionCheckpoint {
        ExecutionCheckpoint {
            algorithm: status.algorithm.to_string(),
            steps,
            rounds,
            total_rounds: status.total_rounds,
            rounds_in_phase: status.rounds_in_phase,
            phase: status.phase.map(str::to_string),
            decided: status.decided,
            undecided: status.undecided,
            finished: status.finished,
        }
    }
}

/// Why a [`SessionScheduler::restore`] was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum RestoreError {
    /// The checkpoint names a different algorithm than the execution it was
    /// presented with.
    AlgorithmMismatch {
        /// The algorithm the checkpoint was captured from.
        expected: String,
        /// The algorithm of the execution offered for restore.
        actual: String,
    },
    /// Replaying `steps` steps did not reproduce the checkpoint's counters:
    /// the offered execution is not the run the checkpoint came from.
    Diverged {
        /// The counters the checkpoint recorded.
        expected: Box<ExecutionCheckpoint>,
        /// The counters the replay actually produced.
        actual: Box<ExecutionCheckpoint>,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::AlgorithmMismatch { expected, actual } => {
                write!(f, "checkpoint is for `{expected}`, not `{actual}`")
            }
            RestoreError::Diverged { expected, actual } => write!(
                f,
                "replay diverged from checkpoint (expected {expected:?}, got {actual:?})"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// One live session: the owned execution plus scheduling bookkeeping and a
/// caller-defined payload (the server and the scenario runner store each
/// session's fault script here, so threaded sweeps carry the per-session
/// fault hook with the slot they own).
struct Slot<P> {
    execution: Execution<'static>,
    payload: P,
    goal: Goal,
    paused: bool,
    steps: u64,
    rounds: u64,
    recording: bool,
    recorded: Vec<ExecutionStatus>,
    outcome: Option<Result<RunReport, ElectionError>>,
}

impl<P> Slot<P> {
    fn runnable(&self) -> bool {
        !self.paused
            && self.outcome.is_none()
            && match self.goal {
                Goal::Hold => false,
                Goal::Rounds(target) => self.rounds < target,
                Goal::Complete => true,
            }
    }

    /// Executes one step: fires the caller's hook (fault injection), pumps
    /// the execution, and updates the cursor, round tally, recording buffer
    /// and outcome. The single code path behind sweeps *and* checkpoint
    /// replay — both observe byte-identical behaviour by construction.
    fn step(&mut self, hook: &(dyn Fn(&mut P, &mut Execution<'static>) + Sync)) {
        hook(&mut self.payload, &mut self.execution);
        let outcome = self.execution.step_round();
        self.steps += 1;
        match outcome {
            Ok(StepOutcome::RoundCompleted { .. }) => {
                self.rounds += 1;
                if self.recording {
                    self.recorded.push(self.execution.status());
                }
            }
            Ok(StepOutcome::Finished(report)) => {
                if self.outcome.is_none() {
                    self.outcome = Some(Ok(report));
                }
            }
            Ok(_) => {}
            Err(e) => {
                if self.outcome.is_none() {
                    self.outcome = Some(Err(e));
                }
            }
        }
    }

    /// Gives the slot at most `slice` steps; returns how many it took.
    fn advance(
        &mut self,
        slice: u64,
        hook: &(dyn Fn(&mut P, &mut Execution<'static>) + Sync),
    ) -> u64 {
        let mut taken = 0;
        while taken < slice && self.runnable() {
            self.step(hook);
            taken += 1;
        }
        taken
    }
}

/// A cooperative, fair, multi-tenant scheduler over owned executions; see
/// the [module docs](self) for the model.
///
/// The payload type `P` is per-session state swept along with the execution
/// (the server and the scenario runner keep each session's fault script
/// there); use `()` when no per-session hook state is needed.
pub struct SessionScheduler<P = ()> {
    slots: BTreeMap<SessionId, Slot<P>>,
    next_id: SessionId,
    slice_steps: u64,
    threads: usize,
}

/// The hook type sweeps thread through to every step: called with the
/// session's payload and execution *before* each [`Execution::step_round`],
/// exactly like a fault script's caller-side loop.
pub type StepHook<'h, P> = &'h (dyn Fn(&mut P, &mut Execution<'static>) + Sync);

/// The no-op hook for sessions without fault injection.
pub fn no_hook<P>(_: &mut P, _: &mut Execution<'static>) {}

/// The trace span for one session's sweep slice, `None` (and
/// allocation-free) while no recorder is active. Sharded sweeps open these
/// on their worker threads, so each slice nests under whatever that thread
/// has open — the round spans an execution records during the slice nest
/// under it in turn.
fn slice_span(id: SessionId) -> Option<trace::SpanGuard> {
    trace::enabled().then(|| trace::span("scheduler", format!("session:{id}")))
}

impl<P: Send> SessionScheduler<P> {
    /// A sequential scheduler giving each runnable session at most
    /// `slice_steps` steps per sweep.
    pub fn new(slice_steps: u64) -> SessionScheduler<P> {
        SessionScheduler::with_threads(slice_steps, 1)
    }

    /// Like [`SessionScheduler::new`], sharding each sweep across up to
    /// `threads` worker threads. Sessions are independent, so results are
    /// bit-identical to the sequential scheduler's.
    pub fn with_threads(slice_steps: u64, threads: usize) -> SessionScheduler<P> {
        SessionScheduler {
            slots: BTreeMap::new(),
            next_id: 1,
            slice_steps: slice_steps.max(1),
            threads: threads.max(1),
        }
    }

    /// Number of live sessions (any goal, paused or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The live session ids, ascending.
    pub fn ids(&self) -> Vec<SessionId> {
        self.slots.keys().copied().collect()
    }

    /// Admits an owned execution as a new parked session ([`Goal::Hold`])
    /// and returns its id.
    pub fn admit(&mut self, execution: Execution<'static>, payload: P) -> SessionId {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.insert(
            id,
            Slot {
                execution,
                payload,
                goal: Goal::Hold,
                paused: false,
                steps: 0,
                rounds: 0,
                recording: false,
                recorded: Vec::new(),
                outcome: None,
            },
        );
        id
    }

    /// Removes a session (cancellation), returning its payload.
    pub fn remove(&mut self, id: SessionId) -> Option<P> {
        self.slots.remove(&id).map(|slot| slot.payload)
    }

    /// The session's bookkeeping snapshot.
    pub fn view(&self, id: SessionId) -> Option<SessionView> {
        self.slots.get(&id).map(|slot| SessionView {
            steps: slot.steps,
            rounds: slot.rounds,
            goal: slot.goal,
            paused: slot.paused,
            done: slot.outcome.is_some(),
        })
    }

    /// The session's election status snapshot.
    pub fn status(&self, id: SessionId) -> Option<ExecutionStatus> {
        self.slots.get(&id).map(|slot| slot.execution.status())
    }

    /// The session's final outcome, once produced.
    pub fn outcome(&self, id: SessionId) -> Option<&Result<RunReport, ElectionError>> {
        self.slots.get(&id).and_then(|slot| slot.outcome.as_ref())
    }

    /// Shared access to the session's payload.
    pub fn payload(&self, id: SessionId) -> Option<&P> {
        self.slots.get(&id).map(|slot| &slot.payload)
    }

    /// Mutable access to the session's payload (the server appends
    /// injected fault processes to the stored script through this).
    pub fn payload_mut(&mut self, id: SessionId) -> Option<&mut P> {
        self.slots.get_mut(&id).map(|slot| &mut slot.payload)
    }

    /// Sets the session's goal; `true` if the session exists.
    pub fn set_goal(&mut self, id: SessionId, goal: Goal) -> bool {
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.goal = goal;
                true
            }
            None => false,
        }
    }

    /// Pauses the session (overrides its goal); `true` if it exists.
    pub fn pause(&mut self, id: SessionId) -> bool {
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.paused = true;
                true
            }
            None => false,
        }
    }

    /// Clears the session's pause flag; `true` if it exists.
    pub fn resume(&mut self, id: SessionId) -> bool {
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.paused = false;
                true
            }
            None => false,
        }
    }

    /// Whether a sweep would advance this session right now.
    pub fn runnable(&self, id: SessionId) -> bool {
        self.slots.get(&id).is_some_and(Slot::runnable)
    }

    /// Turns per-round status recording on or off; `true` if the session
    /// exists. While on, every completed round appends an
    /// [`ExecutionStatus`] to the session's buffer (drained by
    /// [`SessionScheduler::drain_recorded`]) — the `watch` stream.
    pub fn set_recording(&mut self, id: SessionId, on: bool) -> bool {
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.recording = on;
                true
            }
            None => false,
        }
    }

    /// Takes the statuses recorded since the last drain.
    pub fn drain_recorded(&mut self, id: SessionId) -> Vec<ExecutionStatus> {
        self.slots
            .get_mut(&id)
            .map(|slot| std::mem::take(&mut slot.recorded))
            .unwrap_or_default()
    }

    /// One fair pass: every runnable session gets at most `slice_steps`
    /// steps, in session-id order, with `hook` fired before each step.
    /// Returns the total steps executed (0 = nothing runnable; pump loops
    /// use this as their progress signal).
    pub fn sweep(&mut self, hook: StepHook<'_, P>) -> u64 {
        // Tracing is out-of-band: the sweep span and the per-session slice
        // spans below time the sweep without influencing it, and with no
        // recorder installed each gate is one relaxed atomic load.
        let _sweep = trace::span("scheduler", "sweep");
        let slice = self.slice_steps;
        let mut runnable: Vec<(SessionId, &mut Slot<P>)> = self
            .slots
            .iter_mut()
            .filter(|(_, slot)| slot.runnable())
            .map(|(id, slot)| (*id, slot))
            .collect();
        let workers = self.threads.min(runnable.len());
        if workers <= 1 {
            runnable
                .iter_mut()
                .map(|(id, slot)| {
                    let _slice = slice_span(*id);
                    slot.advance(slice, hook)
                })
                .sum()
        } else {
            // Contiguous shards: any partition yields identical results
            // because sessions never interact — the shard boundary is pure
            // wall-clock.
            let shard = runnable.len().div_ceil(workers);
            std::thread::scope(|scope| {
                runnable
                    .chunks_mut(shard)
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk
                                .iter_mut()
                                .map(|(id, slot)| {
                                    let _slice = slice_span(*id);
                                    slot.advance(slice, hook)
                                })
                                .sum::<u64>()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|handle| handle.join().expect("sweep workers do not panic"))
                    .sum()
            })
        }
    }

    /// Sweeps until the given session stops being runnable (goal reached,
    /// outcome produced, paused or removed), advancing every *other*
    /// runnable session fairly along the way. Returns total steps executed.
    pub fn drive(&mut self, id: SessionId, hook: StepHook<'_, P>) -> u64 {
        let mut total = 0;
        while self.runnable(id) {
            total += self.sweep(hook);
        }
        total
    }

    /// Snapshots a session for [`SessionScheduler::restore`].
    pub fn checkpoint(&self, id: SessionId) -> Option<ExecutionCheckpoint> {
        self.slots.get(&id).map(|slot| {
            ExecutionCheckpoint::capture(slot.steps, slot.rounds, &slot.execution.status())
        })
    }

    /// Restores a checkpoint onto a freshly started execution: admits it as
    /// a parked session, replays up to `checkpoint.steps` steps (with
    /// `hook` fired before each, exactly as live sweeps do; no step follows
    /// the execution's outcome), and validates
    /// that the replayed counters reproduce the checkpoint's. On validation
    /// failure the session is removed again and an error is returned.
    ///
    /// # Errors
    ///
    /// [`RestoreError::AlgorithmMismatch`] before any replay;
    /// [`RestoreError::Diverged`] when the replayed execution does not
    /// reproduce the checkpoint's counters, among them a checkpoint whose
    /// step count runs past the execution's outcome.
    pub fn restore(
        &mut self,
        execution: Execution<'static>,
        payload: P,
        checkpoint: &ExecutionCheckpoint,
        hook: StepHook<'_, P>,
    ) -> Result<SessionId, RestoreError> {
        if execution.status().algorithm != checkpoint.algorithm {
            return Err(RestoreError::AlgorithmMismatch {
                expected: checkpoint.algorithm.clone(),
                actual: execution.status().algorithm.to_string(),
            });
        }
        let id = self.admit(execution, payload);
        let slot = self.slots.get_mut(&id).expect("just admitted");
        // Replay ignores goals and pausing: the cursor, not policy, decides
        // how far to go. It stops at the outcome, since live sweeps never
        // step a slot past it: a checkpoint claiming more steps was not
        // taken from a run, and the counter check below rejects it without
        // replaying the surplus under the caller's lock.
        while slot.steps < checkpoint.steps && slot.outcome.is_none() {
            slot.step(hook);
        }
        let replayed =
            ExecutionCheckpoint::capture(slot.steps, slot.rounds, &slot.execution.status());
        if replayed != *checkpoint {
            self.slots.remove(&id);
            return Err(RestoreError::Diverged {
                expected: Box::new(checkpoint.clone()),
                actual: Box::new(replayed),
            });
        }
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{LeaderElection, PaperPipeline, RunOptions};
    use pm_amoebot::scheduler::SchedulerSpec;
    use pm_grid::builder::{annulus, hexagon};

    fn start(seed: u64) -> Execution<'static> {
        PaperPipeline
            .start_owned(
                &annulus(4, 2),
                SchedulerSpec::SeededRandom(seed).build(),
                &RunOptions::default(),
            )
            .expect("valid configuration")
    }

    fn reference_report(seed: u64) -> RunReport {
        PaperPipeline
            .elect(
                &annulus(4, 2),
                &mut *SchedulerSpec::SeededRandom(seed).build(),
                &RunOptions::default(),
            )
            .expect("terminates")
    }

    #[test]
    fn sessions_complete_and_match_eager_elect() {
        let mut scheduler: SessionScheduler = SessionScheduler::new(8);
        let a = scheduler.admit(start(1), ());
        let b = scheduler.admit(start(2), ());
        scheduler.set_goal(a, Goal::Complete);
        scheduler.set_goal(b, Goal::Complete);
        while scheduler.sweep(&no_hook) > 0 {}
        for (id, seed) in [(a, 1), (b, 2)] {
            let report = scheduler.outcome(id).expect("done").as_ref().expect("ok");
            assert_eq!(report, &reference_report(seed));
        }
    }

    #[test]
    fn sweeps_are_fair_and_bounded() {
        let mut scheduler: SessionScheduler = SessionScheduler::new(4);
        let a = scheduler.admit(start(1), ());
        let b = scheduler.admit(start(2), ());
        scheduler.set_goal(a, Goal::Complete);
        scheduler.set_goal(b, Goal::Complete);
        let steps = scheduler.sweep(&no_hook);
        assert_eq!(steps, 8, "both sessions got exactly their slice");
        let (va, vb) = (
            scheduler.view(a).unwrap().steps,
            scheduler.view(b).unwrap().steps,
        );
        assert_eq!((va, vb), (4, 4));
    }

    #[test]
    fn threaded_sweeps_equal_sequential_sweeps() {
        let run = |threads: usize| -> Vec<RunReport> {
            let mut scheduler: SessionScheduler = SessionScheduler::with_threads(16, threads);
            let ids: Vec<SessionId> = (0..6).map(|s| scheduler.admit(start(s), ())).collect();
            for &id in &ids {
                scheduler.set_goal(id, Goal::Complete);
            }
            while scheduler.sweep(&no_hook) > 0 {}
            ids.iter()
                .map(|&id| {
                    scheduler
                        .outcome(id)
                        .expect("done")
                        .as_ref()
                        .expect("ok")
                        .clone()
                })
                .collect()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(8));
    }

    #[test]
    fn round_goals_stop_exactly_and_record_statuses() {
        let mut scheduler: SessionScheduler = SessionScheduler::new(3);
        let id = scheduler.admit(start(7), ());
        scheduler.set_recording(id, true);
        scheduler.set_goal(id, Goal::Rounds(5));
        scheduler.drive(id, &no_hook);
        let view = scheduler.view(id).unwrap();
        assert_eq!(view.rounds, 5);
        assert!(!view.done);
        let recorded = scheduler.drain_recorded(id);
        assert_eq!(recorded.len(), 5);
        assert!(recorded.iter().all(|s| s.phase.is_some()));
        assert!(scheduler.drain_recorded(id).is_empty(), "drained");
        // Extending the window resumes from where the session stopped.
        scheduler.set_goal(id, Goal::Rounds(7));
        scheduler.drive(id, &no_hook);
        assert_eq!(scheduler.drain_recorded(id).len(), 2);
    }

    #[test]
    fn pause_overrides_goal_and_resume_continues() {
        let mut scheduler: SessionScheduler = SessionScheduler::new(4);
        let id = scheduler.admit(start(3), ());
        scheduler.set_goal(id, Goal::Complete);
        scheduler.pause(id);
        assert!(!scheduler.runnable(id));
        assert_eq!(scheduler.sweep(&no_hook), 0);
        scheduler.resume(id);
        scheduler.drive(id, &no_hook);
        let report = scheduler.outcome(id).expect("done").as_ref().expect("ok");
        assert_eq!(report, &reference_report(3));
    }

    #[test]
    fn checkpoint_restore_is_byte_identical_to_uninterrupted_stepping() {
        // The differential pin: run to round r, checkpoint, restore onto a
        // fresh execution in a fresh scheduler, finish — the final report
        // must equal the uninterrupted run's, byte for byte.
        let reference = reference_report(7);
        for target in [1, 6] {
            let mut live: SessionScheduler = SessionScheduler::new(5);
            let id = live.admit(start(7), ());
            live.set_goal(id, Goal::Rounds(target));
            live.drive(id, &no_hook);
            let checkpoint = live.checkpoint(id).expect("session exists");
            assert_eq!(checkpoint.rounds, target);
            assert!(!checkpoint.finished);

            let mut restored: SessionScheduler = SessionScheduler::new(5);
            let id = restored
                .restore(start(7), (), &checkpoint, &no_hook)
                .expect("replay validates");
            assert_eq!(restored.view(id).unwrap().steps, checkpoint.steps);
            restored.set_goal(id, Goal::Complete);
            restored.drive(id, &no_hook);
            let report = restored.outcome(id).expect("done").as_ref().expect("ok");
            assert_eq!(report, &reference);
            let bytes = serde_json::to_string(report).unwrap();
            assert_eq!(bytes, serde_json::to_string(&reference).unwrap());
        }
    }

    #[test]
    fn corrupt_baselines_fall_back_to_full_replay() {
        let mut live: SessionScheduler = SessionScheduler::new(5);
        let id = live.admit(start(7), ());
        live.set_goal(id, Goal::Rounds(4));
        live.drive(id, &no_hook);
        let checkpoint = live.checkpoint(id).unwrap();
        // Checkpoints once carried a `baseline` key. One holding garbage
        // still parses (unknown keys are ignored), and restore replays from
        // step zero and validates.
        let json = serde_json::to_string(&checkpoint).unwrap();
        let with_baseline = format!(
            "{},\"baseline\":{{\"steps\":3,\"rounds\":1,\"state\":\"garbage\"}}}}",
            json.strip_suffix('}').unwrap()
        );
        let parsed: ExecutionCheckpoint = serde_json::from_str(&with_baseline).unwrap();
        assert_eq!(parsed, checkpoint);
        let mut fresh: SessionScheduler = SessionScheduler::new(5);
        let id = fresh
            .restore(start(7), (), &parsed, &no_hook)
            .expect("replay validates");
        assert_eq!(fresh.view(id).unwrap().steps, checkpoint.steps);
        assert_eq!(fresh.checkpoint(id).unwrap(), checkpoint);
    }

    #[test]
    fn restore_rejects_wrong_algorithm_and_diverged_replays() {
        let mut live: SessionScheduler = SessionScheduler::new(5);
        let id = live.admit(start(7), ());
        live.set_goal(id, Goal::Rounds(4));
        live.drive(id, &no_hook);
        let mut checkpoint = live.checkpoint(id).unwrap();

        let mut fresh: SessionScheduler = SessionScheduler::new(5);
        checkpoint.algorithm = "erosion-le".to_string();
        assert!(matches!(
            fresh.restore(start(7), (), &checkpoint, &no_hook),
            Err(RestoreError::AlgorithmMismatch { .. })
        ));
        checkpoint.algorithm = "dle+collect".to_string();
        checkpoint.decided += 1;
        assert!(matches!(
            fresh.restore(start(7), (), &checkpoint, &no_hook),
            Err(RestoreError::Diverged { .. })
        ));
        assert!(fresh.is_empty(), "rejected restores leave no session");
    }

    #[test]
    fn checkpoints_of_finished_sessions_restore_their_outcome() {
        let mut live: SessionScheduler = SessionScheduler::new(64);
        let id = live.admit(start(5), ());
        live.set_goal(id, Goal::Complete);
        live.drive(id, &no_hook);
        let checkpoint = live.checkpoint(id).unwrap();
        assert!(checkpoint.finished);

        let mut fresh: SessionScheduler = SessionScheduler::new(64);
        let id = fresh
            .restore(start(5), (), &checkpoint, &no_hook)
            .expect("replay validates");
        let report = fresh.outcome(id).expect("done").as_ref().expect("ok");
        assert_eq!(report, &reference_report(5));
    }

    #[test]
    fn checkpoints_claiming_steps_past_the_outcome_are_rejected_without_replaying_them() {
        let start = || {
            PaperPipeline
                .start_owned(
                    &hexagon(2),
                    SchedulerSpec::SeededRandom(1).build(),
                    &RunOptions::default(),
                )
                .unwrap()
        };
        let mut live: SessionScheduler = SessionScheduler::new(64);
        let id = live.admit(start(), ());
        live.set_goal(id, Goal::Complete);
        live.drive(id, &no_hook);
        let mut checkpoint = live.checkpoint(id).unwrap();
        assert!(checkpoint.finished);
        assert_eq!(checkpoint.steps, 11);
        // Before replay stopped at the outcome, each surplus step re-returned
        // `Finished` (about 0.18 s per 10⁶ in release) and was accepted.
        checkpoint.steps += 1_000_000;
        let mut fresh: SessionScheduler = SessionScheduler::new(64);
        let started = std::time::Instant::now();
        let restored = fresh.restore(start(), (), &checkpoint, &no_hook);
        let elapsed = started.elapsed();
        match restored {
            Err(RestoreError::Diverged { actual, .. }) => assert_eq!(actual.steps, 11),
            other => panic!("expected a divergence, got {other:?}"),
        }
        assert!(fresh.is_empty(), "the rejected session is removed again");
        assert!(
            elapsed < std::time::Duration::from_millis(10),
            "restore took {elapsed:?}"
        );
    }

    #[test]
    fn hooks_fire_before_every_step_and_replay_identically() {
        // A fault hook that removes one particle before round 2, live and
        // under replay: the restored run must reproduce the perturbed run.
        fn faulting_hook(fired: &mut bool, execution: &mut Execution<'static>) {
            if !*fired && execution.next_round().map(|(_, r)| r) == Some(2) {
                *fired = true;
                let mut system = execution.system().expect("round-driven phase");
                let victim = system.particle_positions()[0];
                system.remove_at(victim);
                system.reinitialize();
            }
        }
        let perturbed = |target: Goal| -> SessionScheduler<bool> {
            let mut scheduler: SessionScheduler<bool> = SessionScheduler::new(4);
            let shape = hexagon(4);
            let execution = PaperPipeline
                .start_owned(
                    &shape,
                    SchedulerSpec::SeededRandom(3).build(),
                    &RunOptions::default(),
                )
                .unwrap();
            let id = scheduler.admit(execution, false);
            scheduler.set_goal(id, target);
            scheduler.drive(id, &faulting_hook);
            scheduler
        };
        let full = perturbed(Goal::Complete);
        let reference = full.outcome(1).expect("done").as_ref().expect("ok").clone();
        assert_eq!(reference.final_positions.len(), hexagon(4).len() - 1);

        let live = perturbed(Goal::Rounds(5));
        assert!(*live.payload(1).unwrap(), "hook fired before round 5");
        let checkpoint = live.checkpoint(1).unwrap();
        let mut fresh: SessionScheduler<bool> = SessionScheduler::new(4);
        let execution = PaperPipeline
            .start_owned(
                &hexagon(4),
                SchedulerSpec::SeededRandom(3).build(),
                &RunOptions::default(),
            )
            .unwrap();
        let id = fresh
            .restore(execution, false, &checkpoint, &faulting_hook)
            .expect("replay validates");
        fresh.set_goal(id, Goal::Complete);
        fresh.drive(id, &faulting_hook);
        let report = fresh.outcome(id).expect("done").as_ref().expect("ok");
        assert_eq!(report, &reference);
    }

    #[test]
    fn removed_sessions_stop_existing() {
        let mut scheduler: SessionScheduler = SessionScheduler::new(4);
        let id = scheduler.admit(start(1), ());
        assert_eq!(scheduler.len(), 1);
        assert!(scheduler.remove(id).is_some());
        assert!(scheduler.is_empty());
        assert!(scheduler.status(id).is_none());
        assert!(!scheduler.runnable(id));
        assert_eq!(scheduler.drive(id, &no_hook), 0);
    }
}
