//! A self-stabilising leader election (the Chalopin–Das–Kokkou arXiv
//! 2408.08775 family): recovers a unique leader from *arbitrary* memory
//! corruption without any global reset.
//!
//! Every particle maintains a **claim** — the position of the particle it
//! currently believes to be the leader, stored as an offset from its own
//! position (so memories stay translation-invariant and particles never
//! learn global coordinates) — together with a **parent** direction towards
//! the claimed particle and a **hop** count along that parent chain. The
//! unique maximum-position particle (under a fixed lexicographic order on
//! offsets) ends up self-claiming; everyone else adopts its claim greedily
//! along BFS trees, which works on shapes with holes (the comparison runs
//! over the adjacency graph, not the boundary).
//!
//! Self-stabilisation comes from a *local certificate*: a non-self claim is
//! valid only if the parent neighbour exists, carries the same claim one hop
//! shorter, and the hop count stays under a global bound. A particle whose
//! certificate fails resets to claiming itself. Phantom claims — corrupted
//! memories naming positions no particle occupies — unravel bottom-up: the
//! minimum-hop holder of a phantom is locally invalid and resets, every
//! re-adoption of the phantom happens at strictly larger hop counts, and the
//! hop bound kills the count-to-infinity, after which the true maximum wins.
//!
//! The paper's construction is strictly constant-memory; storing the claim
//! as an `O(log n)`-bit offset is a documented simplification that keeps the
//! certificate checkable in one neighbourhood read. No particle ever moves
//! and no particle ever terminates — completion is the *stability* predicate
//! (every certificate valid, no strictly better claim adoptable), which the
//! quiescence machinery detects without burning activations.

use pm_amoebot::algorithm::{ActivationContext, Algorithm, InitContext};
use pm_amoebot::system::ParticleSystem;
use pm_core::api::{
    phase, BoxedScheduler, LeaderElection, Phase, Plan, RoundDriven, Rounds, RunOptions,
};
use pm_core::dle::Status;
use pm_grid::{Direction, Point, Shape, DIRECTIONS};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Per-particle memory of the self-stabilising election, in bits (measured
/// from [`SelfStabMemory`]; an `O(log n)`-bit simplification of the paper's
/// constant-memory construction, see the module docs).
pub const SELF_STAB_MEMORY_BITS: u64 = (std::mem::size_of::<SelfStabMemory>() * 8) as u64;

/// Memory of a particle running the self-stabilising election.
///
/// `(claim_q, claim_r) == (0, 0)` is the *self-claim*: the particle believes
/// itself to be the leader. Any other value names the claimed particle's
/// position relative to this particle's own, reached by following `parent`
/// for `hops` steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelfStabMemory {
    /// Claimed leader position, `q` offset from the particle's own position.
    pub claim_q: i32,
    /// Claimed leader position, `r` offset from the particle's own position.
    pub claim_r: i32,
    /// Direction of the neighbour the claim was adopted from (`None` iff
    /// self-claiming).
    pub parent: Option<Direction>,
    /// Length of the parent chain to the claimed particle (0 iff
    /// self-claiming).
    pub hops: u32,
}

impl SelfStabMemory {
    /// The post-reset (and initial) state: claim yourself.
    fn self_claim() -> SelfStabMemory {
        SelfStabMemory {
            claim_q: 0,
            claim_r: 0,
            parent: None,
            hops: 0,
        }
    }

    /// Whether the particle claims itself.
    fn is_self_claim(&self) -> bool {
        self.claim_q == 0 && self.claim_r == 0
    }

    /// The claim offset in `i64` (candidate arithmetic must not overflow on
    /// adversarially corrupted `i32` extremes).
    fn claim(&self) -> (i64, i64) {
        (self.claim_q as i64, self.claim_r as i64)
    }
}

/// Total order on claim offsets: compare `r` first, then `q`. All
/// comparisons happen between offsets expressed in the same particle's
/// frame, so the order is translation-invariant: position `A` beats `B` iff
/// the offset `A - B` is lexicographically above `(0, 0)`.
fn claim_cmp(a: (i64, i64), b: (i64, i64)) -> Ordering {
    (a.1, a.0).cmp(&(b.1, b.0))
}

/// The grid offset of one direction, as `(q, r)`.
fn delta(d: Direction) -> (i64, i64) {
    let p = Point::ORIGIN.neighbor(d);
    (p.q as i64, p.r as i64)
}

/// One particle's local view: its own memory and its six neighbours'. Both
/// the activation handler and the global stability predicate reduce to
/// [`LocalView::repair`], so the two can never diverge.
struct LocalView {
    mem: SelfStabMemory,
    neighbors: [Option<SelfStabMemory>; 6],
}

impl LocalView {
    /// Whether the particle's certificate is locally valid: a self-claim
    /// with no parent and zero hops, or a claim that matches the parent
    /// neighbour's claim shifted by one step, one hop longer, within the
    /// hop bound, and naming a position strictly above the particle's own.
    fn cert_valid(&self, max_hops: u32) -> bool {
        if self.mem.is_self_claim() {
            return self.mem.parent.is_none() && self.mem.hops == 0;
        }
        let Some(d) = self.mem.parent else {
            return false;
        };
        let Some(q) = self.neighbors[d.index()] else {
            return false;
        };
        if self.mem.hops > max_hops || q.hops.checked_add(1) != Some(self.mem.hops) {
            return false;
        }
        let (dq, dr) = delta(d);
        let expected = (dq + q.claim().0, dr + q.claim().1);
        self.mem.claim() == expected && claim_cmp(self.mem.claim(), (0, 0)) == Ordering::Greater
    }

    /// The stabilising transition: validate the certificate (resetting to a
    /// self-claim on failure), then adopt the best neighbour-derived claim —
    /// strictly greater than the current one, or equal with strictly fewer
    /// hops. Returns the new memory iff it differs from the current one, so
    /// `None` is exactly local stability.
    fn repair(&self, max_hops: u32) -> Option<SelfStabMemory> {
        let mut cur = if self.cert_valid(max_hops) {
            self.mem
        } else {
            SelfStabMemory::self_claim()
        };
        for (i, neighbor) in self.neighbors.iter().enumerate() {
            let Some(q) = neighbor else { continue };
            if q.hops >= max_hops {
                continue;
            }
            let (dq, dr) = delta(DIRECTIONS[i]);
            let cand = (dq + q.claim().0, dr + q.claim().1);
            // Only positions strictly above our own are adoptable claims,
            // and the offset must survive the round-trip through `i32`.
            if claim_cmp(cand, (0, 0)) != Ordering::Greater {
                continue;
            }
            let (Ok(cand_q), Ok(cand_r)) = (i32::try_from(cand.0), i32::try_from(cand.1)) else {
                continue;
            };
            let cand_hops = q.hops + 1;
            let adopt = match claim_cmp(cand, cur.claim()) {
                Ordering::Greater => true,
                Ordering::Equal => !cur.is_self_claim() && cand_hops < cur.hops,
                Ordering::Less => false,
            };
            if adopt {
                cur = SelfStabMemory {
                    claim_q: cand_q,
                    claim_r: cand_r,
                    parent: Some(DIRECTIONS[i]),
                    hops: cand_hops,
                };
            }
        }
        (cur != self.mem).then_some(cur)
    }
}

/// SplitMix64: spreads corruption entropy across the memory fields.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-activation algorithm: carries the hop bound, which the election
/// wrapper sizes from the initial shape (with slack for regrow faults).
#[derive(Clone, Copy, Debug)]
struct SsMaxAlgorithm {
    max_hops: u32,
}

impl Algorithm for SsMaxAlgorithm {
    type Memory = SelfStabMemory;

    fn init(&self, _ctx: &InitContext) -> SelfStabMemory {
        SelfStabMemory::self_claim()
    }

    fn activate(&self, ctx: &mut ActivationContext<'_, SelfStabMemory>) {
        let mut neighbors = [None; 6];
        for (i, d) in DIRECTIONS.iter().enumerate() {
            if let Some(q) = ctx.neighbor_at_head(*d) {
                neighbors[i] = Some(*ctx.neighbor_memory(q));
            }
        }
        let view = LocalView {
            mem: *ctx.memory(),
            neighbors,
        };
        if let Some(next) = view.repair(self.max_hops) {
            *ctx.memory_mut() = next;
        }
    }

    /// Completion is *stability*, not termination: no particle ever reaches
    /// a final state (a terminated particle could not react to later
    /// corruption), so the whole run is complete exactly when every
    /// particle's repair step is a no-op.
    fn is_complete(&self, system: &ParticleSystem<SelfStabMemory>) -> bool {
        system
            .iter()
            .all(|(id, _)| view_at(system, id.index()).repair(self.max_hops).is_none())
    }

    /// Repair is a pure function of the local view, so stable particles may
    /// be parked; corruption, additions and removals all wake the affected
    /// neighbourhoods.
    fn supports_quiescence(&self) -> bool {
        true
    }

    /// The transient-fault model: overwrite the memory with arbitrary values
    /// of the memory type. Small offsets forge plausible phantom claims that
    /// must unravel through the certificate chain; occasionally huge hop
    /// counts exercise the hop bound (instantly invalid, instant reset).
    fn corrupt(&self, memory: &mut SelfStabMemory, entropy: u64) -> bool {
        let old = *memory;
        let a = splitmix(entropy);
        let b = splitmix(a);
        let c = splitmix(b);
        let d = splitmix(c);
        memory.claim_q = (a % 33) as i32 - 16;
        memory.claim_r = (b % 33) as i32 - 16;
        memory.parent = if c % 8 < 6 {
            Some(Direction::from_index((c % 6) as i32))
        } else {
            None
        };
        memory.hops = if d.is_multiple_of(4) {
            (d >> 32) as u32
        } else {
            (d % 24) as u32
        };
        *memory != old
    }
}

/// Builds one particle's [`LocalView`] from global system state (the
/// stability predicate's side of the shared repair logic). Particles never
/// move, so the head is the particle's only point.
fn view_at(system: &ParticleSystem<SelfStabMemory>, index: usize) -> LocalView {
    let id = pm_amoebot::particle::ParticleId::from_index(index);
    let pos = system.particle(id).head();
    let mut neighbors = [None; 6];
    for (i, d) in DIRECTIONS.iter().enumerate() {
        if let Some(q) = system.particle_at(pos.neighbor(*d)) {
            if q != id {
                neighbors[i] = Some(*system.particle(q).memory());
            }
        }
    }
    LocalView {
        mem: *system.particle(id).memory(),
        neighbors,
    }
}

impl RoundDriven for SsMaxAlgorithm {
    /// Self-claimers lead. At stability every claim resolves to an occupied
    /// position and exactly one particle per connected component
    /// self-claims (see the module docs), and no particle stays undecided.
    fn status(memory: &SelfStabMemory) -> Status {
        if memory.is_self_claim() {
            Status::Leader
        } else {
            Status::Follower
        }
    }

    /// Stable particles count as decided, unstable ones as undecided.
    fn tally(&self, system: &ParticleSystem<SelfStabMemory>) -> (usize, usize) {
        let stable = system
            .iter()
            .filter(|(id, _)| view_at(system, id.index()).repair(self.max_hops).is_none())
            .count();
        (stable, system.len() - stable)
    }
}

/// The self-stabilising election behind the unified [`LeaderElection`] API.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfStabMaxElection;

impl LeaderElection for SelfStabMaxElection {
    fn name(&self) -> &'static str {
        "self-stab-max"
    }

    fn plan<'a>(
        &self,
        shape: &Shape,
        scheduler: BoxedScheduler<'a>,
        opts: &RunOptions,
    ) -> Plan<'a> {
        // The hop bound must exceed any reachable graph distance; the
        // diameter is below n, and the factor-2-plus-slack headroom keeps
        // regrow faults (which add particles mid-run) inside the bound.
        let algorithm = SsMaxAlgorithm {
            max_hops: 2 * shape.len() as u32 + 64,
        };
        // Stabilisation is O(diameter) from clean starts but phantom claims
        // can climb the hop chain before dying, so the default budget is
        // roomier than the erosion baseline's.
        let budget = 16 * (shape.len() as u64 + 16);
        let rounds = Rounds::new(phase::ELECTION, algorithm, shape, scheduler, opts, budget);
        Plan::new(vec![Phase::Rounds(rounds.stalls())], ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_amoebot::scheduler::{ReverseRoundRobin, RoundRobin, SeededRandom};
    use pm_core::api::{ElectionError, StepOutcome};
    use pm_grid::builder::{annulus, comb, hexagon, line, spiral};

    #[test]
    fn elects_unique_leader_including_on_holey_shapes() {
        for shape in [hexagon(3), line(12), comb(4, 3), spiral(40), annulus(4, 1)] {
            let report = SelfStabMaxElection
                .elect(&shape, &mut RoundRobin, &RunOptions::default())
                .unwrap();
            assert_eq!(report.leaders, 1, "shape {shape:?}");
            assert!(shape.contains(report.leader));
            assert_eq!(report.algorithm, "self-stab-max");
            assert!(report.rounds_consistent());
            assert_eq!(report.undecided, 0);
            assert_eq!(report.moves, 0, "self-stab-max never moves");
        }
    }

    #[test]
    fn leader_is_scheduler_independent() {
        // The elected leader is the maximum-position particle, a property of
        // the shape alone — every fair scheduler must agree on it.
        let shape = comb(5, 4);
        let rr = SelfStabMaxElection
            .elect(&shape, &mut RoundRobin, &RunOptions::default())
            .unwrap();
        let rev = SelfStabMaxElection
            .elect(&shape, &mut ReverseRoundRobin, &RunOptions::default())
            .unwrap();
        assert_eq!(rr.leader, rev.leader);
        for seed in 0..3 {
            let random = SelfStabMaxElection
                .elect(&shape, &mut SeededRandom::new(seed), &RunOptions::default())
                .unwrap();
            assert_eq!(random.leader, rr.leader);
            assert_eq!(random.leaders, 1);
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut rr = RoundRobin;
        assert!(matches!(
            SelfStabMaxElection.elect(&Shape::new(), &mut rr, &RunOptions::default()),
            Err(ElectionError::InvalidInitialConfiguration(_))
        ));
        let mut disconnected = hexagon(1);
        disconnected.insert(pm_grid::Point::new(40, 0));
        assert!(matches!(
            SelfStabMaxElection.elect(&disconnected, &mut rr, &RunOptions::default()),
            Err(ElectionError::InvalidInitialConfiguration(_))
        ));
    }

    #[test]
    fn single_particle_elects_itself_immediately() {
        let report = SelfStabMaxElection
            .elect(&line(1), &mut RoundRobin, &RunOptions::default())
            .unwrap();
        assert_eq!(report.leaders, 1);
        assert_eq!(report.total_rounds, 0, "already stable at the start");
    }

    #[test]
    fn recovers_from_corruption_without_reinitialize() {
        // Step to stability, scramble several memories through the control
        // surface (no reinitialize!), and keep stepping: the certificates
        // unravel the phantoms and a unique leader re-emerges.
        let shape = hexagon(3);
        let mut scheduler = SeededRandom::new(11);
        let mut execution = SelfStabMaxElection
            .start(&shape, &mut scheduler, &RunOptions::default())
            .unwrap();
        let mut corrupted_total = 0usize;
        let mut steps = 0u32;
        loop {
            steps += 1;
            assert!(steps < 10_000, "failed to finish");
            match execution.step_round().unwrap() {
                StepOutcome::RoundCompleted { rounds, .. }
                    if rounds == 4 && corrupted_total == 0 =>
                {
                    let mut control = execution.system().expect("round-driven phase");
                    for (i, p) in shape.iter().enumerate().take(9) {
                        if control.corrupt_at(p, 0xfau64.wrapping_mul(i as u64 + 3)) {
                            corrupted_total += 1;
                        }
                    }
                    assert!(corrupted_total > 0, "corruption must land");
                }
                StepOutcome::Finished(report) => {
                    assert_eq!(report.leaders, 1);
                    assert_eq!(report.undecided, 0);
                    assert!(shape.contains(report.leader));
                    break;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn corruption_hook_scrambles_and_reports_changes() {
        let algorithm = SsMaxAlgorithm { max_hops: 100 };
        let mut memory = SelfStabMemory::self_claim();
        let mut changed = 0;
        for entropy in 0..32u64 {
            if algorithm.corrupt(&mut memory, entropy) {
                changed += 1;
            }
        }
        assert!(changed > 16, "corruption should usually change the memory");
        // Deterministic: same entropy, same scramble.
        let mut a = SelfStabMemory::self_claim();
        let mut b = SelfStabMemory::self_claim();
        algorithm.corrupt(&mut a, 42);
        algorithm.corrupt(&mut b, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn certificate_rejects_forged_memories() {
        // A lone particle claiming a phantom position is invalid no matter
        // how the fields are set.
        let forged = LocalView {
            mem: SelfStabMemory {
                claim_q: 3,
                claim_r: 2,
                parent: Some(Direction::E),
                hops: 5,
            },
            neighbors: [None; 6],
        };
        assert!(!forged.cert_valid(100));
        let repaired = forged.repair(100).expect("must reset");
        assert!(repaired.is_self_claim());
        // A self-claim with junk parent/hops normalises too.
        let junk = LocalView {
            mem: SelfStabMemory {
                claim_q: 0,
                claim_r: 0,
                parent: Some(Direction::W),
                hops: 9,
            },
            neighbors: [None; 6],
        };
        assert_eq!(junk.repair(100), Some(SelfStabMemory::self_claim()));
    }
}
