//! The particle system: configuration and movement operations (Section 2.2).

use crate::algorithm::{Algorithm, InitContext};
use crate::particle::{Particle, ParticleId};
use pm_grid::{Direction, GridIndex, GridRect, Point, Shape, DIRECTIONS};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An error returned by a movement operation that violates the amoebot
/// model's rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveError {
    /// The particle attempted to expand while already expanded.
    AlreadyExpanded,
    /// The particle attempted to contract while contracted.
    NotExpanded,
    /// The expansion target is occupied by a contracted particle (no
    /// handover is possible).
    TargetOccupied,
    /// The handover partner is not in a state that permits the handover.
    InvalidHandover,
    /// The referenced particle id does not exist.
    NoSuchParticle,
}

impl fmt::Display for MoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            MoveError::AlreadyExpanded => "particle is already expanded",
            MoveError::NotExpanded => "particle is not expanded",
            MoveError::TargetOccupied => "target point is occupied by a contracted particle",
            MoveError::InvalidHandover => "handover partner is not in a valid state",
            MoveError::NoSuchParticle => "no such particle",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for MoveError {}

/// Which occupancy data structure a [`ParticleSystem`] uses.
///
/// The dense backend is the default: a flat vector of 4-byte cells over the
/// initial shape's (slightly expanded) bounding box gives `O(1)` neighbour
/// probes during activations, with a hash-map overflow for the rare
/// particle that wanders outside the box. The hashed backend is the
/// pre-0.2 `HashMap` representation, kept selectable so differential tests
/// can prove the two produce bit-identical executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum OccupancyBackend {
    /// Flat vector indexed by [`GridRect`] cell id (default).
    #[default]
    Dense,
    /// `HashMap<Point, ParticleId>` (legacy reference implementation).
    Hashed,
}

/// How far beyond the initial bounding box the dense occupancy grid extends.
/// Movements past the margin fall back to the overflow map, so correctness
/// never depends on this value.
const DENSE_MARGIN: u32 = 2;

/// How far beyond the initial shape's bounding rectangle a restored
/// configuration may place a particle ([`ParticleSystem::restore_snapshot`],
/// and the election outcomes restored alongside it).
///
/// Every contender keeps its particles inside the initial shape's area, and
/// a snapshot taken after a fault added a particle has more slots than a
/// fresh system, so no legitimate snapshot comes near the margin. A
/// rejected snapshot only costs its caller a replay from the initial
/// configuration. Without the bound, a coordinate in a client-supplied
/// snapshot sizes later allocations (Collect's rings, connectivity grids).
pub const RESTORE_MARGIN: u32 = 64;

/// The rectangle a restored configuration of `shape` must lie in: its
/// bounding rectangle widened by [`RESTORE_MARGIN`]; `None` for the empty
/// shape, where no point is allowed.
pub fn restore_bounds(shape: &Shape) -> Option<GridRect> {
    GridRect::of_shape(shape, RESTORE_MARGIN)
}

/// Checks that restored `points` are pairwise distinct and lie in `bounds`
/// (see [`restore_bounds`]).
///
/// # Errors
///
/// Names the first point that lies outside `bounds` or repeats.
pub fn check_restored_points(
    bounds: Option<GridRect>,
    points: impl IntoIterator<Item = Point>,
) -> Result<(), String> {
    let mut seen = bounds.map(GridIndex::empty);
    for p in points {
        let Some(seen) = seen.as_mut().filter(|seen| seen.rect().in_bounds(p)) else {
            return Err(match bounds {
                Some(rect) => format!(
                    "point {p} lies outside {}..={}, the initial shape's bounding \
                     rectangle widened by {RESTORE_MARGIN}",
                    rect.min(),
                    rect.max()
                ),
                None => format!("point {p} restored into an empty initial shape"),
            });
        };
        if !seen.insert(p) {
            return Err(format!("point {p} is occupied twice"));
        }
    }
    Ok(())
}

/// A dense occupancy cell holding no particle. Occupied cells hold their
/// occupant's id, so a cell takes 4 bytes where an `Option<ParticleId>`
/// takes 16, and `blob`-sized rectangles stay in the L1 cache.
const VACANT: u32 = u32::MAX;

/// The dense cell value of an occupant.
///
/// # Panics
///
/// Panics on ids of 2³² - 1 and above, which no system that fits in memory
/// reaches.
fn cell_value(id: ParticleId) -> u32 {
    u32::try_from(id.0)
        .ok()
        .filter(|value| *value != VACANT)
        .expect("particle ids fit in a dense occupancy cell")
}

/// The occupancy map: which particle (if any) occupies each grid point.
#[derive(Clone, Debug)]
enum Occupancy {
    /// Flat vector over a bounded rectangle (one [`cell_value`] or
    /// [`VACANT`] per cell) plus an overflow map for points outside it.
    Dense {
        rect: GridRect,
        cells: Vec<u32>,
        overflow: HashMap<Point, ParticleId>,
        len: usize,
    },
    /// Plain hash map (reference implementation).
    Hashed(HashMap<Point, ParticleId>),
}

impl Occupancy {
    fn for_shape(shape: &Shape, backend: OccupancyBackend) -> Occupancy {
        match (backend, GridRect::of_shape(shape, DENSE_MARGIN)) {
            (OccupancyBackend::Dense, Some(rect)) => Occupancy::Dense {
                cells: vec![VACANT; rect.cells()],
                rect,
                overflow: HashMap::new(),
                len: 0,
            },
            // Empty shapes (and the legacy backend) use the hash map.
            _ => Occupancy::Hashed(HashMap::with_capacity(shape.len())),
        }
    }

    /// The particle occupying `p`, if any.
    #[inline]
    fn get(&self, p: Point) -> Option<ParticleId> {
        match self {
            Occupancy::Dense {
                rect,
                cells,
                overflow,
                ..
            } => match rect.cell(p) {
                Some(cell) => match cells[cell] {
                    VACANT => None,
                    value => Some(ParticleId(value as usize)),
                },
                None => overflow.get(&p).copied(),
            },
            Occupancy::Hashed(map) => map.get(&p).copied(),
        }
    }

    /// Maps `p` to `id`, overwriting any previous occupant (handovers
    /// transfer a point between particles in one step).
    fn insert(&mut self, p: Point, id: ParticleId) {
        match self {
            Occupancy::Dense {
                rect,
                cells,
                overflow,
                len,
            } => match rect.cell(p) {
                Some(cell) => {
                    if cells[cell] == VACANT {
                        *len += 1;
                    }
                    cells[cell] = cell_value(id);
                }
                None => {
                    if overflow.insert(p, id).is_none() {
                        *len += 1;
                    }
                }
            },
            Occupancy::Hashed(map) => {
                map.insert(p, id);
            }
        }
    }

    /// Frees `p` if it is currently occupied by `id` (a contraction must not
    /// free a point that was already handed over to another particle).
    fn remove_if(&mut self, p: Point, id: ParticleId) {
        match self {
            Occupancy::Dense {
                rect,
                cells,
                overflow,
                len,
            } => match rect.cell(p) {
                Some(cell) => {
                    if cells[cell] == cell_value(id) {
                        cells[cell] = VACANT;
                        *len -= 1;
                    }
                }
                None => {
                    if overflow.get(&p) == Some(&id) {
                        overflow.remove(&p);
                        *len -= 1;
                    }
                }
            },
            Occupancy::Hashed(map) => {
                if map.get(&p) == Some(&id) {
                    map.remove(&p);
                }
            }
        }
    }

    /// Empties the map (backend and dense rectangle retained), so a
    /// snapshot restore can re-insert every occupied point from scratch.
    fn clear(&mut self) {
        match self {
            Occupancy::Dense {
                cells,
                overflow,
                len,
                ..
            } => {
                cells.fill(VACANT);
                overflow.clear();
                *len = 0;
            }
            Occupancy::Hashed(map) => map.clear(),
        }
    }

    /// Number of occupied points.
    fn len(&self) -> usize {
        match self {
            Occupancy::Dense { len, .. } => *len,
            Occupancy::Hashed(map) => map.len(),
        }
    }

    /// All occupied points (in no particular order).
    fn points(&self) -> Vec<Point> {
        match self {
            Occupancy::Dense {
                rect,
                cells,
                overflow,
                len,
            } => {
                let mut out = Vec::with_capacity(*len);
                for (cell, slot) in cells.iter().enumerate() {
                    if *slot != VACANT {
                        out.push(rect.point(cell));
                    }
                }
                out.extend(overflow.keys().copied());
                out
            }
            Occupancy::Hashed(map) => map.keys().copied().collect(),
        }
    }
}

/// The distinct neighbouring particles of one particle, in ascending id
/// order, stored inline (no heap allocation): a particle occupies at most
/// two points, whose neighbourhoods contain at most twelve distinct other
/// particles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbors {
    ids: [ParticleId; 12],
    len: u8,
}

impl Neighbors {
    fn new() -> Neighbors {
        Neighbors {
            ids: [ParticleId(0); 12],
            len: 0,
        }
    }

    /// Inserts an id, keeping the list sorted and duplicate-free.
    fn insert(&mut self, id: ParticleId) {
        let n = self.len as usize;
        let mut i = 0;
        while i < n && self.ids[i] < id {
            i += 1;
        }
        if i < n && self.ids[i] == id {
            return;
        }
        let mut j = n;
        while j > i {
            self.ids[j] = self.ids[j - 1];
            j -= 1;
        }
        self.ids[i] = id;
        self.len += 1;
    }

    /// Number of distinct neighbours.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no neighbours.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The neighbours as a sorted slice.
    pub fn as_slice(&self) -> &[ParticleId] {
        &self.ids[..self.len as usize]
    }

    /// Iterates over the neighbours in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ParticleId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Whether `id` is among the neighbours.
    pub fn contains(&self, id: ParticleId) -> bool {
        self.as_slice().binary_search(&id).is_ok()
    }
}

impl IntoIterator for Neighbors {
    type Item = ParticleId;
    type IntoIter = std::iter::Take<std::array::IntoIter<ParticleId, 12>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

/// Builds the [`InitContext`] of a particle at `point` from a shape
/// analysis — the single definition of what a particle sees at
/// initialization time, shared by initial construction
/// ([`ParticleSystem::from_shape_with_backend`]) and perturbation resets
/// ([`ParticleSystem::reinitialize`]), so the two can never diverge.
fn init_context(analysis: &pm_grid::ShapeAnalysis, point: Point) -> InitContext {
    let mut occupied = [false; 6];
    let mut outer = [false; 6];
    for (i, d) in DIRECTIONS.iter().enumerate() {
        let n = point.neighbor(*d);
        occupied[i] = analysis.contains(n);
        outer[i] = !occupied[i] && analysis.is_outer_face_point(n);
    }
    InitContext {
        point,
        occupied,
        outer,
        is_boundary: occupied.iter().any(|o| !o),
    }
}

/// The mutation surface a fault script sees mid-run.
///
/// [`Runner::control`](crate::scheduler::Runner::control) hands out a
/// `SystemControl` between rounds of a round-driven phase (surfaced upward
/// as `Execution::system` in `pm-core`), so callers can inject adversarial
/// perturbations — remove particles, split the configuration — without
/// knowing the algorithm's memory type. After mutating, a reset-and-recover
/// adversary calls [`SystemControl::reinitialize`]: it resets the survivors
/// into a fresh permitted initial configuration and the algorithm restarts
/// its election on the perturbed shape (modelling the recovery that
/// self-stabilising leader election automates, cf. arXiv 2408.08775).
pub trait SystemControl {
    /// Number of particles still in the system.
    fn particle_count(&self) -> usize;

    /// Head positions of the particles still in the system, in creation
    /// (id) order — a deterministic enumeration for seeded perturbations.
    fn particle_positions(&self) -> Vec<Point>;

    /// The currently occupied shape.
    fn occupied_shape(&self) -> Shape;

    /// Whether the occupied shape is currently connected.
    fn is_connected(&self) -> bool;

    /// Removes the particle occupying `p` (head or tail; the particle
    /// vanishes entirely). Returns whether a particle was removed.
    fn remove_at(&mut self, p: Point) -> bool;

    /// Adds a fresh contracted particle at the empty point `p`, with a
    /// memory produced by the algorithm's initializer on the post-addition
    /// shape (regrow faults). Returns whether a particle was added (`false`
    /// if the point was occupied).
    fn add_at(&mut self, p: Point) -> bool;

    /// Corrupts the memory of the particle occupying `p` with adversarial
    /// `entropy` via the algorithm's corruption hook
    /// ([`crate::algorithm::Algorithm::corrupt`]). Returns whether a memory
    /// was changed (`false` on an empty point, or when the algorithm
    /// defines no corruption model).
    fn corrupt_at(&mut self, p: Point, entropy: u64) -> bool;

    /// Re-initializes every surviving particle from the current
    /// configuration: expanded particles are force-contracted into their
    /// heads, memories are rebuilt by the algorithm's initializer on the
    /// current shape (fresh outer-boundary flags via the
    /// invalidate-on-mutation analysis cache), and termination flags are
    /// cleared. Movement counters are *not* reset — the reset is the
    /// adversary's action, and the report keeps the whole run's totals.
    fn reinitialize(&mut self);
}

/// A portable snapshot of a [`ParticleSystem`] mid-run: exactly the state
/// that cannot be rebuilt from the initial configuration.
///
/// The occupancy map is *not* serialized — it is a pure function of the
/// particles' occupied points, and [`ParticleSystem::restore_snapshot`]
/// rebuilds it on the target system's existing backend (whose dense
/// rectangle derives from the initial shape, exactly as in the live run).
/// Neither is the ready set: it is a pure function of the removed,
/// terminated and parked flags, and the restore recomputes it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemSnapshot<M> {
    /// Every particle slot, including removed ones (ids stay stable).
    pub particles: Vec<Particle<M>>,
    /// `removed[i]` iff slot `i` was removed by a perturbation.
    pub removed: Vec<bool>,
    /// Quiescence-parking flags.
    pub parked: Vec<bool>,
    /// Cumulative expansion count.
    pub expansions: u64,
    /// Cumulative contraction count.
    pub contractions: u64,
    /// Cumulative handover count.
    pub handovers: u64,
}

/// The particle system: a set of particles on the triangular grid together
/// with the occupancy map, movement operations and movement counters.
///
/// The generic parameter `M` is the algorithm-specific per-particle memory.
///
/// Unlike most of the amoebot literature (and following this paper), the
/// system does **not** enforce connectivity after every move: temporary
/// disconnection is allowed, and only the initial and final configurations of
/// an algorithm are required to be connected.
#[derive(Clone, Debug)]
pub struct ParticleSystem<M> {
    particles: Vec<Particle<M>>,
    occupancy: Occupancy,
    /// `removed[i]` iff particle `i` was removed by a perturbation; removed
    /// slots stay in `particles` so ids remain stable, but are excluded from
    /// every query.
    removed: Vec<bool>,
    /// Number of particles not removed.
    alive: usize,
    /// Number of *alive* particles that have reached a final state (kept
    /// incremental so the runner's per-round completion check is `O(1)`).
    terminated: usize,
    /// Quiescence parking (see [`crate::algorithm::Algorithm::supports_quiescence`]):
    /// `parked[i]` iff particle `i`'s last activation changed nothing and
    /// nothing in its local view has changed since, so the runner may skip it.
    parked: Vec<bool>,
    /// The ready set, one bit per particle slot (bit `i % 64` of word
    /// `i / 64`): set iff particle `i` is not removed, not terminated and
    /// not parked. Every path that changes one of those flags keeps it
    /// current, so the runner's live list is a scan of its words and its
    /// per-activation skip test reads one bit.
    ready: Vec<u64>,
    /// Whether parking/waking bookkeeping is active (set by the runner from
    /// the algorithm's opt-in; all hooks are no-ops when disabled).
    parking: bool,
    /// Where a restored snapshot may place particles
    /// ([`restore_bounds`] of the initial shape).
    restore_bounds: Option<GridRect>,
    expansions: u64,
    contractions: u64,
    handovers: u64,
}

impl<M> ParticleSystem<M> {
    /// Creates a system of contracted particles, one per point of `shape`,
    /// with memories produced by the algorithm's initializer, on the default
    /// (dense) occupancy backend.
    ///
    /// This corresponds to the paper's permitted initial configurations:
    /// connected (not enforced here — generators produce connected shapes and
    /// the election pipeline checks it), non-empty, contracted.
    pub fn from_shape<A>(shape: &Shape, algorithm: &A) -> ParticleSystem<M>
    where
        A: Algorithm<Memory = M> + ?Sized,
    {
        ParticleSystem::from_shape_with_backend(shape, algorithm, OccupancyBackend::default())
    }

    /// As [`ParticleSystem::from_shape`], with an explicit occupancy backend
    /// (differential tests run the same execution on both backends and
    /// compare results bit for bit).
    pub fn from_shape_with_backend<A>(
        shape: &Shape,
        algorithm: &A,
        backend: OccupancyBackend,
    ) -> ParticleSystem<M>
    where
        A: Algorithm<Memory = M> + ?Sized,
    {
        let analysis = shape.analyze();
        let mut particles = Vec::with_capacity(shape.len());
        let mut occupancy = Occupancy::for_shape(shape, backend);
        for point in shape.iter() {
            let ctx = init_context(&analysis, point);
            let memory = algorithm.init(&ctx);
            let id = ParticleId(particles.len());
            occupancy.insert(point, id);
            particles.push(Particle::contracted(point, memory));
        }
        let n = particles.len();
        let mut system = ParticleSystem {
            particles,
            occupancy,
            removed: vec![false; n],
            alive: n,
            terminated: 0,
            parked: vec![false; n],
            ready: Vec::new(),
            parking: false,
            restore_bounds: restore_bounds(shape),
            expansions: 0,
            contractions: 0,
            handovers: 0,
        };
        system.rebuild_ready();
        system
    }

    /// Number of particles (excluding any removed by perturbations).
    pub fn len(&self) -> usize {
        self.alive
    }

    /// Whether the system has no particles.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// All particle ids (excluding removed particles), in creation order.
    pub fn ids(&self) -> impl Iterator<Item = ParticleId> + '_ {
        (0..self.particles.len())
            .filter(|i| !self.removed[*i])
            .map(ParticleId)
    }

    /// Whether the particle was removed by a perturbation.
    pub fn is_removed(&self, id: ParticleId) -> bool {
        self.removed[id.0]
    }

    /// The particle with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn particle(&self, id: ParticleId) -> &Particle<M> {
        &self.particles[id.0]
    }

    /// Mutable access to the particle with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn particle_mut(&mut self, id: ParticleId) -> &mut Particle<M> {
        &mut self.particles[id.0]
    }

    /// Marks the particle as having reached a final state, keeping the
    /// incremental terminated count in sync (this is the only way particles
    /// terminate; the flag never reverts).
    pub(crate) fn set_terminated(&mut self, id: ParticleId) {
        let particle = &mut self.particles[id.0];
        if !particle.terminated {
            particle.terminated = true;
            self.terminated += 1;
            self.set_ready(id.0, false);
        }
    }

    /// The particle occupying `point` (as head or tail), if any.
    #[inline]
    pub fn particle_at(&self, point: Point) -> Option<ParticleId> {
        self.occupancy.get(point)
    }

    /// Whether `point` is occupied by some particle.
    #[inline]
    pub fn is_occupied(&self, point: Point) -> bool {
        self.occupancy.get(point).is_some()
    }

    /// The current shape of the particle system: the set of occupied points.
    pub fn shape(&self) -> Shape {
        Shape::from_points(self.occupancy.points())
    }

    /// Whether the particle system's shape is currently connected.
    ///
    /// On the dense backend this runs a BFS directly over the occupancy grid
    /// (no intermediate `Shape` is built).
    pub fn is_connected(&self) -> bool {
        let Occupancy::Dense {
            rect,
            cells,
            overflow,
            len,
        } = &self.occupancy
        else {
            return self.shape().is_connected();
        };
        if *len == 0 {
            return true;
        }
        let start = match cells.iter().position(|slot| *slot != VACANT) {
            Some(cell) => rect.point(cell),
            None => *overflow.keys().next().expect("len > 0"),
        };
        let mut visited_cells = vec![false; cells.len()];
        let mut visited_overflow: HashSet<Point> = HashSet::new();
        let visit = |p: Point,
                     visited_cells: &mut Vec<bool>,
                     visited_overflow: &mut HashSet<Point>|
         -> bool {
            match rect.cell(p) {
                Some(cell) => {
                    if cells[cell] == VACANT || visited_cells[cell] {
                        false
                    } else {
                        visited_cells[cell] = true;
                        true
                    }
                }
                None => overflow.contains_key(&p) && visited_overflow.insert(p),
            }
        };
        let mut stack = Vec::with_capacity(64);
        visit(start, &mut visited_cells, &mut visited_overflow);
        stack.push(start);
        let mut seen = 1usize;
        while let Some(p) = stack.pop() {
            for n in p.neighbors() {
                if visit(n, &mut visited_cells, &mut visited_overflow) {
                    seen += 1;
                    stack.push(n);
                }
            }
        }
        seen == *len
    }

    /// Whether every particle is contracted.
    pub fn all_contracted(&self) -> bool {
        self.iter().all(|(_, p)| p.is_contracted())
    }

    /// Whether every particle has reached a final state (`O(1)` — the count
    /// is maintained incrementally).
    pub fn all_terminated(&self) -> bool {
        self.terminated == self.alive
    }

    /// The distinct particles adjacent to any point occupied by `id`
    /// (the paper's `N(p)`), in deterministic (ascending id) order.
    ///
    /// The result is collected on the stack ([`Neighbors`]): a particle
    /// occupies at most two points with at most twelve distinct neighbouring
    /// particles, so the per-activation hot path performs no allocation.
    pub fn neighbors_of(&self, id: ParticleId) -> Neighbors {
        let particle = self.particle(id);
        let mut out = Neighbors::new();
        for p in particle.occupied_points() {
            for n in p.neighbors() {
                if let Some(other) = self.particle_at(n) {
                    if other != id {
                        out.insert(other);
                    }
                }
            }
        }
        out
    }

    /// Movement counters: `(expansions, contractions, handovers)`.
    pub fn move_counts(&self) -> (u64, u64, u64) {
        (self.expansions, self.contractions, self.handovers)
    }

    /// Expands the contracted particle `id` from its point into the adjacent
    /// point in direction `dir`.
    ///
    /// If the target point is empty this is a plain expansion. If the target
    /// point is occupied by an **expanded** particle, the move is performed
    /// as a handover: the occupying particle contracts out of the target
    /// point and `id` expands into it, atomically.
    ///
    /// # Errors
    ///
    /// Returns [`MoveError::AlreadyExpanded`] if `id` is expanded, and
    /// [`MoveError::TargetOccupied`] if the target is occupied by a
    /// contracted particle.
    pub fn expand(&mut self, id: ParticleId, dir: Direction) -> Result<(), MoveError> {
        if id.0 >= self.particles.len() {
            return Err(MoveError::NoSuchParticle);
        }
        if self.particles[id.0].is_expanded() {
            return Err(MoveError::AlreadyExpanded);
        }
        let origin = self.particles[id.0].head;
        let target = origin.neighbor(dir);
        match self.particle_at(target) {
            None => {
                self.particles[id.0].head = target;
                // Tail stays at `origin`.
                self.occupancy.insert(target, id);
                self.expansions += 1;
                self.wake_adjacent_to(origin);
                self.wake_adjacent_to(target);
                Ok(())
            }
            Some(other_id) => {
                let other = &self.particles[other_id.0];
                if other.is_contracted() {
                    return Err(MoveError::TargetOccupied);
                }
                // Handover: `other` contracts out of `target`, `id` expands
                // into it.
                let other_kept = if other.tail == target {
                    self.particles[other_id.0].tail = self.particles[other_id.0].head;
                    self.particles[other_id.0].head
                } else {
                    debug_assert_eq!(other.head, target);
                    self.particles[other_id.0].head = self.particles[other_id.0].tail;
                    self.particles[other_id.0].tail
                };
                self.particles[id.0].head = target;
                self.occupancy.insert(target, id);
                self.handovers += 1;
                if self.parking {
                    self.wake(other_id);
                    self.wake_adjacent_to(origin);
                    self.wake_adjacent_to(target);
                    self.wake_adjacent_to(other_kept);
                }
                Ok(())
            }
        }
    }

    /// Contracts the expanded particle `id` into its head point.
    ///
    /// # Errors
    ///
    /// Returns [`MoveError::NotExpanded`] if the particle is contracted.
    pub fn contract_to_head(&mut self, id: ParticleId) -> Result<(), MoveError> {
        if id.0 >= self.particles.len() {
            return Err(MoveError::NoSuchParticle);
        }
        let particle = &self.particles[id.0];
        if particle.is_contracted() {
            return Err(MoveError::NotExpanded);
        }
        let tail = particle.tail;
        let head = particle.head;
        // The tail slot is released only if it still belongs to this
        // particle (it always does: handovers update occupancy eagerly).
        self.occupancy.remove_if(tail, id);
        self.particles[id.0].tail = self.particles[id.0].head;
        self.contractions += 1;
        self.wake_adjacent_to(tail);
        self.wake_adjacent_to(head);
        Ok(())
    }

    /// Contracts the expanded particle `id` into its tail point.
    ///
    /// # Errors
    ///
    /// Returns [`MoveError::NotExpanded`] if the particle is contracted.
    pub fn contract_to_tail(&mut self, id: ParticleId) -> Result<(), MoveError> {
        if id.0 >= self.particles.len() {
            return Err(MoveError::NoSuchParticle);
        }
        let particle = &self.particles[id.0];
        if particle.is_contracted() {
            return Err(MoveError::NotExpanded);
        }
        let head = particle.head;
        let tail = particle.tail;
        self.occupancy.remove_if(head, id);
        self.particles[id.0].head = self.particles[id.0].tail;
        self.contractions += 1;
        self.wake_adjacent_to(head);
        self.wake_adjacent_to(tail);
        Ok(())
    }

    /// Consumes the system and returns the particles (removed slots
    /// excluded).
    pub fn into_particles(self) -> Vec<Particle<M>> {
        let removed = self.removed;
        self.particles
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !removed[*i])
            .map(|(_, p)| p)
            .collect()
    }

    /// Iterates over `(id, particle)` pairs (removed particles excluded).
    pub fn iter(&self) -> impl Iterator<Item = (ParticleId, &Particle<M>)> {
        self.particles
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.removed[*i])
            .map(|(i, p)| (ParticleId(i), p))
    }

    /// Head positions of all particles, in creation (id) order — the
    /// deterministic enumeration used by seeded perturbations.
    pub fn particle_positions(&self) -> Vec<Point> {
        self.iter().map(|(_, p)| p.head()).collect()
    }

    /// Removes a particle from the system entirely (perturbation support):
    /// its points are vacated and it is excluded from all further queries and
    /// activations. Returns `false` if the id was already removed.
    pub fn remove_particle(&mut self, id: ParticleId) -> bool {
        if id.0 >= self.particles.len() || self.removed[id.0] {
            return false;
        }
        let (head, tail) = {
            let p = &self.particles[id.0];
            (p.head, p.tail)
        };
        self.occupancy.remove_if(head, id);
        if tail != head {
            self.occupancy.remove_if(tail, id);
        }
        self.removed[id.0] = true;
        self.set_ready(id.0, false);
        self.alive -= 1;
        if self.particles[id.0].terminated {
            self.terminated -= 1;
        }
        // Neighbouring particles observe the vacated points.
        self.wake_adjacent_to(head);
        if tail != head {
            self.wake_adjacent_to(tail);
        }
        true
    }

    /// Adds a fresh contracted particle at the empty `point` (regrow-fault
    /// support): it gets a new id (slots of removed particles are never
    /// reused), a memory produced by the algorithm's initializer on the
    /// *post-addition* shape, and takes part in every subsequent round.
    /// Returns `false` — without changing anything — if the point is
    /// occupied.
    ///
    /// Snapshots taken before an addition have fewer particle slots than
    /// the grown system, so [`ParticleSystem::restore_snapshot`] rejects
    /// them; checkpoint layers fall back to replaying from the initial
    /// configuration, which re-applies the addition deterministically.
    pub fn add_particle<A>(&mut self, point: Point, algorithm: &A) -> bool
    where
        A: Algorithm<Memory = M> + ?Sized,
    {
        if self.occupancy.get(point).is_some() {
            return false;
        }
        let mut points = self.occupancy.points();
        points.push(point);
        let shape = Shape::from_points(points);
        let analysis = shape.analyze();
        let ctx = init_context(&analysis, point);
        let memory = algorithm.init(&ctx);
        let id = ParticleId(self.particles.len());
        self.occupancy.insert(point, id);
        self.particles.push(Particle::contracted(point, memory));
        self.removed.push(false);
        self.parked.push(false);
        if self.ready.len() * 64 < self.particles.len() {
            self.ready.push(0);
        }
        self.set_ready(id.0, true);
        self.alive += 1;
        // Neighbouring particles observe the newly occupied point.
        self.wake_adjacent_to(point);
        true
    }

    /// Corrupts the memory of particle `id` with adversarial `entropy` via
    /// the algorithm's [`Algorithm::corrupt`] hook (transient-fault
    /// support). If the memory changed, any final-state flag is revoked —
    /// the one sanctioned exception to termination monotonicity, since an
    /// adversary that scrambles a memory can scramble a "final" state too —
    /// and the particle and its neighbours are woken. Returns whether the
    /// memory was changed.
    pub fn corrupt_particle<A>(&mut self, id: ParticleId, algorithm: &A, entropy: u64) -> bool
    where
        A: Algorithm<Memory = M> + ?Sized,
    {
        if id.0 >= self.particles.len() || self.removed[id.0] {
            return false;
        }
        if !algorithm.corrupt(&mut self.particles[id.0].memory, entropy) {
            return false;
        }
        if self.particles[id.0].terminated {
            self.particles[id.0].terminated = false;
            self.terminated -= 1;
        }
        self.parked[id.0] = false;
        self.set_ready(id.0, true);
        self.wake_neighbors_of(id);
        true
    }

    /// Re-initializes every surviving particle from the current
    /// configuration (see [`SystemControl::reinitialize`]). Expanded
    /// particles are force-contracted into their heads without charging the
    /// movement counters: the reset is the adversary's action, not the
    /// algorithm's.
    pub fn reinitialize<A>(&mut self, algorithm: &A)
    where
        A: Algorithm<Memory = M> + ?Sized,
    {
        for i in 0..self.particles.len() {
            if self.removed[i] {
                continue;
            }
            let (head, tail) = (self.particles[i].head, self.particles[i].tail);
            if head != tail {
                self.occupancy.remove_if(tail, ParticleId(i));
                self.particles[i].tail = head;
            }
        }
        let shape = Shape::from_points(self.iter().map(|(_, p)| p.head()));
        let analysis = shape.analyze();
        for i in 0..self.particles.len() {
            if self.removed[i] {
                continue;
            }
            let point = self.particles[i].head;
            let ctx = init_context(&analysis, point);
            self.particles[i].memory = algorithm.init(&ctx);
            self.particles[i].terminated = false;
        }
        self.terminated = 0;
        self.parked.fill(false);
        self.rebuild_ready();
    }

    /// Captures the system's mid-run state for a [`SystemSnapshot`].
    pub fn snapshot(&self) -> SystemSnapshot<M>
    where
        M: Clone,
    {
        SystemSnapshot {
            particles: self.particles.clone(),
            removed: self.removed.clone(),
            parked: self.parked.clone(),
            expansions: self.expansions,
            contractions: self.contractions,
            handovers: self.handovers,
        }
    }

    /// Overwrites this system's state with a snapshot captured by
    /// [`ParticleSystem::snapshot`] of a system built from the *same*
    /// initial shape. The occupancy map is rebuilt in place (backend and
    /// dense rectangle retained from the initial build), and the alive and
    /// terminated counts and the ready set are recomputed from the flags.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose slot counts are inconsistent or that do not
    /// match this system's particle count (a snapshot of a different
    /// configuration), and configurations no execution reaches: two
    /// particles on one point, an expanded particle whose head and tail are
    /// not adjacent, or a point outside [`restore_bounds`] of the initial
    /// shape. A rejected snapshot leaves the system unchanged.
    pub fn restore_snapshot(&mut self, snapshot: &SystemSnapshot<M>) -> Result<(), String>
    where
        M: Clone,
    {
        let slots = snapshot.particles.len();
        if snapshot.removed.len() != slots || snapshot.parked.len() != slots {
            return Err(format!(
                "inconsistent snapshot: {slots} particle slot(s), {} removed flag(s), \
                 {} parked flag(s)",
                snapshot.removed.len(),
                snapshot.parked.len()
            ));
        }
        if slots != self.particles.len() {
            return Err(format!(
                "snapshot has {slots} particle slot(s) but the system has {}",
                self.particles.len()
            ));
        }
        let alive = || {
            snapshot
                .particles
                .iter()
                .zip(&snapshot.removed)
                .filter(|(_, removed)| !**removed)
                .map(|(particle, _)| particle)
        };
        check_restored_points(
            self.restore_bounds,
            alive().flat_map(|particle| particle.occupied_points()),
        )?;
        if let Some(particle) = alive().find(|p| p.is_expanded() && !p.head.is_adjacent(p.tail)) {
            return Err(format!(
                "snapshot particle with head {} and tail {} occupies non-adjacent points",
                particle.head, particle.tail
            ));
        }
        self.occupancy.clear();
        for (i, particle) in snapshot.particles.iter().enumerate() {
            if snapshot.removed[i] {
                continue;
            }
            let id = ParticleId(i);
            self.occupancy.insert(particle.head, id);
            if particle.tail != particle.head {
                self.occupancy.insert(particle.tail, id);
            }
        }
        self.particles = snapshot.particles.clone();
        self.removed = snapshot.removed.clone();
        self.parked = snapshot.parked.clone();
        self.rebuild_ready();
        self.alive = self.removed.iter().filter(|r| !**r).count();
        self.terminated = self
            .particles
            .iter()
            .zip(&self.removed)
            .filter(|(p, removed)| !**removed && p.terminated)
            .count();
        self.expansions = snapshot.expansions;
        self.contractions = snapshot.contractions;
        self.handovers = snapshot.handovers;
        Ok(())
    }

    // -- Quiescence parking ------------------------------------------------
    //
    // A particle may be *parked* by the runner when its algorithm declares
    // activations to be pure functions of the local view
    // (`Algorithm::supports_quiescence`) and an activation changed nothing.
    // Re-running such an activation stays a no-op until something in the
    // particle's local view changes, so every mutation path below wakes the
    // particles whose view it touches: memory writes (via the activation
    // context), movement operations, and perturbation removals.

    /// Enables or disables parking/waking bookkeeping (runner-controlled).
    pub(crate) fn set_parking(&mut self, enabled: bool) {
        self.parking = enabled;
        if !enabled {
            self.parked.fill(false);
            self.rebuild_ready();
        }
    }

    /// Whether parking bookkeeping is active.
    pub(crate) fn parking_enabled(&self) -> bool {
        self.parking
    }

    /// Whether the particle is currently parked.
    pub(crate) fn is_parked(&self, id: ParticleId) -> bool {
        self.parked[id.0]
    }

    /// Parks a particle (its last activation was a no-op).
    pub(crate) fn park(&mut self, id: ParticleId) {
        self.parked[id.0] = true;
        self.set_ready(id.0, false);
    }

    /// Wakes a parked particle (its local view changed).
    pub(crate) fn wake(&mut self, id: ParticleId) {
        if self.parked[id.0] {
            self.parked[id.0] = false;
            let ready = !self.removed[id.0] && !self.particles[id.0].terminated;
            self.set_ready(id.0, ready);
        }
    }

    /// Wakes every particle occupying a point adjacent to `p` (and at `p`
    /// itself).
    pub(crate) fn wake_adjacent_to(&mut self, p: Point) {
        if !self.parking {
            return;
        }
        if let Some(id) = self.occupancy.get(p) {
            self.wake(id);
        }
        self.wake_around(p, None);
    }

    /// Wakes every particle adjacent to `id` (its memory — part of their
    /// local views — is about to change): the occupants around its head
    /// and, when expanded, its tail. Waking is idempotent, so a neighbour
    /// adjacent to both points is simply woken twice.
    pub(crate) fn wake_neighbors_of(&mut self, id: ParticleId) {
        if !self.parking {
            return;
        }
        let Particle { head, tail, .. } = self.particles[id.0];
        self.wake_around(head, Some(id));
        if tail != head {
            self.wake_around(tail, Some(id));
        }
    }

    /// Wakes the occupants of the six points around `p`, except `except`.
    fn wake_around(&mut self, p: Point, except: Option<ParticleId>) {
        for n in p.neighbors() {
            if let Some(id) = self.occupancy.get(n) {
                if Some(id) != except {
                    self.wake(id);
                }
            }
        }
    }

    /// Clears every parked flag (liveness fallback); returns how many
    /// particles were unparked.
    pub(crate) fn unpark_all(&mut self) -> usize {
        let count = self.parked.iter().filter(|p| **p).count();
        self.parked.fill(false);
        self.rebuild_ready();
        count
    }

    // -- The ready set -----------------------------------------------------

    /// Sets or clears particle `i`'s ready bit.
    #[inline]
    fn set_ready(&mut self, i: usize, ready: bool) {
        let bit = 1u64 << (i % 64);
        if ready {
            self.ready[i / 64] |= bit;
        } else {
            self.ready[i / 64] &= !bit;
        }
    }

    /// Recomputes the whole ready set from the removed, terminated and
    /// parked flags.
    fn rebuild_ready(&mut self) {
        self.ready.clear();
        self.ready.resize(self.particles.len().div_ceil(64), 0);
        for i in 0..self.particles.len() {
            if !self.removed[i] && !self.particles[i].terminated && !self.parked[i] {
                self.set_ready(i, true);
            }
        }
    }

    /// Whether the particle is in the ready set: not removed, not
    /// terminated and not parked, so activating it may change something.
    #[inline]
    pub(crate) fn is_ready(&self, id: ParticleId) -> bool {
        self.ready[id.0 / 64] & (1u64 << (id.0 % 64)) != 0
    }

    /// Writes the ready set into `out` (cleared first; capacity retained),
    /// in ascending id order.
    pub(crate) fn ready_ids(&self, out: &mut Vec<ParticleId>) {
        out.clear();
        for (w, &word) in self.ready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(ParticleId(w * 64 + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
    }

    /// Checks the internal occupancy invariants (every occupied point maps to
    /// the particle occupying it, and vice versa, the terminated count
    /// matches the flags, and the ready set lists exactly the alive,
    /// unterminated, unparked particles); used by tests and debug
    /// assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut expected: HashMap<Point, ParticleId> = HashMap::new();
        for (i, p) in self.particles.iter().enumerate() {
            if self.removed[i] {
                continue;
            }
            for pt in p.occupied_points() {
                if let Some(prev) = expected.insert(pt, ParticleId(i)) {
                    return Err(format!("point {pt} occupied by both {prev} and P{i}"));
                }
            }
            if p.is_expanded() && !p.head.is_adjacent(p.tail) {
                return Err(format!("particle P{i} occupies non-adjacent points"));
            }
        }
        if expected.len() != self.occupancy.len() {
            return Err(format!(
                "occupancy size mismatch: map has {} entries, particles occupy {}",
                self.occupancy.len(),
                expected.len()
            ));
        }
        for (pt, id) in &expected {
            if self.occupancy.get(*pt) != Some(*id) {
                return Err(format!("occupancy map disagrees at {pt}"));
            }
        }
        let flagged = self.iter().filter(|(_, p)| p.terminated).count();
        if flagged != self.terminated {
            return Err(format!(
                "terminated count mismatch: counter {} vs flags {flagged}",
                self.terminated
            ));
        }
        if self.removed.iter().filter(|r| !**r).count() != self.alive {
            return Err("alive count disagrees with removed flags".to_string());
        }
        let mut ready = Vec::new();
        self.ready_ids(&mut ready);
        if !ready.iter().copied().eq(self
            .ids()
            .filter(|id| !self.particles[id.0].terminated && !self.parked[id.0]))
        {
            return Err("ready set disagrees with the removed, terminated and parked flags".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{ActivationContext, Algorithm};
    use pm_grid::builder::line;

    struct Dummy;
    impl Algorithm for Dummy {
        type Memory = u32;
        fn init(&self, ctx: &InitContext) -> u32 {
            // Record the number of occupied neighbours at init time.
            ctx.occupied.iter().filter(|o| **o).count() as u32
        }
        fn activate(&self, ctx: &mut ActivationContext<'_, u32>) {
            ctx.terminate();
        }
    }

    fn system_on_line(n: u32) -> ParticleSystem<u32> {
        ParticleSystem::from_shape(&line(n), &Dummy)
    }

    #[test]
    fn from_shape_creates_contracted_particles() {
        let sys = system_on_line(4);
        assert_eq!(sys.len(), 4);
        assert!(sys.all_contracted());
        assert!(!sys.all_terminated());
        assert!(sys.is_connected());
        assert_eq!(sys.shape(), line(4));
        sys.check_invariants().unwrap();
        // Endpoint particles saw one occupied neighbour, midpoints two.
        let endpoint = sys.particle_at(Point::new(0, 0)).unwrap();
        let midpoint = sys.particle_at(Point::new(1, 0)).unwrap();
        assert_eq!(*sys.particle(endpoint).memory(), 1);
        assert_eq!(*sys.particle(midpoint).memory(), 2);
    }

    #[test]
    fn both_backends_agree_on_construction() {
        let shape = pm_grid::builder::hexagon(2);
        let dense =
            ParticleSystem::from_shape_with_backend(&shape, &Dummy, OccupancyBackend::Dense);
        let hashed =
            ParticleSystem::from_shape_with_backend(&shape, &Dummy, OccupancyBackend::Hashed);
        dense.check_invariants().unwrap();
        hashed.check_invariants().unwrap();
        assert_eq!(dense.shape(), hashed.shape());
        for p in shape.iter() {
            assert_eq!(dense.particle_at(p), hashed.particle_at(p));
        }
        for (id, particle) in dense.iter() {
            assert_eq!(particle.memory(), hashed.particle(id).memory());
        }
    }

    #[test]
    fn expand_and_contract() {
        let mut sys = system_on_line(2);
        let id = sys.particle_at(Point::new(1, 0)).unwrap();
        // Expand east into an empty point.
        sys.expand(id, Direction::E).unwrap();
        assert!(sys.particle(id).is_expanded());
        assert_eq!(sys.particle(id).head(), Point::new(2, 0));
        assert_eq!(sys.particle(id).tail(), Point::new(1, 0));
        assert!(sys.is_occupied(Point::new(2, 0)));
        sys.check_invariants().unwrap();
        // Cannot expand again while expanded.
        assert_eq!(
            sys.expand(id, Direction::E),
            Err(MoveError::AlreadyExpanded)
        );
        // Contract to head frees the tail point.
        sys.contract_to_head(id).unwrap();
        assert!(sys.particle(id).is_contracted());
        assert!(!sys.is_occupied(Point::new(1, 0)));
        sys.check_invariants().unwrap();
        assert_eq!(sys.move_counts(), (1, 1, 0));
    }

    #[test]
    fn contract_to_tail_frees_head() {
        let mut sys = system_on_line(1);
        let id = sys.particle_at(Point::new(0, 0)).unwrap();
        sys.expand(id, Direction::SE).unwrap();
        sys.contract_to_tail(id).unwrap();
        assert_eq!(sys.particle(id).head(), Point::new(0, 0));
        assert!(!sys.is_occupied(Point::new(0, 1)));
        sys.check_invariants().unwrap();
    }

    #[test]
    fn expansion_into_contracted_particle_fails() {
        let mut sys = system_on_line(2);
        let id = sys.particle_at(Point::new(0, 0)).unwrap();
        assert_eq!(sys.expand(id, Direction::E), Err(MoveError::TargetOccupied));
    }

    #[test]
    fn handover_transfers_the_point() {
        let mut sys = system_on_line(2);
        let left = sys.particle_at(Point::new(0, 0)).unwrap();
        let right = sys.particle_at(Point::new(1, 0)).unwrap();
        // Right expands east, then left performs a handover into right's tail.
        sys.expand(right, Direction::E).unwrap();
        sys.expand(left, Direction::E).unwrap();
        assert!(sys.particle(left).is_expanded());
        assert!(sys.particle(right).is_contracted());
        assert_eq!(sys.particle(right).head(), Point::new(2, 0));
        assert_eq!(sys.particle(left).head(), Point::new(1, 0));
        assert_eq!(sys.particle(left).tail(), Point::new(0, 0));
        sys.check_invariants().unwrap();
        let (expansions, _, handovers) = sys.move_counts();
        assert_eq!(expansions, 1);
        assert_eq!(handovers, 1);
    }

    #[test]
    fn contracting_a_contracted_particle_fails() {
        let mut sys = system_on_line(1);
        let id = sys.particle_at(Point::new(0, 0)).unwrap();
        assert_eq!(sys.contract_to_head(id), Err(MoveError::NotExpanded));
        assert_eq!(sys.contract_to_tail(id), Err(MoveError::NotExpanded));
    }

    #[test]
    fn neighbors_of_reports_distinct_adjacent_particles() {
        let sys = ParticleSystem::from_shape(&pm_grid::builder::hexagon(1), &Dummy);
        let center = sys.particle_at(Point::new(0, 0)).unwrap();
        assert_eq!(sys.neighbors_of(center).len(), 6);
        let rim = sys.particle_at(Point::new(1, 0)).unwrap();
        assert_eq!(sys.neighbors_of(rim).len(), 3);
    }

    #[test]
    fn disconnection_is_permitted_and_detected() {
        let mut sys = system_on_line(3);
        let middle = sys.particle_at(Point::new(1, 0)).unwrap();
        // The middle particle walks away to the south: the system disconnects.
        sys.expand(middle, Direction::SE).unwrap();
        sys.contract_to_head(middle).unwrap();
        assert!(!sys.is_connected());
        sys.check_invariants().unwrap();
    }

    #[test]
    fn particles_can_leave_the_dense_rectangle() {
        // A particle that wanders far outside the initial bounding box lands
        // in the overflow map; every query keeps working.
        let mut sys = system_on_line(2);
        let id = sys.particle_at(Point::new(1, 0)).unwrap();
        for _ in 0..10 {
            sys.expand(id, Direction::E).unwrap();
            sys.contract_to_head(id).unwrap();
            sys.check_invariants().unwrap();
        }
        let far = Point::new(11, 0);
        assert_eq!(sys.particle_at(far), Some(id));
        assert!(sys.is_occupied(far));
        assert!(!sys.is_connected());
        assert_eq!(sys.shape().len(), 2);
        // And it can come back.
        for _ in 0..10 {
            sys.expand(id, Direction::W).unwrap();
            sys.contract_to_head(id).unwrap();
            sys.check_invariants().unwrap();
        }
        assert!(sys.is_connected());
    }

    #[test]
    fn remove_particle_vacates_points_and_updates_counts() {
        let mut sys = system_on_line(3);
        let middle = sys.particle_at(Point::new(1, 0)).unwrap();
        assert!(sys.remove_particle(middle));
        assert!(!sys.remove_particle(middle), "double removal is a no-op");
        assert_eq!(sys.len(), 2);
        assert!(!sys.is_occupied(Point::new(1, 0)));
        assert!(sys.is_removed(middle));
        assert_eq!(sys.ids().count(), 2);
        assert_eq!(sys.iter().count(), 2);
        assert!(!sys.is_connected());
        sys.check_invariants().unwrap();
        assert_eq!(
            sys.particle_positions(),
            vec![Point::new(0, 0), Point::new(2, 0)]
        );
    }

    #[test]
    fn removing_a_terminated_particle_keeps_all_terminated_consistent() {
        let mut sys = system_on_line(2);
        let left = sys.particle_at(Point::new(0, 0)).unwrap();
        let right = sys.particle_at(Point::new(1, 0)).unwrap();
        sys.set_terminated(left);
        assert!(!sys.all_terminated());
        sys.remove_particle(left);
        // The only remaining particle is unterminated.
        assert!(!sys.all_terminated());
        sys.set_terminated(right);
        assert!(sys.all_terminated());
        sys.check_invariants().unwrap();
    }

    #[test]
    fn removing_an_expanded_particle_frees_both_points() {
        let mut sys = system_on_line(1);
        let id = sys.particle_at(Point::new(0, 0)).unwrap();
        sys.expand(id, Direction::E).unwrap();
        sys.remove_particle(id);
        assert!(!sys.is_occupied(Point::new(0, 0)));
        assert!(!sys.is_occupied(Point::new(1, 0)));
        assert!(sys.is_empty());
        sys.check_invariants().unwrap();
    }

    #[test]
    fn reinitialize_contracts_resets_memories_and_clears_termination() {
        let mut sys = ParticleSystem::from_shape(&line(3), &Dummy);
        let left = sys.particle_at(Point::new(0, 0)).unwrap();
        let right = sys.particle_at(Point::new(2, 0)).unwrap();
        sys.set_terminated(left);
        sys.expand(right, Direction::E).unwrap();
        sys.remove_particle(sys.particle_at(Point::new(1, 0)).unwrap());
        sys.reinitialize(&Dummy);
        sys.check_invariants().unwrap();
        assert!(sys.all_contracted(), "expanded survivors are contracted");
        assert!(!sys.particle(left).is_terminated());
        assert_eq!(sys.len(), 2);
        // Dummy's init records the occupied-neighbour count of the *current*
        // configuration: the survivors at (0,0) and (2,0) are isolated.
        for (_, p) in sys.iter() {
            assert_eq!(*p.memory(), 0, "memory rebuilt from the perturbed shape");
        }
        // Movement counters survive the reset (the report keeps run totals).
        assert_eq!(sys.move_counts().0, 1);
    }

    #[test]
    fn add_particle_grows_the_system_with_a_fresh_slot() {
        let mut sys = ParticleSystem::from_shape(&line(2), &Dummy);
        let p = Point::new(2, 0);
        assert!(sys.add_particle(p, &Dummy));
        assert!(!sys.add_particle(p, &Dummy), "point now occupied");
        assert_eq!(sys.len(), 3);
        assert!(sys.is_connected());
        sys.check_invariants().unwrap();
        // The new particle's memory was initialized on the post-addition
        // shape: it sees exactly its one west neighbour.
        let id = sys.particle_at(p).unwrap();
        assert_eq!(id.index(), 2, "fresh slot, ids stay stable");
        assert_eq!(*sys.particle(id).memory(), 1);
        // Additions work on both backends, including outside the dense
        // rectangle (overflow map).
        let far = Point::new(40, 0);
        assert!(sys.add_particle(far, &Dummy));
        assert_eq!(*sys.particle(sys.particle_at(far).unwrap()).memory(), 0);
        sys.check_invariants().unwrap();
        let mut hashed =
            ParticleSystem::from_shape_with_backend(&line(2), &Dummy, OccupancyBackend::Hashed);
        assert!(hashed.add_particle(p, &Dummy));
        hashed.check_invariants().unwrap();
    }

    /// Corruption support: `corrupt` overwrites the counter with the
    /// entropy's low bits and reports a change iff the value differs.
    struct Corruptible;
    impl Algorithm for Corruptible {
        type Memory = u32;
        fn init(&self, _ctx: &InitContext) -> u32 {
            0
        }
        fn activate(&self, ctx: &mut ActivationContext<'_, u32>) {
            ctx.terminate();
        }
        fn corrupt(&self, memory: &mut u32, entropy: u64) -> bool {
            let scrambled = entropy as u32;
            let changed = *memory != scrambled;
            *memory = scrambled;
            changed
        }
    }

    #[test]
    fn corrupt_particle_scrambles_memory_and_revokes_termination() {
        let mut sys = ParticleSystem::from_shape(&line(2), &Corruptible);
        let left = sys.particle_at(Point::new(0, 0)).unwrap();
        let right = sys.particle_at(Point::new(1, 0)).unwrap();
        sys.set_terminated(left);
        sys.set_terminated(right);
        assert!(sys.all_terminated());
        assert!(sys.corrupt_particle(left, &Corruptible, 7));
        assert_eq!(*sys.particle(left).memory(), 7);
        assert!(!sys.particle(left).is_terminated(), "final state revoked");
        assert!(!sys.all_terminated());
        sys.check_invariants().unwrap();
        // A corruption that does not change the memory is not a fault.
        assert!(!sys.corrupt_particle(left, &Corruptible, 7));
        // Removed particles cannot be corrupted.
        sys.remove_particle(left);
        assert!(!sys.corrupt_particle(left, &Corruptible, 9));
    }

    #[test]
    fn corrupt_particle_is_a_noop_without_a_corruption_model() {
        // `Dummy` keeps the default `corrupt` (no corruption model).
        let mut sys = ParticleSystem::from_shape(&line(1), &Dummy);
        let id = sys.particle_at(Point::new(0, 0)).unwrap();
        let before = *sys.particle(id).memory();
        assert!(!sys.corrupt_particle(id, &Dummy, u64::MAX));
        assert_eq!(*sys.particle(id).memory(), before);
    }

    /// The ready set equals the brute-force enumeration of alive,
    /// unterminated, unparked particles, bit by bit and as a list.
    fn assert_ready_set_matches_flags<M>(sys: &ParticleSystem<M>, after: &str) {
        let expected: Vec<ParticleId> = sys
            .ids()
            .filter(|id| !sys.particle(*id).is_terminated() && !sys.is_parked(*id))
            .collect();
        let mut ready = Vec::new();
        sys.ready_ids(&mut ready);
        assert_eq!(ready, expected, "ready list after {after}");
        for i in 0..sys.particles.len() {
            let id = ParticleId(i);
            assert_eq!(
                sys.is_ready(id),
                expected.contains(&id),
                "P{i} after {after}"
            );
        }
        sys.check_invariants().unwrap();
    }

    #[test]
    fn the_ready_set_follows_every_mutation_path() {
        let mut sys = ParticleSystem::from_shape(&line(64), &Corruptible);
        sys.set_parking(true);
        assert_ready_set_matches_flags(&sys, "construction");
        let p = ParticleId;

        for i in [3, 4, 62, 63] {
            sys.park(p(i));
        }
        assert_ready_set_matches_flags(&sys, "park");
        sys.wake(p(3));
        assert_ready_set_matches_flags(&sys, "wake");
        sys.wake_neighbors_of(p(5));
        assert!(sys.is_ready(p(4)), "P5's neighbour P4 woke");
        sys.wake_adjacent_to(sys.particle(p(63)).head());
        assert!(sys.is_ready(p(62)) && sys.is_ready(p(63)));
        assert_ready_set_matches_flags(&sys, "neighbour wakes");

        sys.set_terminated(p(10));
        assert_ready_set_matches_flags(&sys, "terminate");
        assert!(sys.remove_particle(p(20)));
        assert_ready_set_matches_flags(&sys, "remove_particle");
        // The 65th particle opens the second word of the set.
        assert!(sys.add_particle(Point::new(64, 0), &Corruptible));
        assert!(sys.is_ready(p(64)));
        assert_ready_set_matches_flags(&sys, "add_particle");

        sys.set_terminated(p(30));
        assert!(sys.corrupt_particle(p(30), &Corruptible, 7));
        assert!(sys.is_ready(p(30)), "a revoked final state is ready again");
        assert_ready_set_matches_flags(&sys, "corrupting a terminated particle");
        sys.park(p(31));
        assert!(sys.corrupt_particle(p(31), &Corruptible, 9));
        assert!(sys.is_ready(p(31)), "a corrupted particle wakes");
        assert_ready_set_matches_flags(&sys, "corrupting a parked particle");

        sys.park(p(5));
        sys.park(p(64));
        assert_eq!(sys.unpark_all(), 2);
        assert_ready_set_matches_flags(&sys, "unpark_all");

        sys.park(p(7));
        sys.set_terminated(p(8));
        let snapshot = sys.snapshot();
        sys.reinitialize(&Corruptible);
        assert!(sys.is_ready(p(7)) && sys.is_ready(p(8)) && sys.is_ready(p(10)));
        assert_ready_set_matches_flags(&sys, "reinitialize");
        sys.restore_snapshot(&snapshot).unwrap();
        assert!(!sys.is_ready(p(7)) && !sys.is_ready(p(8)) && !sys.is_ready(p(20)));
        assert_ready_set_matches_flags(&sys, "restore_snapshot");

        sys.set_parking(false);
        assert!(sys.is_ready(p(7)), "parked flags are dropped with parking");
        assert_ready_set_matches_flags(&sys, "set_parking(false)");
    }

    #[test]
    fn restore_refuses_configurations_no_execution_reaches() {
        let mut sys = system_on_line(3);
        let right = sys.particle_at(Point::new(2, 0)).unwrap();
        sys.expand(right, Direction::E).unwrap();
        let genuine = sys.snapshot();
        let before = sys.snapshot();
        let crafted = |edit: &dyn Fn(&mut Vec<Particle<u32>>)| {
            let mut snapshot = genuine.clone();
            edit(&mut snapshot.particles);
            snapshot
        };
        let stacked = crafted(&|particles| particles[1].head = particles[0].head);
        let torn = crafted(&|particles| particles[2].tail = Point::new(0, 5));
        // The line's bounding rectangle is (0, 0)..=(2, 0); a restored point
        // may lie up to RESTORE_MARGIN beyond it.
        let margin = RESTORE_MARGIN as i32;
        let far = crafted(&|particles| {
            particles[0].head = Point::new(-margin - 1, 0);
            particles[0].tail = particles[0].head;
        });
        let extreme = crafted(&|particles| {
            particles[2].head = Point::new(i32::MIN, i32::MAX);
        });
        let near = crafted(&|particles| {
            particles[0].head = Point::new(-margin, margin);
            particles[0].tail = particles[0].head;
        });
        for (name, snapshot) in [
            ("stacked", stacked),
            ("torn", torn),
            ("far", far),
            ("extreme", extreme),
        ] {
            let error = sys.restore_snapshot(&snapshot).unwrap_err();
            assert!(!error.is_empty(), "{name}");
            // Nothing changed: every point and counter is as before.
            assert_eq!(sys.particle_positions(), particle_heads(&before), "{name}");
            assert_eq!(sys.shape().len(), 4, "{name}");
            sys.check_invariants().unwrap();
        }
        sys.restore_snapshot(&near).unwrap();
        sys.check_invariants().unwrap();
        // A removed slot's stale points are not part of the configuration.
        let mut removed = crafted(&|particles| particles[1].head = particles[0].head);
        removed.removed[1] = true;
        sys.restore_snapshot(&removed).unwrap();
        sys.check_invariants().unwrap();
    }

    fn particle_heads(snapshot: &SystemSnapshot<u32>) -> Vec<Point> {
        snapshot.particles.iter().map(|p| p.head).collect()
    }

    #[test]
    fn move_error_display() {
        assert_eq!(
            MoveError::NotExpanded.to_string(),
            "particle is not expanded"
        );
        assert!(MoveError::TargetOccupied.to_string().contains("occupied"));
    }
}
