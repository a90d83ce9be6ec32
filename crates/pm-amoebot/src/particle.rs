//! Particles: the mobile, constant-memory agents of the amoebot model.

use pm_grid::Point;
use std::fmt;

/// A stable identifier of a particle within a [`crate::system::ParticleSystem`].
///
/// Identifiers exist only at the simulator level: the particles themselves
/// are anonymous (they carry no identifier in their memory), exactly as in
/// the amoebot model. Algorithms must not base decisions on `ParticleId`
/// values; they receive them only as opaque handles for neighbour reads and
/// writes during a single activation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParticleId(pub(crate) usize);

impl ParticleId {
    /// The simulator-level index of this particle.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a particle id from a simulator-level index.
    ///
    /// This is intended for harness code (schedulers, tests, tools) that
    /// addresses particles by their creation index; algorithms must not use
    /// it, since particles are anonymous in the model.
    pub fn from_index(index: usize) -> ParticleId {
        ParticleId(index)
    }
}

impl fmt::Debug for ParticleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ParticleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A particle: occupies its `head` point and, when expanded, also a distinct
/// adjacent `tail` point. Carries an algorithm-specific memory `M` and a
/// `terminated` flag (the paper's *final state*).
#[derive(Clone, Debug)]
pub struct Particle<M> {
    pub(crate) head: Point,
    pub(crate) tail: Point,
    pub(crate) memory: M,
    pub(crate) terminated: bool,
}

impl<M> Particle<M> {
    /// Creates a contracted particle at `point` with the given memory.
    pub fn contracted(point: Point, memory: M) -> Particle<M> {
        Particle {
            head: point,
            tail: point,
            memory,
            terminated: false,
        }
    }

    /// The head point (for a contracted particle, its only point).
    pub fn head(&self) -> Point {
        self.head
    }

    /// The tail point (equal to the head iff the particle is contracted).
    pub fn tail(&self) -> Point {
        self.tail
    }

    /// Whether the particle currently occupies two points.
    pub fn is_expanded(&self) -> bool {
        self.head != self.tail
    }

    /// Whether the particle currently occupies a single point.
    pub fn is_contracted(&self) -> bool {
        self.head == self.tail
    }

    /// Whether the particle occupies the given point (as head or tail).
    pub fn occupies(&self, p: Point) -> bool {
        self.head == p || self.tail == p
    }

    /// The points occupied by the particle (one or two).
    pub fn occupied_points(&self) -> impl Iterator<Item = Point> {
        let head = self.head;
        let tail = self.tail;
        std::iter::once(head).chain((head != tail).then_some(tail))
    }

    /// The algorithm memory of the particle.
    pub fn memory(&self) -> &M {
        &self.memory
    }

    /// Mutable access to the algorithm memory.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.memory
    }

    /// Whether the particle has reached a final state.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contracted_particle_basics() {
        let p = Particle::contracted(Point::new(1, 2), 7u32);
        assert!(p.is_contracted());
        assert!(!p.is_expanded());
        assert_eq!(p.head(), p.tail());
        assert!(p.occupies(Point::new(1, 2)));
        assert!(!p.occupies(Point::new(0, 0)));
        assert_eq!(p.occupied_points().count(), 1);
        assert_eq!(*p.memory(), 7);
        assert!(!p.is_terminated());
    }

    #[test]
    fn particle_id_display() {
        let id = ParticleId(3);
        assert_eq!(format!("{id}"), "P3");
        assert_eq!(format!("{id:?}"), "P3");
        assert_eq!(id.index(), 3);
    }
}
