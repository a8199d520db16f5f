//! # bh-octree — the Concurrent Octree strategy (paper §IV-A)
//!
//! A Barnes-Hut octree whose construction, multipole reduction and force
//! traversal are all *fully parallel* with `O(N)` available parallelism:
//!
//! * **BUILDTREE** (Algorithm 4/5): every body is inserted concurrently by a
//!   root-to-leaf descent. Child slots are tagged atomics
//!   (`Empty | Locked | Body(i) | Node(offset)`); threads lock a leaf with
//!   `compare_exchange`, sub-divide it inside a critical section, and
//!   publish with a release store. The algorithm is **starvation-free**, so
//!   the policy parameter is bounded by
//!   [`stdpar::policy::ParallelForwardProgress`] — calling it with
//!   `ParUnseq` does not compile, mirroring the paper's finding that the
//!   octree hangs on GPUs without Independent Thread Scheduling.
//! * **CALCULATEMULTIPOLES** (Fig. 2): a wait-free bottom-up tree reduction.
//!   One logical thread per node; leaves accumulate their moments onto the
//!   parent with relaxed `AtomicF64::fetch_add` and an acquire-release
//!   arrival counter; the last arriving thread recurses upward.
//! * **CALCULATEFORCE** (Fig. 3): a stackless depth-first traversal using
//!   the invariant that child offsets always exceed their parent's offset,
//!   plus the per-sibling-group parent offset — runs under `par_unseq`.
//!
//! Memory layout follows Fig. 1: one 4-byte tagged child offset per node,
//! one 4-byte parent offset per sibling group, nodes allocated in Morton
//! order from a concurrent bump allocator.
//!
//! ```
//! use bh_octree::Octree;
//! use nbody_math::{Aabb, Vec3};
//! use stdpar::prelude::*;
//!
//! let pos = vec![
//!     Vec3::new(0.1, 0.1, 0.1),
//!     Vec3::new(0.9, 0.2, 0.4),
//!     Vec3::new(0.4, 0.8, 0.6),
//! ];
//! let mass = vec![1.0, 2.0, 3.0];
//! let mut tree = Octree::new();
//! tree.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
//! tree.compute_multipoles(Par, &pos, &mass);
//! let mut acc = vec![Vec3::ZERO; pos.len()];
//! tree.compute_forces(ParUnseq, &pos, &mass, &mut acc, &bh_octree::ForceParams::default());
//! assert!(acc.iter().all(|a| a.is_finite()));
//! ```

pub mod blocked;
pub mod force;
pub mod incremental;
pub mod multipole;
pub mod query;
pub mod scratch;
pub mod tags;
pub mod traverse;
pub mod tree;
pub mod validate;

pub use force::ForceParams;
pub use incremental::{IncrementalStats, NeedsRebuild};
pub use scratch::TraversalScratch;
pub use tree::{BuildError, BuildStats, Octree, DEFAULT_SPIN_BUDGET, MAX_DEPTH};
pub use validate::TreeInvariants;
