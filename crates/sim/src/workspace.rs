//! The simulation-wide scratch arena: every transient buffer a step needs.
//!
//! [`SimWorkspace`] owns the per-solver scratch spaces — the BVH's
//! key/sort/permutation buffers and interaction-list pool, and the octree's
//! DFS-order buffers and interaction-list pool — so a steady-state
//! simulation performs **zero heap allocations per step** once the buffers
//! have warmed up (enforced by the `alloc_regression` integration test
//! under the `alloc-stats` feature).
//!
//! Construction is allocation-free: all buffers start empty and grow on
//! first use. A workspace can be shared across solvers and across
//! simulations; buffers are sized to the high-water mark of whatever used
//! them, and each phase fully overwrites what it reads, so reuse across
//! changing body counts is safe (covered by the `workspace_reuse` test).
//!
//! Two ways to use it:
//!
//! * implicit — [`crate::Simulation::step`] draws from a workspace owned by
//!   the simulation; nothing to manage.
//! * explicit — [`crate::Simulation::step_into`] borrows a caller-owned
//!   workspace, letting several short-lived simulations share one arena, or
//!   callers drop/inspect it between runs.

use bh_bvh::BvhScratch;
use bh_octree::TraversalScratch;
use stdpar::scan::ScanScratch;

/// Scratch arena threaded through sort, build, traversal and integration.
/// `Default` construction allocates nothing.
#[derive(Default)]
pub struct SimWorkspace {
    /// Hilbert key/sort/permutation buffers + blocked-traversal lists.
    pub(crate) bvh: BvhScratch,
    /// DFS order/stack buffers + blocked-traversal lists.
    pub(crate) octree: TraversalScratch,
    /// Prefix-scan intermediates for offset computations (`usize` counts:
    /// bucket offsets, compaction indices) run through
    /// [`stdpar::scan::exclusive_scan_into`] by analysis passes that share
    /// the simulation's arena.
    scan: ScanScratch<usize>,
}

impl SimWorkspace {
    /// An empty workspace (no allocations until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared prefix-scan scratch, for callers running offset scans
    /// (`exclusive_scan_into` / `inclusive_scan_into`) against this arena.
    pub fn scan_scratch(&mut self) -> &mut ScanScratch<usize> {
        &mut self.scan
    }
}
