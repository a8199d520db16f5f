//! Force solvers: the two tree strategies plus the two `O(N²)` all-pairs
//! baselines evaluated in the paper (§V-A "Algorithms").
//!
//! | solver | parallelised over | policy requirement |
//! |---|---|---|
//! | `All-Pairs` | bodies | any (paper: `par_unseq`) |
//! | `All-Pairs-Col` | force-pairs, atomic accumulation | parallel forward progress (`par`) |
//! | `Octree` | bodies / nodes | build+multipoles: `par`; force: `par_unseq` |
//! | `BVH` | bodies / nodes | any (`par_unseq` throughout) |
//!
//! The policy requirements are enforced twice: at compile time through the
//! [`ParallelForwardProgress`] bounds on the generic solver types, and at
//! run time in [`make_solver`] for the dynamic-dispatch path used by the
//! benchmark harness (where requesting `Octree` under `par_unseq` returns
//! [`SolverError::RequiresForwardProgress`] — the paper's "reliably caused
//! them to hang" case, §V-B).

use crate::resilient::ComputeError;
use crate::system::SystemState;
use crate::timing::{timed_counted, StepTimings};
use crate::workspace::SimWorkspace;
use bh_bvh::{Bvh, BvhParams};
use bh_octree::Octree;
use nbody_math::atomic_f64::atomic_f64_vec;
use nbody_math::gravity::{
    pair_accel, ForceEval, ForceKernel, ForceParams, KernelPrecision, TreeLifecycle,
};
use nbody_math::{Aabb, Vec3};
use nbody_resilience::FaultKind;
use std::sync::atomic::Ordering;
use stdpar::policy::DynPolicy;
use stdpar::prelude::*;

/// Physics and accuracy parameters shared by all solvers.
#[derive(Clone, Copy, Debug)]
pub struct SolverParams {
    pub theta: f64,
    pub softening: f64,
    pub g: f64,
    /// Quadrupole extension (both trees).
    pub quadrupole: bool,
    /// Force-evaluation strategy (both trees): one traversal per body, or
    /// one traversal per group with shared SoA interaction lists.
    pub eval: ForceEval,
    /// Kernel consuming the blocked interaction lists (both trees; the
    /// scalar oracle or the tiled SIMD microkernel).
    pub kernel: ForceKernel,
    /// Precision mode of the SIMD kernel (f64 or mixed f32 far-field).
    pub precision: KernelPrecision,
    /// Hilbert grid resolution (BVH only).
    pub hilbert_bits: u32,
    /// Tree maintenance across steps (both trees): from-scratch rebuild
    /// per step, or a persistent delta-updated tree that is refreshed
    /// every `max_stale_steps + 1` steps and served stale in between with
    /// a drift-inflated MAC. `Incremental` manages its own reuse cadence
    /// and therefore ignores the `reuse_tree` flag of
    /// [`ForceSolver::try_compute_into`].
    pub lifecycle: TreeLifecycle,
}

impl Default for SolverParams {
    fn default() -> Self {
        SolverParams {
            theta: 0.5,
            softening: 0.0,
            g: 1.0,
            quadrupole: false,
            eval: ForceEval::PerBody,
            kernel: ForceKernel::Scalar,
            precision: KernelPrecision::F64,
            hilbert_bits: 16,
            lifecycle: TreeLifecycle::Rebuild,
        }
    }
}

impl SolverParams {
    fn force_params(&self) -> ForceParams {
        ForceParams {
            theta: self.theta,
            softening: self.softening,
            g: self.g,
            use_quadrupole: self.quadrupole,
            eval: self.eval,
            kernel: self.kernel,
            precision: self.precision,
            lifecycle: self.lifecycle,
            mac_pad: 0.0,
        }
    }
}

/// Inflation factor applied to the root cube when entering the incremental
/// lifecycle: the persistent octree must absorb a few steps of drift before
/// any body escapes its fixed cube and forces a from-scratch rebuild.
const INC_ROOT_INFLATE: f64 = 1.25;

/// Largest body displacement between the reference snapshot (positions at
/// the last tree refresh) and the current positions — the MAC pad for
/// stale-tree steps.
fn max_drift(reference: &[Vec3], positions: &[Vec3]) -> f64 {
    debug_assert_eq!(reference.len(), positions.len());
    reference
        .iter()
        .zip(positions)
        .map(|(a, b)| (*b - *a).norm())
        .fold(0.0, f64::max)
}

/// The four algorithms of the paper's evaluation, plus the tiled all-pairs
/// extension (Nyland et al., GPU Gems 3 — cited in the paper's related
/// work as the classic all-pairs optimisation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    AllPairs,
    AllPairsCol,
    Octree,
    Bvh,
    /// Cache-blocked all-pairs (not part of the paper's evaluated set;
    /// excluded from [`SolverKind::ALL`]).
    AllPairsTiled,
}

impl SolverKind {
    pub const ALL: [SolverKind; 4] =
        [SolverKind::AllPairs, SolverKind::AllPairsCol, SolverKind::Octree, SolverKind::Bvh];

    pub fn name(self) -> &'static str {
        match self {
            SolverKind::AllPairs => "all-pairs",
            SolverKind::AllPairsCol => "all-pairs-col",
            SolverKind::Octree => "octree",
            SolverKind::Bvh => "bvh",
            SolverKind::AllPairsTiled => "all-pairs-tiled",
        }
    }

    /// `O(N log N)` tree algorithms vs `O(N²)` baselines.
    pub fn is_tree(self) -> bool {
        matches!(self, SolverKind::Octree | SolverKind::Bvh)
    }
}

/// Solver construction failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// The algorithm takes locks / uses vectorization-unsafe atomics and
    /// therefore needs parallel forward progress; `par_unseq` was requested.
    RequiresForwardProgress(SolverKind),
    /// The system has zero bodies. Rejected at construction: an empty
    /// system has no bounding box, so letting it through only defers the
    /// failure to a panic deep in the tree build — callers that accept
    /// arbitrary configs (the session server) need the typed error here.
    EmptySystem,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::RequiresForwardProgress(k) => write!(
                f,
                "{} requires parallel forward progress (par); par_unseq lacks it \
                 — on real GPUs without Independent Thread Scheduling this hangs",
                k.name()
            ),
            SolverError::EmptySystem => {
                write!(f, "simulation needs at least one body (the system is empty)")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// A force solver that fills accelerations for the integrator.
///
/// The one required method is [`ForceSolver::try_compute_into`], which
/// draws every transient buffer from a caller-owned [`SimWorkspace`] —
/// the zero-steady-state-allocation contract (see `DESIGN.md` § Memory
/// management). The convenience entry points (`compute`, `try_compute`,
/// `compute_into`) are provided on top; the workspace-less ones build a
/// throwaway arena per call, trading allocations for ergonomics.
pub trait ForceSolver: Send {
    fn kind(&self) -> SolverKind;
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Compute `accel[i] = a_i` for the given state, drawing scratch
    /// buffers from `ws` and surfacing structural failures (tree build
    /// errors) as [`ComputeError`] values so a wrapper (see
    /// [`crate::resilient::ResilientSolver`]) can retry or degrade.
    ///
    /// With `reuse_tree = true`, tree solvers skip the bounding-box, sort,
    /// build and multipole phases and traverse the *previous* step's tree
    /// (the Iwasawa et al. amortisation discussed in the paper's related
    /// work — an extra approximation, useful as an ablation).
    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse_tree: bool,
        ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError>;

    /// Infallible [`ForceSolver::try_compute_into`]: panics on structural
    /// failure (the all-pairs baselines never fail).
    fn compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse_tree: bool,
        ws: &mut SimWorkspace,
    ) -> StepTimings {
        match self.try_compute_into(state, accel, reuse_tree, ws) {
            Ok(t) => t,
            Err(e) => panic!("{} force computation failed: {e}", self.name()),
        }
    }

    /// [`ForceSolver::compute_into`] with a throwaway workspace
    /// (per-call allocations; prefer `compute_into` in steady-state loops).
    fn compute(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse_tree: bool,
    ) -> StepTimings {
        self.compute_into(state, accel, reuse_tree, &mut SimWorkspace::new())
    }

    /// [`ForceSolver::try_compute_into`] with a throwaway workspace.
    fn try_compute(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse_tree: bool,
    ) -> Result<StepTimings, ComputeError> {
        self.try_compute_into(state, accel, reuse_tree, &mut SimWorkspace::new())
    }

    /// Check the solver's internal acceleration structure against `state`
    /// (tree invariants: every body reachable, boxes nested, no stale
    /// locks). Solvers without internal structure trivially pass.
    fn validate(&self, _state: &SystemState) -> Result<(), ComputeError> {
        Ok(())
    }

    /// Arm a one-shot injected fault for the next `try_compute`. Returns
    /// `true` if this solver supports injecting `kind`; the all-pairs
    /// baselines (and faults handled at the state level, like NaN
    /// positions) return `false`.
    fn inject_fault(&mut self, _kind: FaultKind) -> bool {
        false
    }

    /// Restrict a chained solver to fallback levels ≥ `min_level` for
    /// subsequent steps — the recovery ladder's "drop through the chain"
    /// rung ([`crate::guard`]); call with 0 to lift the restriction.
    /// Returns `true` if this solver has a chain to escalate; plain
    /// solvers return `false`.
    fn escalate_fallback(&mut self, _min_level: usize) -> bool {
        false
    }
}

/// Construct a solver for a runtime-selected policy.
pub fn make_solver(
    kind: SolverKind,
    policy: DynPolicy,
    params: SolverParams,
) -> Result<Box<dyn ForceSolver>, SolverError> {
    Ok(match (kind, policy) {
        (SolverKind::AllPairs, DynPolicy::Seq) => Box::new(AllPairsSolver { policy: Seq, params }),
        (SolverKind::AllPairs, DynPolicy::Par) => Box::new(AllPairsSolver { policy: Par, params }),
        (SolverKind::AllPairs, DynPolicy::ParUnseq) => {
            Box::new(AllPairsSolver { policy: ParUnseq, params })
        }
        (SolverKind::AllPairsCol, DynPolicy::Seq) => {
            Box::new(AllPairsColSolver::new(Seq, params))
        }
        (SolverKind::AllPairsCol, DynPolicy::Par) => {
            Box::new(AllPairsColSolver::new(Par, params))
        }
        (SolverKind::AllPairsCol, DynPolicy::ParUnseq) => {
            return Err(SolverError::RequiresForwardProgress(kind))
        }
        (SolverKind::Octree, DynPolicy::Seq) => Box::new(OctreeSolver::new(Seq, params)),
        (SolverKind::Octree, DynPolicy::Par) => Box::new(OctreeSolver::new(Par, params)),
        (SolverKind::Octree, DynPolicy::ParUnseq) => {
            return Err(SolverError::RequiresForwardProgress(kind))
        }
        (SolverKind::Bvh, DynPolicy::Seq) => Box::new(BvhSolver::new(Seq, params)),
        (SolverKind::Bvh, DynPolicy::Par) => Box::new(BvhSolver::new(Par, params)),
        (SolverKind::Bvh, DynPolicy::ParUnseq) => Box::new(BvhSolver::new(ParUnseq, params)),
        (SolverKind::AllPairsTiled, DynPolicy::Seq) => {
            Box::new(AllPairsTiledSolver { policy: Seq, params })
        }
        (SolverKind::AllPairsTiled, DynPolicy::Par) => {
            Box::new(AllPairsTiledSolver { policy: Par, params })
        }
        (SolverKind::AllPairsTiled, DynPolicy::ParUnseq) => {
            Box::new(AllPairsTiledSolver { policy: ParUnseq, params })
        }
    })
}

// ---------------------------------------------------------------------------
// All-Pairs (classical): parallel over bodies, no synchronization.
// ---------------------------------------------------------------------------

/// The classical brute-force baseline: each body sums over all others.
pub struct AllPairsSolver<P: ExecutionPolicy> {
    pub policy: P,
    pub params: SolverParams,
}

impl<P: ExecutionPolicy> ForceSolver for AllPairsSolver<P> {
    fn kind(&self) -> SolverKind {
        SolverKind::AllPairs
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        _reuse: bool,
        _ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let eps2 = self.params.softening * self.params.softening;
        let g = self.params.g;
        let pos = &state.positions;
        let mass = &state.masses;
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            let out = SyncSlice::new(accel);
            for_each_index(self.policy, 0..pos.len(), |i| {
                let pi = pos[i];
                let mut a = Vec3::ZERO;
                for j in 0..pos.len() {
                    if j != i {
                        a += pair_accel(pos[j] - pi, mass[j], g, eps2);
                    }
                }
                unsafe { out.write(i, a) };
            });
        });
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// All-Pairs tiled: cache-blocked brute force (Nyland et al., GPU Gems 3).
// ---------------------------------------------------------------------------

/// Tile edge for the blocked all-pairs kernel: small enough that a j-tile
/// of positions+masses (32 B each) stays resident in L1 while a block of
/// i-rows streams over it.
const TILE: usize = 64;

/// Cache-blocked brute-force baseline: i-rows are processed in blocks, and
/// for each block the j-loop runs tile by tile so source data is reused
/// from cache TILE times — the CPU analogue of the shared-memory tiling of
/// Nyland et al.'s GPU kernel.
pub struct AllPairsTiledSolver<P: ExecutionPolicy> {
    pub policy: P,
    pub params: SolverParams,
}

impl<P: ExecutionPolicy> ForceSolver for AllPairsTiledSolver<P> {
    fn kind(&self) -> SolverKind {
        SolverKind::AllPairsTiled
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        _reuse: bool,
        _ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let n = state.len();
        let eps2 = self.params.softening * self.params.softening;
        let g = self.params.g;
        let pos = &state.positions;
        let mass = &state.masses;
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            let out = SyncSlice::new(accel);
            for_each_chunk(self.policy, 0..n, TILE, |rows| {
                let mut local = [Vec3::ZERO; TILE];
                let rlen = rows.len();
                let mut j0 = 0;
                while j0 < n {
                    let j1 = (j0 + TILE).min(n);
                    for (li, i) in rows.clone().enumerate() {
                        let pi = pos[i];
                        let mut a = local[li];
                        for j in j0..j1 {
                            if j != i {
                                a += pair_accel(pos[j] - pi, mass[j], g, eps2);
                            }
                        }
                        local[li] = a;
                    }
                    j0 = j1;
                }
                for (li, i) in rows.enumerate() {
                    if li < rlen {
                        unsafe { out.write(i, local[li]) };
                    }
                }
            });
        });
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// All-Pairs-Col: parallel over unordered force pairs, exploiting Newton's
// third law with concurrent atomic accumulation (paper: par + fetch_add).
// ---------------------------------------------------------------------------

/// The collision-style baseline: one element per unordered pair `(i, j)`;
/// each pair's force is accumulated into *both* bodies with relaxed
/// `AtomicF64::fetch_add`. Atomics are vectorization-unsafe, hence the
/// [`ParallelForwardProgress`] bound.
pub struct AllPairsColSolver<P: ParallelForwardProgress> {
    policy: P,
    params: SolverParams,
    acc: [Vec<nbody_math::AtomicF64>; 3],
}

impl<P: ParallelForwardProgress> AllPairsColSolver<P> {
    pub fn new(policy: P, params: SolverParams) -> Self {
        AllPairsColSolver { policy, params, acc: [Vec::new(), Vec::new(), Vec::new()] }
    }
}

/// `k`-th unordered pair `(i, j)` with `0 ≤ j < i < n`, enumerating row by
/// row: pairs `T(i) .. T(i+1)` have first index `i`, `T(i) = i(i−1)/2`.
#[inline]
pub fn pair_of(k: usize) -> (usize, usize) {
    #[inline]
    fn tri(i: usize) -> usize {
        i * (i - 1) / 2
    }
    let mut i = ((1.0 + (1.0 + 8.0 * k as f64).sqrt()) * 0.5) as usize;
    while tri(i) > k {
        i -= 1;
    }
    while tri(i + 1) <= k {
        i += 1;
    }
    (i, k - tri(i))
}

impl<P: ParallelForwardProgress> ForceSolver for AllPairsColSolver<P> {
    fn kind(&self) -> SolverKind {
        SolverKind::AllPairsCol
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        _reuse: bool,
        _ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let n = state.len();
        let eps2 = self.params.softening * self.params.softening;
        let g = self.params.g;
        // Accumulator vectors are solver-owned and grow-only: steady-state
        // steps at constant (or shrinking) N reallocate nothing.
        for c in &mut self.acc {
            if c.len() < n {
                *c = atomic_f64_vec(n, 0.0);
            }
        }
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            let acc = &self.acc;
            for_each_index(self.policy, 0..n, |i| {
                acc[0][i].store(0.0, Ordering::Relaxed);
                acc[1][i].store(0.0, Ordering::Relaxed);
                acc[2][i].store(0.0, Ordering::Relaxed);
            });
            let pos = &state.positions;
            let mass = &state.masses;
            let pairs = n * n.saturating_sub(1) / 2;
            for_each_index(self.policy, 0..pairs, |k| {
                let (i, j) = pair_of(k);
                let d = pos[j] - pos[i];
                let r2 = d.norm2() + eps2;
                if r2 > 0.0 {
                    let f = d * (g / (r2 * r2.sqrt()));
                    // a_i += m_j f;  a_j -= m_i f  (Newton's third law).
                    let (mi, mj) = (mass[i], mass[j]);
                    acc[0][i].fetch_add(mj * f.x, Ordering::Relaxed);
                    acc[1][i].fetch_add(mj * f.y, Ordering::Relaxed);
                    acc[2][i].fetch_add(mj * f.z, Ordering::Relaxed);
                    acc[0][j].fetch_add(-mi * f.x, Ordering::Relaxed);
                    acc[1][j].fetch_add(-mi * f.y, Ordering::Relaxed);
                    acc[2][j].fetch_add(-mi * f.z, Ordering::Relaxed);
                }
            });
            let out = SyncSlice::new(accel);
            for_each_index(self.policy, 0..n, |i| {
                let a = Vec3::new(
                    acc[0][i].load(Ordering::Relaxed),
                    acc[1][i].load(Ordering::Relaxed),
                    acc[2][i].load(Ordering::Relaxed),
                );
                unsafe { out.write(i, a) };
            });
        });
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// Concurrent Octree (paper §IV-A).
// ---------------------------------------------------------------------------

/// The Concurrent Octree strategy: Algorithm 2's five phases per step.
pub struct OctreeSolver<P: ParallelForwardProgress> {
    policy: P,
    params: SolverParams,
    tree: Octree,
    built: bool,
    /// Positions at the last tree refresh (incremental lifecycle): the
    /// reference of the per-step drift scan. Grow-only.
    ref_pos: Vec<Vec3>,
    /// Steps served from the stale tree since the last refresh.
    stale_steps: usize,
}

impl<P: ParallelForwardProgress> OctreeSolver<P> {
    pub fn new(policy: P, params: SolverParams) -> Self {
        let mut tree = Octree::new();
        tree.set_quadrupole(params.quadrupole);
        OctreeSolver { policy, params, tree, built: false, ref_pos: Vec::new(), stale_steps: 0 }
    }

    /// Access the tree (post-`compute` introspection for tests/benches).
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// Full (re)entry into the incremental lifecycle: from-scratch build on
    /// an inflated root cube, sequential DFS moments, free-list/caches init.
    fn init_incremental_tree(
        &mut self,
        state: &SystemState,
        t: &mut StepTimings,
    ) -> Result<(), ComputeError> {
        self.built = false;
        let bbox =
            timed_counted(&mut t.bbox, &mut t.allocs.bbox, || state.bounding_box(self.policy));
        let c = bbox.center();
        let he = bbox.extent() * (0.5 * INC_ROOT_INFLATE);
        let inflated = Aabb::new(c - he, c + he);
        let mut built = Ok(Default::default());
        timed_counted(&mut t.build, &mut t.allocs.build, || {
            built = self.tree.build(self.policy, &state.positions, inflated);
            if built.is_ok() {
                self.tree.init_incremental(&state.positions);
            }
        });
        let _stats: bh_octree::BuildStats = built.map_err(ComputeError::Build)?;
        timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
            // Sequential DFS moments, not the parallel bottom-up pass: the
            // incremental refresh recomputes dirty paths with the same DFS
            // combination order, so stored and recomputed moments stay
            // bitwise-consistent (the DetPar moment probes check exactly
            // that).
            self.tree.compute_multipoles_dfs(&state.positions, &state.masses);
        });
        self.built = true;
        self.ref_pos.clear();
        self.ref_pos.extend_from_slice(&state.positions);
        self.stale_steps = 0;
        Ok(())
    }

    /// One step of the incremental lifecycle: serve stale with a padded
    /// MAC, or delta-refresh the persistent tree (falling back to a full
    /// rebuild when the delta update reports it cannot apply).
    fn advance_incremental(
        &mut self,
        state: &SystemState,
        max_stale: usize,
        fp: &mut ForceParams,
        t: &mut StepTimings,
    ) -> Result<(), ComputeError> {
        let n = state.len();
        let ready = self.built
            && self.tree.incremental_ready()
            && self.tree.n_bodies() == n
            && self.ref_pos.len() == n;
        if !ready {
            return self.init_incremental_tree(state, t);
        }
        // Drift scan — the bounding-box phase's analogue, timed into its
        // slot: how far any body moved since the tree last refreshed.
        let pad = timed_counted(&mut t.bbox, &mut t.allocs.bbox, || {
            max_drift(&self.ref_pos, &state.positions)
        });
        if self.stale_steps < max_stale {
            self.stale_steps += 1;
            fp.mac_pad = pad;
            nbody_telemetry::record!(counter TREE_REUSE_STEPS, 1);
            return Ok(());
        }
        // Refresh: delta-update the structure, recompute dirty moments.
        let mut updated = Ok(Default::default());
        timed_counted(&mut t.build, &mut t.allocs.build, || {
            updated = self.tree.update_incremental(&state.positions);
        });
        match updated {
            Ok(_stats) => {
                timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
                    self.tree.refresh_moments_incremental(&state.positions, &state.masses);
                });
                self.ref_pos.clear();
                self.ref_pos.extend_from_slice(&state.positions);
                self.stale_steps = 0;
                Ok(())
            }
            Err(_fallback) => self.init_incremental_tree(state, t),
        }
    }
}

impl<P: ParallelForwardProgress> ForceSolver for OctreeSolver<P> {
    fn kind(&self) -> SolverKind {
        SolverKind::Octree
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse: bool,
        ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let mut fp = self.params.force_params();
        match self.params.lifecycle {
            TreeLifecycle::Incremental { max_stale_steps } if !state.is_empty() => {
                self.advance_incremental(state, max_stale_steps as usize, &mut fp, &mut t)?;
            }
            _ => {
                let can_reuse = reuse && self.built && self.tree.n_bodies() == state.len();
                if !can_reuse {
                    self.built = false;
                    let bbox = timed_counted(&mut t.bbox, &mut t.allocs.bbox, || {
                        state.bounding_box(self.policy)
                    });
                    let mut built = Ok(Default::default());
                    timed_counted(&mut t.build, &mut t.allocs.build, || {
                        built = self.tree.build(self.policy, &state.positions, bbox);
                    });
                    let _stats: bh_octree::BuildStats = built.map_err(ComputeError::Build)?;
                    timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
                        self.tree.compute_multipoles(self.policy, &state.positions, &state.masses)
                    });
                    self.built = true;
                }
            }
        }
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            // Paper: CALCULATEFORCE runs under par_unseq (independent,
            // lock-free elements); sequential solvers stay sequential.
            if P::IS_PARALLEL {
                self.tree.compute_forces_with(
                    ParUnseq,
                    &state.positions,
                    &state.masses,
                    accel,
                    &fp,
                    &mut ws.octree,
                );
            } else {
                self.tree.compute_forces_with(
                    Seq,
                    &state.positions,
                    &state.masses,
                    accel,
                    &fp,
                    &mut ws.octree,
                );
            }
        });
        Ok(t)
    }

    fn validate(&self, state: &SystemState) -> Result<(), ComputeError> {
        // An incrementally maintained tree recycles free-list groups, so
        // the stackless-DFS child ordering no longer holds; the relaxed
        // check enforces acyclicity by visited set instead.
        let res = if self.tree.incremental_ready() {
            bh_octree::TreeInvariants::check_relaxed(&self.tree, &state.positions)
        } else {
            bh_octree::TreeInvariants::check(&self.tree, &state.positions)
        };
        res.map(|_| ()).map_err(ComputeError::InvariantViolation)
    }

    fn inject_fault(&mut self, kind: FaultKind) -> bool {
        match kind {
            FaultKind::StuckLock => {
                self.tree.inject_stuck_lock();
                true
            }
            FaultKind::AllocExhaustion => {
                self.tree.inject_pool_exhaustion();
                true
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Hilbert-sorted BVH (paper §IV-B).
// ---------------------------------------------------------------------------

/// The Hilbert-sorted BVH strategy: Algorithm 6's phases per step.
pub struct BvhSolver<P: ExecutionPolicy> {
    policy: P,
    params: SolverParams,
    bvh: Bvh,
    built: bool,
    /// Positions at the last tree refresh (incremental lifecycle). Grow-only.
    ref_pos: Vec<Vec3>,
    /// Steps served from the stale tree since the last refresh.
    stale_steps: usize,
}

impl<P: ExecutionPolicy> BvhSolver<P> {
    pub fn new(policy: P, params: SolverParams) -> Self {
        let bvh = Bvh::with_params(BvhParams {
            hilbert_bits: params.hilbert_bits,
            quadrupole: params.quadrupole,
            ..BvhParams::default()
        });
        BvhSolver { policy, params, bvh, built: false, ref_pos: Vec::new(), stale_steps: 0 }
    }

    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Refresh the persistent BVH: lazy Hilbert re-sort against the
    /// previous permutation (full-sort fallback inside), then the
    /// structure and moment passes. Also the first-build path — the lazy
    /// re-sort degrades to a full sort when no previous sort is reusable.
    fn refresh_bvh(
        &mut self,
        state: &SystemState,
        t: &mut StepTimings,
        ws: &mut SimWorkspace,
    ) -> Result<(), ComputeError> {
        self.built = false;
        let bbox =
            timed_counted(&mut t.bbox, &mut t.allocs.bbox, || state.bounding_box(self.policy));
        let mut sorted = Ok(());
        timed_counted(&mut t.sort, &mut t.allocs.sort, || {
            sorted = self.bvh.try_hilbert_resort_with(
                self.policy,
                &state.positions,
                &state.masses,
                bbox,
                &mut ws.bvh,
            );
        });
        sorted.map_err(ComputeError::Build)?;
        let mut built = Ok(());
        timed_counted(&mut t.build, &mut t.allocs.build, || {
            built = self.bvh.try_build_structure(self.policy)
        });
        built.map_err(ComputeError::Build)?;
        timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
            self.bvh.accumulate_moments(self.policy)
        });
        self.built = true;
        self.ref_pos.clear();
        self.ref_pos.extend_from_slice(&state.positions);
        self.stale_steps = 0;
        Ok(())
    }
}

impl<P: ExecutionPolicy> ForceSolver for BvhSolver<P> {
    fn kind(&self) -> SolverKind {
        SolverKind::Bvh
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse: bool,
        ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let mut fp = self.params.force_params();
        let n = state.len();
        match self.params.lifecycle {
            TreeLifecycle::Incremental { max_stale_steps } if n > 0 => {
                let ready = self.built && self.bvh.n_bodies() == n && self.ref_pos.len() == n;
                if ready && self.stale_steps < max_stale_steps as usize {
                    // Serve from the stale tree with a drift-inflated MAC.
                    let pad = timed_counted(&mut t.bbox, &mut t.allocs.bbox, || {
                        max_drift(&self.ref_pos, &state.positions)
                    });
                    self.stale_steps += 1;
                    fp.mac_pad = pad;
                    nbody_telemetry::record!(counter TREE_REUSE_STEPS, 1);
                } else {
                    self.refresh_bvh(state, &mut t, ws)?;
                }
            }
            _ => {
                let can_reuse = reuse && self.built && self.bvh.n_bodies() == n;
                if !can_reuse {
                    self.built = false;
                    let bbox = timed_counted(&mut t.bbox, &mut t.allocs.bbox, || {
                        state.bounding_box(self.policy)
                    });
                    let mut sorted = Ok(());
                    timed_counted(&mut t.sort, &mut t.allocs.sort, || {
                        sorted = self.bvh.try_hilbert_sort_with(
                            self.policy,
                            &state.positions,
                            &state.masses,
                            bbox,
                            &mut ws.bvh,
                        );
                    });
                    sorted.map_err(ComputeError::Build)?;
                    let mut built = Ok(());
                    timed_counted(&mut t.build, &mut t.allocs.build, || {
                        built = self.bvh.try_build_structure(self.policy)
                    });
                    built.map_err(ComputeError::Build)?;
                    timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
                        self.bvh.accumulate_moments(self.policy)
                    });
                    self.built = true;
                }
            }
        }
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            self.bvh.compute_forces_with(self.policy, &state.positions, accel, &fp, &mut ws.bvh);
        });
        Ok(t)
    }

    fn validate(&self, _state: &SystemState) -> Result<(), ComputeError> {
        bh_bvh::validate::BvhInvariants::check(&self.bvh)
            .map(|_| ())
            .map_err(ComputeError::InvariantViolation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::galaxy_collision;
    use nbody_math::gravity::direct_accel;

    fn compare_to_direct(kind: SolverKind, policy: DynPolicy, theta: f64, tol: f64) {
        let state = galaxy_collision(400, 11);
        let params = SolverParams { theta, softening: 1e-3, ..SolverParams::default() };
        let mut solver = make_solver(kind, policy, params).unwrap();
        let mut acc = vec![Vec3::ZERO; state.len()];
        solver.compute(&state, &mut acc, false);
        let mut mean = 0.0;
        for (i, &a) in acc.iter().enumerate() {
            let exact = direct_accel(
                state.positions[i],
                Some(i as u32),
                &state.positions,
                &state.masses,
                1.0,
                1e-3,
            );
            mean += (a - exact).norm() / (1e-12 + exact.norm());
        }
        mean /= state.len() as f64;
        assert!(mean < tol, "{} {:?}: mean rel err {mean}", kind.name(), policy);
    }

    #[test]
    fn all_pairs_is_exact() {
        compare_to_direct(SolverKind::AllPairs, DynPolicy::ParUnseq, 0.5, 1e-12);
        compare_to_direct(SolverKind::AllPairs, DynPolicy::Seq, 0.5, 1e-12);
    }

    #[test]
    fn tiled_all_pairs_matches_classic() {
        let state = galaxy_collision(777, 15);
        let params = SolverParams { softening: 1e-3, ..SolverParams::default() };
        let mut a = vec![Vec3::ZERO; state.len()];
        let mut b = vec![Vec3::ZERO; state.len()];
        make_solver(SolverKind::AllPairs, DynPolicy::ParUnseq, params)
            .unwrap()
            .compute(&state, &mut a, false);
        make_solver(SolverKind::AllPairsTiled, DynPolicy::ParUnseq, params)
            .unwrap()
            .compute(&state, &mut b, false);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).norm() < 1e-12 * (1.0 + x.norm()));
        }
        // And under Seq + a non-multiple-of-TILE size.
        let mut c = vec![Vec3::ZERO; state.len()];
        make_solver(SolverKind::AllPairsTiled, DynPolicy::Seq, params)
            .unwrap()
            .compute(&state, &mut c, false);
        for (x, y) in b.iter().zip(&c) {
            assert!((*x - *y).norm() < 1e-12 * (1.0 + x.norm()));
        }
    }

    #[test]
    fn all_pairs_col_is_exact_up_to_reassociation() {
        compare_to_direct(SolverKind::AllPairsCol, DynPolicy::Par, 0.5, 1e-9);
        compare_to_direct(SolverKind::AllPairsCol, DynPolicy::Seq, 0.5, 1e-9);
    }

    #[test]
    fn octree_theta_half_is_accurate() {
        compare_to_direct(SolverKind::Octree, DynPolicy::Par, 0.5, 0.01);
        compare_to_direct(SolverKind::Octree, DynPolicy::Seq, 0.5, 0.01);
    }

    #[test]
    fn bvh_theta_half_is_accurate() {
        compare_to_direct(SolverKind::Bvh, DynPolicy::ParUnseq, 0.5, 0.01);
        compare_to_direct(SolverKind::Bvh, DynPolicy::Seq, 0.5, 0.01);
    }

    #[test]
    fn forward_progress_requirements_enforced_at_runtime() {
        assert_eq!(
            make_solver(SolverKind::Octree, DynPolicy::ParUnseq, SolverParams::default())
                .err()
                .unwrap(),
            SolverError::RequiresForwardProgress(SolverKind::Octree)
        );
        assert_eq!(
            make_solver(SolverKind::AllPairsCol, DynPolicy::ParUnseq, SolverParams::default())
                .err()
                .unwrap(),
            SolverError::RequiresForwardProgress(SolverKind::AllPairsCol)
        );
        // BVH runs everywhere (the paper's portability result).
        assert!(make_solver(SolverKind::Bvh, DynPolicy::ParUnseq, SolverParams::default()).is_ok());
    }

    #[test]
    fn empty_and_single_body_systems_never_panic() {
        // Degenerate systems through every solver kind and policy: no
        // bodies at all, then a single body (zero net force).
        use crate::system::SystemState;
        let empty = SystemState::new();
        let single =
            SystemState::from_parts(vec![Vec3::new(0.3, -0.2, 0.9)], vec![Vec3::ZERO], vec![2.5]);
        let kinds = [
            SolverKind::AllPairs,
            SolverKind::AllPairsCol,
            SolverKind::Octree,
            SolverKind::Bvh,
            SolverKind::AllPairsTiled,
        ];
        for kind in kinds {
            for policy in [DynPolicy::Seq, DynPolicy::Par, DynPolicy::ParUnseq] {
                let Ok(mut solver) = make_solver(kind, policy, SolverParams::default()) else {
                    continue; // forward-progress rejection, covered elsewhere
                };
                let mut none: Vec<Vec3> = vec![];
                solver.compute(&empty, &mut none, false);
                let mut one = vec![Vec3::splat(99.0)];
                solver.compute(&single, &mut one, false);
                assert_eq!(one[0], Vec3::ZERO, "{} {:?}", kind.name(), policy);
            }
        }
    }

    #[test]
    fn try_compute_surfaces_octree_build_errors() {
        let state = galaxy_collision(100, 16);
        let mut solver = OctreeSolver::new(Par, SolverParams::default());
        assert!(solver.inject_fault(nbody_resilience::FaultKind::AllocExhaustion));
        let mut acc = vec![Vec3::ZERO; state.len()];
        let err = solver.try_compute(&state, &mut acc, false).unwrap_err();
        assert!(
            matches!(
                err,
                crate::resilient::ComputeError::Build(
                    nbody_resilience::BuildError::PoolExhausted { .. }
                )
            ),
            "{err:?}"
        );
        // The failure is transient: the next call succeeds and validates.
        solver.try_compute(&state, &mut acc, false).unwrap();
        solver.validate(&state).unwrap();
    }

    #[test]
    fn pair_of_enumerates_all_pairs_exactly_once() {
        let n = 50usize;
        let mut seen = std::collections::HashSet::new();
        for k in 0..n * (n - 1) / 2 {
            let (i, j) = pair_of(k);
            assert!(j < i && i < n, "k={k} -> ({i},{j})");
            assert!(seen.insert((i, j)), "duplicate pair ({i},{j})");
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn solvers_agree_with_each_other() {
        let state = galaxy_collision(600, 12);
        let params = SolverParams { theta: 0.3, softening: 1e-3, ..SolverParams::default() };
        let mut reference = vec![Vec3::ZERO; state.len()];
        make_solver(SolverKind::AllPairs, DynPolicy::Par, params)
            .unwrap()
            .compute(&state, &mut reference, false);
        for kind in [SolverKind::AllPairsCol, SolverKind::Octree, SolverKind::Bvh] {
            let mut acc = vec![Vec3::ZERO; state.len()];
            make_solver(kind, DynPolicy::Par, params).unwrap().compute(&state, &mut acc, false);
            let mut mean = 0.0;
            for i in 0..state.len() {
                mean += (acc[i] - reference[i]).norm() / (1e-12 + reference[i].norm());
            }
            mean /= state.len() as f64;
            assert!(mean < 5e-3, "{}: {mean}", kind.name());
        }
    }

    #[test]
    fn tree_reuse_skips_build_phases() {
        let state = galaxy_collision(500, 13);
        let mut solver =
            make_solver(SolverKind::Octree, DynPolicy::Par, SolverParams::default()).unwrap();
        let mut acc = vec![Vec3::ZERO; state.len()];
        let t0 = solver.compute(&state, &mut acc, false);
        assert!(t0.build.as_nanos() > 0);
        let t1 = solver.compute(&state, &mut acc, true);
        assert_eq!(t1.build.as_nanos(), 0);
        assert_eq!(t1.multipole.as_nanos(), 0);
        assert!(t1.force.as_nanos() > 0);
        // Same positions → identical forces from the reused tree.
        let mut acc2 = vec![Vec3::ZERO; state.len()];
        solver.compute(&state, &mut acc2, true);
        assert_eq!(acc, acc2);
    }

    #[test]
    fn incremental_lifecycle_serves_stale_then_refreshes() {
        // State machine cadence for Incremental{2}: init, two stale serves
        // (no build/multipole time), then a delta refresh (build time, no
        // full re-init), repeating.
        let mut state = galaxy_collision(400, 22);
        let params = SolverParams {
            lifecycle: TreeLifecycle::Incremental { max_stale_steps: 2 },
            softening: 1e-3,
            ..SolverParams::default()
        };
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            let mut solver = make_solver(kind, DynPolicy::Par, params).unwrap();
            let mut acc = vec![Vec3::ZERO; state.len()];
            let t0 = solver.compute(&state, &mut acc, false);
            assert!(t0.build.as_nanos() > 0, "{}: init must build", kind.name());
            assert!(t0.multipole.as_nanos() > 0, "{}: init must compute moments", kind.name());
            for step in 0..2 {
                // Drift slightly so the stale steps are non-trivial.
                for p in &mut state.positions {
                    *p += Vec3::splat(1e-5);
                }
                let t = solver.compute(&state, &mut acc, false);
                assert_eq!(t.build.as_nanos(), 0, "{} step {step}: stale serve", kind.name());
                assert_eq!(t.multipole.as_nanos(), 0, "{} step {step}", kind.name());
            }
            for p in &mut state.positions {
                *p += Vec3::splat(1e-5);
            }
            let t = solver.compute(&state, &mut acc, false);
            assert!(t.build.as_nanos() > 0, "{}: refresh must update structure", kind.name());
            assert!(t.multipole.as_nanos() > 0, "{}: refresh must update moments", kind.name());
            solver.validate(&state).unwrap();
        }
    }

    #[test]
    fn incremental_lifecycle_is_as_accurate_as_rebuild() {
        // Fresh incremental trees (different root volume for the octree,
        // identical pipeline for the BVH) must stay within the same error
        // budget against the exact direct sum as the rebuild trees.
        let state = galaxy_collision(400, 23);
        let params = SolverParams {
            theta: 0.5,
            softening: 1e-3,
            lifecycle: TreeLifecycle::Incremental { max_stale_steps: 0 },
            ..SolverParams::default()
        };
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            let mut solver = make_solver(kind, DynPolicy::Par, params).unwrap();
            let mut acc = vec![Vec3::ZERO; state.len()];
            solver.compute(&state, &mut acc, false);
            let mut mean = 0.0;
            for (i, &a) in acc.iter().enumerate() {
                let exact = direct_accel(
                    state.positions[i],
                    Some(i as u32),
                    &state.positions,
                    &state.masses,
                    1.0,
                    1e-3,
                );
                mean += (a - exact).norm() / (1e-12 + exact.norm());
            }
            mean /= state.len() as f64;
            assert!(mean < 0.01, "{}: mean rel err {mean}", kind.name());
        }
    }

    #[test]
    fn timings_are_populated_per_kind() {
        let state = galaxy_collision(300, 14);
        let mut acc = vec![Vec3::ZERO; state.len()];
        let t = make_solver(SolverKind::Bvh, DynPolicy::Par, SolverParams::default())
            .unwrap()
            .compute(&state, &mut acc, false);
        assert!(t.sort.as_nanos() > 0, "BVH must time the Hilbert sort");
        assert!(t.build.as_nanos() > 0);
        assert!(t.multipole.as_nanos() > 0, "BVH must time moment accumulation separately");
        let t = make_solver(SolverKind::Octree, DynPolicy::Par, SolverParams::default())
            .unwrap()
            .compute(&state, &mut acc, false);
        assert_eq!(t.sort.as_nanos(), 0, "octree has no sort phase");
        assert!(t.multipole.as_nanos() > 0);
    }
}
