//! Blocked CALCULATEFORCE for the octree: one traversal per body *group*.
//!
//! Mirror of the BVH blocked path (see `bh-bvh`'s `blocked` module).
//! The octree stores bodies in insertion order, which is not spatially
//! sorted, so groups are formed from the tree's own depth-first leaf
//! order instead: a contiguous run of DFS bodies lives in one subtree and
//! therefore in a small box. One stackless traversal per run tests the
//! acceptance criterion against the run's AABB using the conservative
//! point-to-box distance [`Aabb::distance2_to_point`] — every member's
//! distance to a node's centre of mass is at least the box's distance, so
//! a node accepted for the box is accepted for every member. Accepted
//! multipoles and opened leaf bodies land in flat SoA
//! [`InteractionLists`] and members evaluate with the shared branch-free
//! kernels, amortising the walk over the whole group.
//!
//! Groups partition the DFS order deterministically (fixed chunking, no
//! data-dependent scheduling), every group writes disjoint output slots
//! and owns its scratch lists, so the path runs under `par_unseq` with
//! bitwise-reproducible results across policies and backends.

use crate::scratch::TraversalScratch;
use crate::tags::{self, Slot};
use crate::tree::Octree;
use crate::validate::collect_bodies_into;
use nbody_math::gravity::{ForceKernel, ForceParams};
use nbody_math::simd::simd_level;
use nbody_math::{Aabb, InteractionLists, KernelStats, Vec3};
use nbody_telemetry::{metrics, record, MacCounts};
use std::sync::atomic::Ordering;
use stdpar::backend::max_workers;
use stdpar::prelude::*;

impl Octree {
    /// Default blocked group size: the measured optimum for the octree's
    /// cubic cells (group = 8 → 2.57x over per-body at N = 1e5, θ = 0.5;
    /// see `BENCH_blocked.json` — larger groups inflate the conservative
    /// group box faster than they amortise the walk). Resolved from the
    /// `ForceEval::Blocked { group: 0 }` auto sentinel by
    /// [`nbody_math::gravity::ForceEval::resolve_group`].
    pub const DEFAULT_BLOCK_GROUP: usize = 8;

    /// Blocked force evaluation: one traversal per contiguous group of
    /// `group` bodies in depth-first tree order. Called from
    /// [`Octree::compute_forces`] when `params.eval` selects
    /// [`nbody_math::gravity::ForceEval::Blocked`].
    ///
    /// `scratch` supplies the DFS order buffer and the per-worker
    /// interaction lists: each group clears and refills its worker's slot,
    /// so no allocation happens once the buffers have warmed up.
    /// `UnsafeCell` slots instead of locks keep the path valid under
    /// `par_unseq` (weakly parallel forward progress).
    #[allow(clippy::too_many_arguments)] // internal: mirrors compute_forces_with + group + scratch
    pub(crate) fn compute_forces_blocked<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
        group: usize,
        scratch: &mut TraversalScratch,
    ) {
        collect_bodies_into(self, &mut scratch.order, &mut scratch.stack);
        let order = &scratch.order[..];
        debug_assert_eq!(order.len(), self.n_bodies());
        scratch.lists.prepare(max_workers(), params.use_quadrupole);
        let pool = &scratch.lists;
        let out = SyncSlice::new(accel);
        let this = self;
        let theta2 = params.theta * params.theta;
        let eps2 = params.softening * params.softening;
        if params.kernel == ForceKernel::Simd {
            record!(gauge SIMD_DISPATCH_LEVEL, simd_level() as u64);
        }
        for_each_chunk_worker(policy, 0..order.len(), group, |w, r| {
            let mut gbox = Aabb::EMPTY;
            for &b in &order[r.clone()] {
                gbox.expand(positions[b as usize]);
            }
            // SAFETY: `w` is the executor's worker index — never observed
            // concurrently by two threads — and the pool was prepared for
            // `max_workers()` workers above.
            let state = unsafe { pool.slot(w) };
            let lists: &mut InteractionLists = &mut state.lists;
            lists.clear();
            let mut mac = MacCounts::default();
            this.gather_group(
                gbox,
                theta2,
                params.mac_pad,
                params.use_quadrupole,
                positions,
                masses,
                lists,
                &mut mac,
            );
            // One flush and two histogram samples per *group*, amortised
            // over every member body.
            mac.flush(&metrics::OCTREE_MAC_ACCEPTS, &metrics::OCTREE_MAC_OPENS);
            record!(hist OCTREE_LIST_BODIES, lists.n_bodies() as u64);
            record!(hist OCTREE_LIST_NODES, lists.n_nodes() as u64);
            match params.kernel {
                ForceKernel::Scalar => {
                    for &b in &order[r] {
                        let a = lists.eval_at(positions[b as usize], params.g, eps2);
                        // Disjoint slots: the DFS order is a permutation of
                        // 0..n.
                        unsafe { out.write(b as usize, a) };
                    }
                }
                ForceKernel::Simd => {
                    let scratch = &mut state.scratch;
                    scratch.clear_targets();
                    for &b in &order[r.clone()] {
                        scratch.push_target(positions[b as usize]);
                    }
                    let mut ks = KernelStats::default();
                    lists.eval_group(scratch, params.g, eps2, params.precision, &mut ks);
                    record!(counter SIMD_GROUPS, ks.groups);
                    record!(counter SIMD_TILES, ks.tiles);
                    record!(counter SIMD_LANE_SLOTS, ks.lane_slots);
                    record!(counter SIMD_ACTIVE_LANES, ks.active_lanes);
                    for (t, &b) in order[r].iter().enumerate() {
                        unsafe { out.write(b as usize, scratch.accel(t)) };
                    }
                }
            }
        });
    }

    /// Stackless walk collecting the interaction lists of one group box.
    /// Same forward/backward structure as [`Octree::accel_at`], with the
    /// point distance `|com − p|²` replaced by the conservative distance
    /// from the node's centre of mass to the group box.
    #[allow(clippy::too_many_arguments)] // internal: gather inputs + telemetry tally
    fn gather_group(
        &self,
        gbox: Aabb,
        theta2: f64,
        pad: f64,
        want_quad: bool,
        positions: &[Vec3],
        masses: &[f64],
        lists: &mut InteractionLists,
        mac: &mut MacCounts,
    ) {
        if self.n_bodies() == 0 {
            return;
        }
        let quads = if want_quad { self.node_quad.as_ref() } else { None };
        let mut i: u32 = 0;
        let mut width = self.root_edge();
        loop {
            let mut descend = false;
            match self.slot(i) {
                Slot::Node(c) => {
                    let com = self.node_com_of(i);
                    let d2 = gbox.distance2_to_point(com);
                    if nbody_math::mac_accepts(width * width, d2, theta2, pad) {
                        mac.accepts += 1;
                        let quad = quads.map(|q| {
                            std::array::from_fn(|k| q[k][i as usize].load(Ordering::Relaxed))
                        });
                        lists.push_node(com, self.node_mass_of(i), quad);
                    } else {
                        mac.opens += 1;
                        i = c;
                        width *= 0.5;
                        descend = true;
                    }
                }
                Slot::Empty => {}
                Slot::Body(head) => {
                    // Group members meet themselves here; the evaluation
                    // kernel's zero-distance guard zeroes self terms,
                    // matching the per-body path's explicit exclusion.
                    for bj in self.chain(head) {
                        lists.push_body(positions[bj as usize], masses[bj as usize]);
                    }
                }
                Slot::Locked => unreachable!("locked slot during force traversal"),
            }
            if descend {
                continue;
            }
            // Backward step: next sibling, or climb until one exists.
            loop {
                if i == 0 {
                    return;
                }
                if tags::sibling_rank(i) != tags::CHILDREN - 1 {
                    i += 1;
                    break;
                }
                i = self.parent_of(i);
                width *= 2.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::gravity::{direct_accel, ForceEval};
    use nbody_math::SplitMix64;

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
        (pos, mass)
    }

    fn built(pos: &[Vec3], mass: &[f64], quad: bool) -> Octree {
        let mut t = Octree::new();
        t.set_quadrupole(quad);
        t.build(Par, pos, Aabb::from_points(pos)).unwrap();
        t.compute_multipoles(Par, pos, mass);
        t
    }

    fn forces(t: &Octree, pos: &[Vec3], mass: &[f64], params: &ForceParams) -> Vec<Vec3> {
        let mut acc = vec![Vec3::ZERO; pos.len()];
        t.compute_forces(ParUnseq, pos, mass, &mut acc, params);
        acc
    }

    #[test]
    fn theta_zero_blocked_matches_direct_sum() {
        let (pos, mass) = random_system(257, 41);
        let t = built(&pos, &mass, false);
        let params =
            ForceParams { theta: 0.0, eval: ForceEval::blocked(), ..ForceParams::default() };
        let acc = forces(&t, &pos, &mass, &params);
        for (b, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, 0.0);
            assert!(
                (a - exact).norm() <= 1e-10 * (1.0 + exact.norm()),
                "body {b}: {a:?} vs {exact:?}"
            );
        }
    }

    #[test]
    fn blocked_error_within_per_body_budget() {
        let (pos, mass) = random_system(1000, 42);
        let t = built(&pos, &mass, false);
        let per_body = ForceParams { theta: 0.5, ..ForceParams::default() };
        let blocked = ForceParams { eval: ForceEval::blocked(), ..per_body };
        let (ap, ab) =
            (forces(&t, &pos, &mass, &per_body), forces(&t, &pos, &mass, &blocked));
        let (mut mp, mut mb) = (0.0f64, 0.0f64);
        for b in 0..pos.len() {
            let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, 0.0);
            let d = 1e-12 + exact.norm();
            mp += (ap[b] - exact).norm() / d;
            mb += (ab[b] - exact).norm() / d;
        }
        mp /= pos.len() as f64;
        mb /= pos.len() as f64;
        // The group MAC opens at least every node the per-body MAC opens.
        assert!(mb <= mp + 1e-12, "blocked mean rel err {mb} vs per-body {mp}");
        assert!(mb < 0.01, "blocked mean rel err {mb}");
    }

    #[test]
    fn blocked_quadrupole_matches_budget() {
        let (pos, mass) = random_system(600, 43);
        let t = built(&pos, &mass, true);
        let params = ForceParams {
            theta: 0.8,
            use_quadrupole: true,
            eval: ForceEval::blocked(),
            ..ForceParams::default()
        };
        let acc = forces(&t, &pos, &mass, &params);
        let mut mean = 0.0;
        for (b, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, 0.0);
            mean += (a - exact).norm() / (1e-12 + exact.norm());
        }
        mean /= pos.len() as f64;
        assert!(mean < 0.01, "mean relative error {mean}");
    }

    #[test]
    fn blocked_policies_agree_bitwise_for_fixed_tree() {
        let (pos, mass) = random_system(400, 44);
        let t = built(&pos, &mass, false);
        let params =
            ForceParams { eval: ForceEval::Blocked { group: 48 }, ..ForceParams::default() };
        let mut reference: Option<Vec<Vec3>> = None;
        for backend in Backend::ALL {
            with_backend(backend, || {
                let a = forces(&t, &pos, &mass, &params);
                match &reference {
                    None => reference = Some(a),
                    Some(r) => assert_eq!(r, &a),
                }
            });
        }
        let mut seq = vec![Vec3::ZERO; pos.len()];
        t.compute_forces(Seq, &pos, &mass, &mut seq, &params);
        assert_eq!(reference.unwrap(), seq);
    }

    #[test]
    fn zero_group_resolves_to_tree_default() {
        let (pos, mass) = random_system(64, 45);
        let t = built(&pos, &mass, false);
        let auto = forces(
            &t,
            &pos,
            &mass,
            &ForceParams { eval: ForceEval::Blocked { group: 0 }, ..ForceParams::default() },
        );
        let explicit = forces(
            &t,
            &pos,
            &mass,
            &ForceParams {
                eval: ForceEval::Blocked { group: Octree::DEFAULT_BLOCK_GROUP },
                ..ForceParams::default()
            },
        );
        assert_eq!(auto, explicit);
    }

    #[test]
    fn simd_kernel_matches_scalar_within_rounding() {
        use nbody_math::gravity::{ForceKernel, KernelPrecision};
        let (pos, mass) = random_system(700, 46);
        for quad in [false, true] {
            let t = built(&pos, &mass, quad);
            let base = ForceParams {
                theta: 0.6,
                use_quadrupole: quad,
                eval: ForceEval::blocked(),
                ..ForceParams::default()
            };
            let scalar = forces(&t, &pos, &mass, &base);
            let simd =
                forces(&t, &pos, &mass, &ForceParams { kernel: ForceKernel::Simd, ..base });
            for b in 0..pos.len() {
                let rel = (simd[b] - scalar[b]).norm() / (1e-12 + scalar[b].norm());
                assert!(rel < 1e-12, "quad={quad} body {b}: rel {rel}");
            }
            // Mixed precision stays within f32 noise of the f64 answer.
            let mixed = forces(
                &t,
                &pos,
                &mass,
                &ForceParams {
                    kernel: ForceKernel::Simd,
                    precision: KernelPrecision::MixedF32Far,
                    ..base
                },
            );
            for b in 0..pos.len() {
                let rel = (mixed[b] - scalar[b]).norm() / (1e-12 + scalar[b].norm());
                assert!(rel < 1e-4, "mixed quad={quad} body {b}: rel {rel}");
            }
        }
    }

    #[test]
    fn simd_kernel_agrees_across_policies_and_backends() {
        use nbody_math::gravity::ForceKernel;
        let (pos, mass) = random_system(400, 47);
        let t = built(&pos, &mass, false);
        let params = ForceParams {
            eval: ForceEval::Blocked { group: 48 },
            kernel: ForceKernel::Simd,
            ..ForceParams::default()
        };
        let mut reference: Option<Vec<Vec3>> = None;
        for backend in Backend::ALL {
            with_backend(backend, || {
                let a = forces(&t, &pos, &mass, &params);
                match &reference {
                    None => reference = Some(a),
                    Some(r) => assert_eq!(r, &a),
                }
            });
        }
        let mut seq = vec![Vec3::ZERO; pos.len()];
        t.compute_forces(Seq, &pos, &mass, &mut seq, &params);
        assert_eq!(reference.unwrap(), seq);
    }

    #[test]
    fn blocked_edge_cases() {
        let params = ForceParams { eval: ForceEval::blocked(), ..ForceParams::default() };
        // Single body: zero self force.
        let pos = vec![Vec3::new(0.3, 0.4, 0.5)];
        let mass = vec![2.0];
        let t = built(&pos, &mass, false);
        assert_eq!(forces(&t, &pos, &mass, &params)[0], Vec3::ZERO);
        // Duplicate positions (co-located chain) stay finite with softening.
        let p = Vec3::new(0.2, 0.2, 0.2);
        let pos = vec![p, p, Vec3::new(-0.7, 0.1, 0.0)];
        let mass = vec![1.0, 1.0, 1.0];
        let t = built(&pos, &mass, false);
        let soft = ForceParams { softening: 0.05, ..params };
        let acc = forces(&t, &pos, &mass, &soft);
        assert!(acc.iter().all(|a| a.is_finite()));
        assert!((acc[0] - acc[1]).norm() < 1e-12);
    }
}
