//! Blocked CALCULATEFORCE for the BVH: one traversal per body *group*.
//!
//! Hilbert sorting already places spatially adjacent bodies in adjacent
//! leaves, so a contiguous run of `G` sorted bodies occupies a small box.
//! Instead of walking the tree once per body, the blocked path walks it
//! once per run, testing the acceptance criterion against the run's AABB
//! with the conservative box-to-box distance
//! [`Aabb::distance2_to_box`]: a node accepted for the whole group box is
//! accepted for every member (each member's distance to the node box is at
//! least the box-to-box distance), so the shared interaction lists are a
//! valid — only slightly larger — source set for every member. Opened
//! leaves and accepted multipoles land in flat SoA [`InteractionLists`]
//! and every member is evaluated with tight branch-free loops
//! ([`InteractionLists::eval_at`]), amortising the traversal over `G`
//! bodies and giving the compiler all-pairs-style inner loops to
//! vectorize (Tokuue & Ishiyama's interaction-list batching).
//!
//! Groups are fixed, contiguous chunks of the sorted order, so the work
//! decomposition is identical across execution policies and backends and
//! the results are bitwise reproducible. Each group owns disjoint output
//! slots and its own scratch lists — no locks, no waiting — so the path
//! is valid under `par_unseq` like the rest of the BVH pipeline.

use crate::build::Bvh;
use nbody_math::gravity::{ForceKernel, ForceParams};
use nbody_math::simd::simd_level;
use nbody_math::{Aabb, InteractionLists, KernelStats, ListsPool, Vec3};
use nbody_telemetry::{metrics, record, MacCounts};
use stdpar::backend::max_workers;
use stdpar::prelude::*;

impl Bvh {
    /// Default blocked group size: the measured optimum for the BVH's tight
    /// Hilbert-run boxes (group = 32 → 4.11x over per-body at N = 1e5,
    /// θ = 0.5; see `BENCH_blocked.json`). Resolved from the
    /// `ForceEval::Blocked { group: 0 }` auto sentinel by
    /// [`nbody_math::gravity::ForceEval::resolve_group`].
    pub const DEFAULT_BLOCK_GROUP: usize = 32;

    /// Blocked force evaluation: one traversal per contiguous group of
    /// `group` Hilbert-sorted bodies. Called from
    /// [`Bvh::compute_forces`] when `params.eval` selects
    /// [`nbody_math::gravity::ForceEval::Blocked`]; output is indexed in
    /// *original* body order like the per-body path.
    ///
    /// `pool` supplies the per-worker interaction lists: each group clears
    /// and refills its worker's slot, so no allocation happens once the
    /// lists have warmed up. `UnsafeCell` slots instead of locks keep the
    /// path valid under `par_unseq` (weakly parallel forward progress).
    pub(crate) fn compute_forces_blocked<P: ExecutionPolicy>(
        &self,
        policy: P,
        accel: &mut [Vec3],
        params: &ForceParams,
        group: usize,
        pool: &mut ListsPool,
    ) {
        let n = self.n_bodies();
        pool.prepare(max_workers(), params.use_quadrupole);
        let pool = &*pool;
        let out = SyncSlice::new(accel);
        let this = self;
        let theta2 = params.theta * params.theta;
        let eps2 = params.softening * params.softening;
        if params.kernel == ForceKernel::Simd {
            record!(gauge SIMD_DISPATCH_LEVEL, simd_level() as u64);
        }
        for_each_chunk_worker(policy, 0..n, group, |w, r| {
            let mut gbox = Aabb::EMPTY;
            for j in r.clone() {
                gbox.expand(this.sorted_pos[j]);
            }
            // SAFETY: `w` is the executor's worker index — never observed
            // concurrently by two threads — and the pool was prepared for
            // `max_workers()` workers above.
            let state = unsafe { pool.slot(w) };
            let lists: &mut InteractionLists = &mut state.lists;
            lists.clear();
            let mut mac = MacCounts::default();
            this.gather_group(gbox, theta2, params.mac_pad, params.use_quadrupole, lists, &mut mac);
            // One flush and two histogram samples per *group*, amortised
            // over every member body.
            mac.flush(&metrics::BVH_MAC_ACCEPTS, &metrics::BVH_MAC_OPENS);
            record!(hist BVH_LIST_BODIES, lists.n_bodies() as u64);
            record!(hist BVH_LIST_NODES, lists.n_nodes() as u64);
            match params.kernel {
                ForceKernel::Scalar => {
                    for j in r {
                        let a = lists.eval_at(this.sorted_pos[j], params.g, eps2);
                        // Disjoint slots: perm is a permutation and groups
                        // partition it.
                        unsafe { out.write(this.perm[j] as usize, a) };
                    }
                }
                ForceKernel::Simd => {
                    let scratch = &mut state.scratch;
                    scratch.clear_targets();
                    for j in r.clone() {
                        scratch.push_target(this.sorted_pos[j]);
                    }
                    let mut ks = KernelStats::default();
                    lists.eval_group(scratch, params.g, eps2, params.precision, &mut ks);
                    record!(counter SIMD_GROUPS, ks.groups);
                    record!(counter SIMD_TILES, ks.tiles);
                    record!(counter SIMD_LANE_SLOTS, ks.lane_slots);
                    record!(counter SIMD_ACTIVE_LANES, ks.active_lanes);
                    for (t, j) in r.enumerate() {
                        unsafe { out.write(this.perm[j] as usize, scratch.accel(t)) };
                    }
                }
            }
        });
    }

    /// Stackless skip-list walk collecting the interaction lists of one
    /// group box. Same DFS as [`Bvh::accel_at`], with the point-to-box
    /// distance replaced by the conservative box-to-box distance.
    fn gather_group(
        &self,
        gbox: Aabb,
        theta2: f64,
        pad: f64,
        want_quad: bool,
        lists: &mut InteractionLists,
        mac: &mut MacCounts,
    ) {
        if self.n_bodies() == 0 {
            return;
        }
        let quad = if want_quad { self.quad.as_deref() } else { None };
        let mut i: usize = 1; // root
        loop {
            let m = self.mass[i];
            let mut descend = false;
            if m > 0.0 {
                if self.is_leaf(i) {
                    // Group members meet themselves here; the evaluation
                    // kernel's zero-distance guard makes self terms vanish,
                    // matching the per-body path's explicit exclusion.
                    let j = i - self.leaves;
                    lists.push_body(self.sorted_pos[j], self.sorted_mass[j]);
                } else {
                    let d2 = self.boxes[i].distance2_to_box(gbox);
                    if nbody_math::mac_accepts(self.diag2[i], d2, theta2, pad) {
                        mac.accepts += 1;
                        lists.push_node(self.com[i], m, quad.map(|q| q[i]));
                    } else {
                        mac.opens += 1;
                        i *= 2; // forward step: descend into the left child
                        descend = true;
                    }
                }
            }
            if descend {
                continue;
            }
            // Backward step: skip-list jump to the next DFS node.
            loop {
                if i == 1 {
                    return;
                }
                if i & 1 == 0 {
                    i += 1; // right sibling
                    break;
                }
                i >>= 1; // climb (possibly several times: the multi-level jump)
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

    fn built(pos: &[Vec3], mass: &[f64], quad: bool) -> Bvh {
        let mut b = Bvh::with_params(crate::BvhParams { quadrupole: quad, ..Default::default() });
        b.hilbert_sort(ParUnseq, pos, mass, Aabb::from_points(pos));
        b.build_and_accumulate(ParUnseq);
        b
    }

    fn forces(b: &Bvh, pos: &[Vec3], params: &ForceParams) -> Vec<Vec3> {
        let mut acc = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(ParUnseq, pos, &mut acc, params);
        acc
    }

    #[test]
    fn theta_zero_blocked_matches_direct_sum() {
        let (pos, mass) = random_system(257, 91);
        let b = built(&pos, &mass, false);
        let params =
            ForceParams { theta: 0.0, eval: ForceEval::blocked(), ..ForceParams::default() };
        let acc = forces(&b, &pos, &params);
        for (i, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
            assert!(
                (a - exact).norm() <= 1e-10 * (1.0 + exact.norm()),
                "body {i}: {a:?} vs {exact:?}"
            );
        }
    }

    #[test]
    fn blocked_error_within_per_body_budget() {
        let (pos, mass) = random_system(1000, 92);
        let b = built(&pos, &mass, false);
        let per_body = ForceParams { theta: 0.5, ..ForceParams::default() };
        let blocked = ForceParams { eval: ForceEval::blocked(), ..per_body };
        let (ap, ab) = (forces(&b, &pos, &per_body), forces(&b, &pos, &blocked));
        let (mut mp, mut mb) = (0.0f64, 0.0f64);
        for i in 0..pos.len() {
            let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
            let d = 1e-12 + exact.norm();
            mp += (ap[i] - exact).norm() / d;
            mb += (ab[i] - exact).norm() / d;
        }
        mp /= pos.len() as f64;
        mb /= pos.len() as f64;
        // The group MAC is strictly more conservative than the per-body MAC
        // (box distance ≤ member distance), so the blocked answer must not
        // be less accurate.
        assert!(mb <= mp + 1e-12, "blocked mean rel err {mb} vs per-body {mp}");
        assert!(mb < 0.01, "blocked mean rel err {mb}");
    }

    #[test]
    fn blocked_quadrupole_matches_budget() {
        let (pos, mass) = random_system(600, 93);
        let b = built(&pos, &mass, true);
        let params = ForceParams {
            theta: 0.9,
            use_quadrupole: true,
            eval: ForceEval::blocked(),
            ..ForceParams::default()
        };
        let acc = forces(&b, &pos, &params);
        let mut mean = 0.0;
        for (i, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
            mean += (a - exact).norm() / (1e-12 + exact.norm());
        }
        mean /= pos.len() as f64;
        assert!(mean < 0.01, "mean relative error {mean}");
    }

    #[test]
    fn blocked_policies_and_backends_agree_bitwise() {
        let (pos, mass) = random_system(400, 94);
        let b = built(&pos, &mass, false);
        let params = ForceParams {
            eval: ForceEval::Blocked { group: 48 },
            ..ForceParams::default()
        };
        let mut reference: Option<Vec<Vec3>> = None;
        for backend in Backend::ALL {
            with_backend(backend, || {
                let a = forces(&b, &pos, &params);
                match &reference {
                    None => reference = Some(a),
                    Some(r) => assert_eq!(r, &a),
                }
            });
        }
        let mut seq = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(Seq, &pos, &mut seq, &params);
        assert_eq!(reference.unwrap(), seq);
    }

    #[test]
    fn group_size_only_perturbs_rounding() {
        let (pos, mass) = random_system(500, 95);
        let b = built(&pos, &mass, false);
        let base = forces(
            &b,
            &pos,
            &ForceParams { eval: ForceEval::Blocked { group: 8 }, ..ForceParams::default() },
        );
        for g in [1usize, 33, 512] {
            let a = forces(
                &b,
                &pos,
                &ForceParams { eval: ForceEval::Blocked { group: g }, ..ForceParams::default() },
            );
            for i in 0..pos.len() {
                let rel = (a[i] - base[i]).norm() / (1e-12 + base[i].norm());
                assert!(rel < 0.05, "group {g}, body {i}: rel {rel}");
            }
        }
    }

    #[test]
    fn blocked_edge_cases() {
        let params =
            ForceParams { eval: ForceEval::blocked(), ..ForceParams::default() };
        // Empty system: nothing to do, nothing to crash on.
        let b = built(&[], &[], false);
        b.compute_forces(ParUnseq, &[], &mut [], &params);
        // Single body: zero self force.
        let pos = vec![Vec3::new(0.3, 0.4, 0.5)];
        let b = built(&pos, &[2.0], false);
        let acc = forces(&b, &pos, &params);
        assert_eq!(acc[0], Vec3::ZERO);
        // Duplicate positions stay finite and agree with each other.
        let p = Vec3::new(0.2, 0.2, 0.2);
        let pos = vec![p, p, Vec3::new(-0.7, 0.1, 0.0)];
        let b = built(&pos, &[1.0, 1.0, 1.0], false);
        let acc = forces(&b, &pos, &params);
        assert!(acc.iter().all(|a| a.is_finite()));
        assert!((acc[0] - acc[1]).norm() < 1e-12);
    }

    #[test]
    fn zero_group_resolves_to_tree_default() {
        let (pos, mass) = random_system(64, 96);
        let b = built(&pos, &mass, false);
        let auto = forces(
            &b,
            &pos,
            &ForceParams { eval: ForceEval::Blocked { group: 0 }, ..ForceParams::default() },
        );
        let explicit = forces(
            &b,
            &pos,
            &ForceParams {
                eval: ForceEval::Blocked { group: Bvh::DEFAULT_BLOCK_GROUP },
                ..ForceParams::default()
            },
        );
        assert_eq!(auto, explicit);
        assert_eq!(
            ForceEval::blocked().resolve_group(Bvh::DEFAULT_BLOCK_GROUP),
            Some(Bvh::DEFAULT_BLOCK_GROUP)
        );
    }

    #[test]
    fn simd_kernel_matches_scalar_within_rounding() {
        use nbody_math::gravity::{ForceKernel, KernelPrecision};
        let (pos, mass) = random_system(700, 97);
        for quad in [false, true] {
            let b = built(&pos, &mass, quad);
            let base = ForceParams {
                theta: 0.6,
                use_quadrupole: quad,
                eval: ForceEval::blocked(),
                ..ForceParams::default()
            };
            let scalar = forces(&b, &pos, &base);
            let simd =
                forces(&b, &pos, &ForceParams { kernel: ForceKernel::Simd, ..base });
            for i in 0..pos.len() {
                let rel = (simd[i] - scalar[i]).norm() / (1e-12 + scalar[i].norm());
                assert!(rel < 1e-12, "quad={quad} body {i}: rel {rel}");
            }
            // Mixed precision stays within f32 noise of the f64 answer.
            let mixed = forces(
                &b,
                &pos,
                &ForceParams {
                    kernel: ForceKernel::Simd,
                    precision: KernelPrecision::MixedF32Far,
                    ..base
                },
            );
            for i in 0..pos.len() {
                let rel = (mixed[i] - scalar[i]).norm() / (1e-12 + scalar[i].norm());
                assert!(rel < 1e-4, "mixed quad={quad} body {i}: rel {rel}");
            }
        }
    }

    #[test]
    fn simd_kernel_agrees_across_policies_and_backends() {
        use nbody_math::gravity::ForceKernel;
        let (pos, mass) = random_system(400, 98);
        let b = built(&pos, &mass, false);
        let params = ForceParams {
            eval: ForceEval::Blocked { group: 48 },
            kernel: ForceKernel::Simd,
            ..ForceParams::default()
        };
        let mut reference: Option<Vec<Vec3>> = None;
        for backend in Backend::ALL {
            with_backend(backend, || {
                let a = forces(&b, &pos, &params);
                match &reference {
                    None => reference = Some(a),
                    Some(r) => assert_eq!(r, &a),
                }
            });
        }
        let mut seq = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(Seq, &pos, &mut seq, &params);
        assert_eq!(reference.unwrap(), seq);
    }
}
