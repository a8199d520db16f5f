//! Replays of one simulation step through the layers' public calls, for
//! the traced runs. A [`ForceReplay`] keeps its own persistent tree, so an
//! incremental lifecycle's refreshes and stale serves are replayed with the
//! same cadence the solver inside the `Simulation` follows.

use crate::trace::{Layer, Tracer};
use bh_bvh::{Bvh, BvhParams, BvhScratch};
use bh_octree::{Octree, TraversalScratch};
use nbody_math::gravity::{ForceParams, TreeLifecycle};
use nbody_math::Vec3;
use nbody_sim::prelude::{DynPolicy, SimOptions, SolverKind, SystemState};
use stdpar::prelude::{for_each, ExecutionPolicy, Par, ParUnseq, ParallelForwardProgress, Seq};

enum Tree {
    Octree(Box<Octree>, TraversalScratch),
    Bvh(Box<Bvh>, BvhScratch),
}

/// A force solve replayed call by call on a tree of its own.
pub struct ForceReplay {
    opts: SimOptions,
    tree: Tree,
    built: bool,
    /// Positions at the last tree refresh (incremental lifecycle).
    ref_pos: Vec<Vec3>,
    stale_steps: usize,
}

impl ForceReplay {
    /// A replay of the solver `Simulation::new(_, kind, opts)` builds.
    /// Configurations whose solver logic the replay does not mirror are
    /// refused.
    pub fn new(kind: SolverKind, opts: &SimOptions) -> Result<Self, String> {
        if opts.tree_rebuild_every != 1 {
            return Err("replay mirrors per-step tree maintenance only".into());
        }
        let tree = match (kind, opts.lifecycle) {
            (SolverKind::Octree, TreeLifecycle::Rebuild) => {
                let mut tree = Octree::new();
                tree.set_quadrupole(opts.quadrupole);
                Tree::Octree(Box::new(tree), TraversalScratch::new())
            }
            (SolverKind::Bvh, _) => Tree::Bvh(
                Box::new(Bvh::with_params(BvhParams {
                    hilbert_bits: opts.hilbert_bits,
                    quadrupole: opts.quadrupole,
                    ..BvhParams::default()
                })),
                BvhScratch::default(),
            ),
            (kind, lifecycle) => {
                return Err(format!("no replay for {} with {lifecycle:?}", kind.name()))
            }
        };
        Ok(ForceReplay {
            opts: *opts,
            tree,
            built: false,
            ref_pos: Vec::new(),
            stale_steps: 0,
        })
    }

    /// Compute the accelerations at `state` into `accel`, one span per
    /// layer call.
    pub fn solve(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        tr: &mut Tracer,
    ) -> Result<(), String> {
        match self.opts.policy {
            DynPolicy::Seq => self.solve_with(Seq, Seq, state, accel, tr),
            // The octree walk runs under par_unseq when the solver is
            // parallel (paper §IV-A); the BVH uses its own policy throughout.
            DynPolicy::Par => self.solve_with(Par, ParUnseq, state, accel, tr),
            DynPolicy::ParUnseq => Err("the octree build needs forward progress".into()),
        }
    }

    fn solve_with<P, U>(
        &mut self,
        policy: P,
        walk_policy: U,
        state: &SystemState,
        accel: &mut [Vec3],
        tr: &mut Tracer,
    ) -> Result<(), String>
    where
        P: ParallelForwardProgress,
        U: ExecutionPolicy,
    {
        let o = &self.opts;
        let mut fp = ForceParams {
            theta: o.theta,
            softening: o.softening,
            g: o.g,
            use_quadrupole: o.quadrupole,
            eval: o.eval,
            kernel: o.kernel,
            precision: o.precision,
            lifecycle: o.lifecycle,
            mac_pad: 0.0,
        };
        let (pos, masses) = (&state.positions, &state.masses);
        let n = state.len();
        match &mut self.tree {
            Tree::Octree(tree, scratch) => {
                let bbox = tr.span(Layer::Bbox, || state.bounding_box(policy));
                tr.span(Layer::OctreeBuild, || tree.build(policy, pos, bbox))
                    .map_err(|e| format!("octree build: {e}"))?;
                tr.span(Layer::OctreeMoments, || {
                    tree.compute_multipoles(policy, pos, masses)
                });
                tr.span(Layer::OctreeForce, || {
                    tree.compute_forces_with(walk_policy, pos, masses, accel, &fp, scratch)
                });
            }
            Tree::Bvh(bvh, scratch) => {
                let incremental = match o.lifecycle {
                    TreeLifecycle::Incremental { max_stale_steps } => Some(max_stale_steps),
                    TreeLifecycle::Rebuild => None,
                };
                let ready = self.built && bvh.n_bodies() == n && self.ref_pos.len() == n;
                match incremental {
                    Some(max_stale) if ready && self.stale_steps < max_stale as usize => {
                        // Stale serve: the drift scan takes the bbox slot.
                        let ref_pos = &self.ref_pos;
                        fp.mac_pad = tr.span(Layer::Bbox, || max_drift(ref_pos, pos));
                        self.stale_steps += 1;
                    }
                    _ => {
                        self.built = false;
                        let bbox = tr.span(Layer::Bbox, || state.bounding_box(policy));
                        tr.span(Layer::BvhSort, || {
                            if incremental.is_some() {
                                bvh.try_hilbert_resort_with(policy, pos, masses, bbox, scratch)
                            } else {
                                bvh.try_hilbert_sort_with(policy, pos, masses, bbox, scratch)
                            }
                        })
                        .map_err(|e| format!("bvh sort: {e}"))?;
                        tr.span(Layer::BvhBuild, || bvh.try_build_structure(policy))
                            .map_err(|e| format!("bvh build: {e}"))?;
                        tr.span(Layer::BvhMoments, || bvh.accumulate_moments(policy));
                        self.built = true;
                        self.ref_pos.clear();
                        self.ref_pos.extend_from_slice(pos);
                        self.stale_steps = 0;
                    }
                }
                tr.span(Layer::BvhForce, || {
                    bvh.compute_forces_with(policy, pos, accel, &fp, scratch)
                });
            }
        }
        Ok(())
    }
}

/// Largest displacement of any body since `reference` was taken.
fn max_drift(reference: &[Vec3], positions: &[Vec3]) -> f64 {
    reference
        .iter()
        .zip(positions)
        .map(|(a, b)| (*b - *a).norm())
        .fold(0.0, f64::max)
}

/// One body's leapfrog inputs and outputs for the kick/drift replay.
#[derive(Clone, Copy, Default)]
pub struct KdBody {
    pub x: Vec3,
    pub v: Vec3,
    /// Acceleration at the start of the step.
    pub a0: Vec3,
    /// Acceleration at the drifted position.
    pub a1: Vec3,
}

/// The integrator's kick-drift-kick arithmetic for one step, in one span:
/// the same floating-point operations `Simulation::step_into` performs,
/// so the replayed positions and velocities match its state bitwise.
pub fn kick_drift(policy: DynPolicy, dt: f64, bodies: &mut [KdBody], tr: &mut Tracer) {
    fn run<P: ExecutionPolicy>(p: P, dt: f64, bodies: &mut [KdBody]) {
        let half = 0.5 * dt;
        for_each(p, bodies, |b| {
            b.v += b.a0 * half;
            b.x += b.v * dt;
        });
        for_each(p, bodies, |b| b.v += b.a1 * half);
    }
    tr.span(Layer::KickDrift, || match policy {
        DynPolicy::Seq => run(Seq, dt, bodies),
        DynPolicy::Par => run(Par, dt, bodies),
        DynPolicy::ParUnseq => run(ParUnseq, dt, bodies),
    });
}

/// Largest relative difference between two acceleration fields
/// (0 when they agree bitwise).
pub fn max_rel_diff(a: &[Vec3], b: &[Vec3]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm() / (x.norm() + 1e-300))
        .fold(
            if a.len() == b.len() {
                0.0
            } else {
                f64::INFINITY
            },
            f64::max,
        )
}
