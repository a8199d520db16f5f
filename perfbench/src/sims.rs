//! The two single-simulation workloads, `galaxy-paper` and `plummer-fast`.
//!
//! One closed-loop client submits runs ("sessions") back to back: each
//! session generates its input from the seed, sets up a `Simulation` (which
//! includes the first force seeding) and advances it a fixed number of
//! steps. The untraced run measures the end-to-end metrics over every
//! session that fits in the time budget. The traced run measures one
//! untraced session for the telemetry counts, then replays one session's
//! force solves layer by layer at all workers and one at a single worker.

use crate::checks::{bitwise_equal_vec3, force_rel_err, Check, Invariants};
use crate::replay::{kick_drift, max_rel_diff, ForceReplay, KdBody};
use crate::stats::{jain, median, tail};
use crate::trace::{Layer, Tracer};
use crate::Outcome;
use nbody_math::gravity::{ForceEval, ForceKernel, KernelPrecision, TreeLifecycle};
use nbody_math::{SplitMix64, Vec3};
use nbody_server::SessionConfig;
use nbody_sim::prelude::*;
use nbody_telemetry::MetricsSnapshot;
use std::time::Instant;

/// A single-simulation workload.
pub struct SimSpec {
    pub n: usize,
    pub kind: SolverKind,
    pub opts: SimOptions,
    pub generate: fn(usize, u64) -> SystemState,
    /// Measured steps per session (after the set-up step).
    pub steps: usize,
    /// Steps of each traced session.
    pub traced_steps: usize,
}

/// The paper's configuration on its own galaxy collision: octree, per-body
/// scalar walk, rebuild every step, barrier phases, θ = 0.5, `Par`.
pub fn galaxy_paper(smoke: bool) -> SimSpec {
    SimSpec {
        n: if smoke { 2_000 } else { 20_000 },
        kind: SolverKind::Octree,
        opts: SimOptions::default(),
        generate: galaxy_collision,
        steps: if smoke { 4 } else { 12 },
        traced_steps: if smoke { 2 } else { 12 },
    }
}

/// The fastest engine configuration on a Plummer sphere: BVH, blocked walk
/// with SIMD f64 kernel, incremental tree refreshed every 4th step.
pub fn plummer_fast(smoke: bool) -> SimSpec {
    SimSpec {
        n: if smoke { 2_000 } else { 50_000 },
        kind: SolverKind::Bvh,
        opts: SimOptions {
            eval: ForceEval::Blocked { group: 0 },
            kernel: ForceKernel::Simd,
            precision: KernelPrecision::F64,
            lifecycle: TreeLifecycle::Incremental { max_stale_steps: 3 },
            stepping: Stepping::Barrier,
            ..SimOptions::default()
        },
        generate: plummer,
        // A whole number of 4-step refresh cycles.
        steps: if smoke { 4 } else { 8 },
        traced_steps: if smoke { 4 } else { 8 },
    }
}

/// Sessions every untraced run measures, however long they take: the
/// set-up time is a median over sessions.
const MIN_SESSIONS: usize = 3;
/// Bodies sampled for the direct-sum force error of each session.
const FORCE_SAMPLES: usize = 4096;
/// Upper bounds of the output checks. The tree codes do not conserve
/// momentum exactly (their forces are not pairwise antisymmetric) and the
/// energy is estimated from a sampled potential, so the bounds catch a
/// broken integrator or solver, not roundoff.
const MOMENTUM_TOL: f64 = 1e-3;
const ENERGY_TOL: f64 = 1e-2;
const FORCE_ERR_TOL: f64 = 0.05;
/// Largest relative difference allowed between the replayed and the
/// simulation's accelerations.
const REPLAY_TOL: f64 = 1e-12;
/// At one worker the replayed layers plus the replayed kick/drift must add
/// up to the step wall within this share. The replay runs on a tree of its
/// own, whose data the step just pushed out of cache, and shares a 2-core
/// host with other machines: measured gaps run from 0.5% to 8%. Leaving
/// out the walk (~95% of a step) or any larger phase still fails.
const CLOSURE_TOL: f64 = 0.15;
/// Floating-point operations of one monopole interaction, for the computed
/// kernel rate.
const FLOPS_PER_INTERACTION: f64 = 20.0;

pub struct Session {
    pub setup_s: f64,
    pub step_ms: Vec<f64>,
    /// Wall of the measured step loop.
    pub loop_s: f64,
    /// Set-up plus every step: the client's wait for its run.
    pub turnaround_s: f64,
    pub force_err: f64,
    pub valid: bool,
    pub momentum_drift: f64,
    pub energy_drift: f64,
    /// Health verdicts other than `Healthy` (guarded sessions only).
    pub unhealthy: usize,
}

/// Spans and replay checks of traced sessions.
#[derive(Default)]
pub struct Traced {
    pub tracer: Tracer,
    pub steps: usize,
    pub step_wall_ns: u64,
    /// Per step: (wall − (replayed force-solve layers + kick/drift)) / wall.
    pub step_gaps: Vec<f64>,
    pub replay_dev: f64,
    pub kick_drift_mismatches: usize,
}

impl Traced {
    pub fn per_step_ms(&self, ns: u64) -> f64 {
        ns as f64 / self.steps.max(1) as f64 / 1e6
    }
    pub fn layer_ms(&self, layer: Layer) -> f64 {
        self.per_step_ms(self.tracer.total_ns(layer))
    }
    pub fn residual_ms(&self) -> f64 {
        (self.step_wall_ns as f64 - self.tracer.force_solve_ns() as f64)
            / self.steps.max(1) as f64
            / 1e6
    }
    /// `|median over steps of (wall − (force-solve layers + kick/drift)) /
    /// wall|`. A step and its replay run back to back; the signed median
    /// lets host noise on either side cancel, keeps a stall that hits only
    /// one of them from deciding the check, and still shows a layer the
    /// replay misses as a gap of that layer's share.
    pub fn closure_gap(&self) -> f64 {
        median(&self.step_gaps).unwrap_or(0.0).abs()
    }
    fn replayed_ns(&self) -> u64 {
        self.tracer.force_solve_ns() + self.tracer.total_ns(Layer::KickDrift)
    }
}

pub fn session_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed).fork(k).next_u64()
}

/// Set up one simulation and advance it `steps` steps past the set-up
/// step; returns the measurements and the final state. With `traced`, each
/// step's kick/drift and force solve are replayed in spans. With `guard`,
/// each step is also judged by a `HealthMonitor` and recorded into a
/// `CheckpointRing` at the session's cadence, as the service does.
pub fn run_session(
    spec: &SimSpec,
    seed: u64,
    steps: usize,
    reset_counters_after_setup: bool,
    mut traced: Option<&mut Traced>,
    guard: Option<&SessionConfig>,
) -> Result<(Session, SystemState), String> {
    let o = spec.opts;
    let state = (spec.generate)(spec.n, seed);
    let before = Invariants::measure(&state, o.g, o.softening);
    let initial = traced.is_some().then(|| state.clone());

    let t0 = Instant::now();
    let mut sim = Simulation::new(state, spec.kind, o).map_err(|e| e.to_string())?;
    let mut ws = SimWorkspace::new();
    sim.step_into(&mut ws);
    let setup_s = t0.elapsed().as_secs_f64();

    // The replay catches up with the set-up step untimed: the seeding
    // solve at the initial state, then the first step's solve.
    let mut replay = match (traced.as_deref_mut(), &initial) {
        (Some(tr), Some(initial)) => {
            let mut r = ForceReplay::new(spec.kind, &o)?;
            let mut acc = vec![Vec3::ZERO; spec.n];
            let mut untimed = Tracer::default();
            r.solve(initial, &mut acc, &mut untimed)?;
            r.solve(sim.state(), &mut acc, &mut untimed)?;
            tr.replay_dev = tr.replay_dev.max(max_rel_diff(&acc, sim.accelerations()));
            Some((r, acc, vec![KdBody::default(); spec.n]))
        }
        _ => None,
    };
    let mut guard = match guard {
        Some(cfg) => {
            let mut monitor = HealthMonitor::new(cfg.health);
            let _ = monitor.check(sim.state(), o.dt, o.policy);
            let ring =
                CheckpointRing::with_capacity(cfg.ring_capacity).map_err(|e| e.to_string())?;
            Some((monitor, ring, cfg.checkpoint_every))
        }
        None => None,
    };
    let mut unhealthy = 0;
    if reset_counters_after_setup {
        nbody_telemetry::metrics::reset();
    }

    let mut step_ms = Vec::with_capacity(steps);
    let loop_t0 = Instant::now();
    for _ in 0..steps {
        if let Some((_, _, kd)) = replay.as_mut() {
            let s = sim.state();
            for (i, b) in kd.iter_mut().enumerate() {
                b.x = s.positions[i];
                b.v = s.velocities[i];
                b.a0 = sim.accelerations()[i];
            }
        }
        let t = Instant::now();
        sim.step_into(&mut ws);
        let wall = t.elapsed();
        step_ms.push(wall.as_secs_f64() * 1e3);
        if let (Some(tr), Some((r, acc, kd))) = (traced.as_deref_mut(), replay.as_mut()) {
            for (b, a) in kd.iter_mut().zip(sim.accelerations()) {
                b.a1 = *a;
            }
            let replayed_before = tr.replayed_ns();
            kick_drift(o.policy, o.dt, kd, &mut tr.tracer);
            let s = sim.state();
            tr.kick_drift_mismatches += kd
                .iter()
                .enumerate()
                .filter(|(i, b)| {
                    !bitwise_equal_vec3(b.x, s.positions[*i])
                        || !bitwise_equal_vec3(b.v, s.velocities[*i])
                })
                .count();
            r.solve(s, acc, &mut tr.tracer)?;
            tr.replay_dev = tr.replay_dev.max(max_rel_diff(acc, sim.accelerations()));
            let wall_ns = wall.as_nanos() as u64;
            let replayed = tr.replayed_ns() - replayed_before;
            tr.step_gaps
                .push((wall_ns as f64 - replayed as f64) / wall_ns.max(1) as f64);
            tr.step_wall_ns += wall_ns;
            tr.steps += 1;
            if let Some((monitor, ring, every)) = guard.as_mut() {
                let report = tr
                    .tracer
                    .span(Layer::Health, || monitor.check(s, o.dt, o.policy));
                if report.verdict != HealthVerdict::Healthy {
                    unhealthy += 1;
                } else if *every > 0 && (sim.steps_done() as u64).is_multiple_of(*every) {
                    tr.tracer
                        .span(Layer::Checkpoint, || ring.record(&sim, monitor));
                }
            }
        }
    }
    let loop_s = loop_t0.elapsed().as_secs_f64();
    let turnaround_s = t0.elapsed().as_secs_f64();

    let after = Invariants::measure(sim.state(), o.g, o.softening);
    let (momentum_drift, energy_drift) = before.drift(&after);
    let mut rng = SplitMix64::new(seed).fork(u64::MAX);
    let force_err = force_rel_err(
        sim.state(),
        sim.accelerations(),
        o.g,
        o.softening,
        FORCE_SAMPLES,
        &mut rng,
    );
    let session = Session {
        setup_s,
        step_ms,
        loop_s,
        turnaround_s,
        force_err,
        valid: sim.state().is_valid(),
        momentum_drift,
        energy_drift,
        unhealthy,
    };
    Ok((session, sim.into_state()))
}

/// Record each session's output checks; returns how many sessions failed.
fn check_sessions(sessions: &[Session], out: &mut Outcome) -> u64 {
    let worst = |f: fn(&Session) -> f64| sessions.iter().map(f).fold(0.0, f64::max);
    let (dp, de, fe) = (
        worst(|s| s.momentum_drift),
        worst(|s| s.energy_drift),
        worst(|s| s.force_err),
    );
    let invalid = sessions.iter().filter(|s| !s.valid).count();
    out.checks.push(Check::new(
        "final state valid",
        invalid == 0,
        format!("{invalid} invalid"),
    ));
    out.checks.push(Check::new(
        "momentum drift",
        dp <= MOMENTUM_TOL,
        format!("worst {dp:.3e} (bound {MOMENTUM_TOL:.0e})"),
    ));
    out.checks.push(Check::new(
        "sampled energy drift",
        de <= ENERGY_TOL,
        format!("worst {de:.3e} (bound {ENERGY_TOL:.0e})"),
    ));
    out.checks.push(Check::new(
        "force error vs direct sum",
        fe <= FORCE_ERR_TOL,
        format!("worst {fe:.3e} (bound {FORCE_ERR_TOL})"),
    ));
    sessions
        .iter()
        .filter(|s| {
            !s.valid
                || s.momentum_drift > MOMENTUM_TOL
                || s.energy_drift > ENERGY_TOL
                || s.force_err > FORCE_ERR_TOL
        })
        .count() as u64
}

/// Run a simulation workload for about `seconds`.
pub fn run(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
) -> Result<Outcome, String> {
    if trace {
        return run_traced(spec, seed, workers);
    }
    let mut out = Outcome::default();
    nbody_telemetry::metrics::reset();
    let start = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    loop {
        let (s, _) = run_session(
            spec,
            session_seed(seed, sessions.len() as u64),
            spec.steps,
            false,
            None,
            None,
        )?;
        let last = s.turnaround_s;
        sessions.push(s);
        let elapsed = start.elapsed().as_secs_f64();
        if sessions.len() >= MIN_SESSIONS && elapsed + last > seconds {
            break;
        }
    }
    let busy = MetricsSnapshot::capture().worker_busy_ns;

    out.attempted = sessions.len() as u64;
    out.failed = check_sessions(&sessions, &mut out);
    let steps: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.step_ms.iter().copied())
        .collect();
    let turnaround_ms: Vec<f64> = sessions.iter().map(|s| s.turnaround_s * 1e3).collect();
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let loop_s: f64 = sessions.iter().map(|s| s.loop_s).sum();
    let total_turnaround_s: f64 = sessions.iter().map(|s| s.turnaround_s).sum();
    let step_tail = tail(&steps, 0.9).ok_or("no steps measured")?;
    let session_tail = tail(&turnaround_ms, 0.9).ok_or("no sessions measured")?;
    let busy: Vec<f64> = busy.iter().take(workers).map(|&b| b as f64).collect();

    let v = &mut out.values;
    v.set("step_ms_p50", median(&steps).unwrap_or(0.0));
    v.set("step_ms_p90", step_tail.value);
    v.set("body_steps_per_s", (spec.n * steps.len()) as f64 / loop_s);
    v.set(
        "force_rel_err",
        sessions.iter().map(|s| s.force_err).sum::<f64>() / sessions.len() as f64,
    );
    v.set("setup_s", median(&setups).unwrap_or(0.0));
    v.set("session_ms_p50", median(&turnaround_ms).unwrap_or(0.0));
    v.set("session_ms_p90", session_tail.value);
    v.set(
        "large_steps_per_s",
        (sessions.len() * (spec.steps + 1)) as f64 / total_turnaround_s,
    );
    v.set("fairness_jain", jain(&busy).unwrap_or(0.0));
    let per_session: Vec<String> = sessions
        .iter()
        .map(|s| format!("{:.1}", median(&s.step_ms).unwrap_or(0.0)))
        .collect();
    out.notes.push(format!(
        "per-session step_ms p50: {}",
        per_session.join(", ")
    ));
    out.notes.push(format!(
        "steps: {} samples, step_ms_p90 is nearest-rank p{:.1}; sessions: {} of {} steps, \
         session_ms_p90 is p{:.1}; fairness_jain is over {} workers' busy time",
        steps.len(),
        step_tail.q * 100.0,
        sessions.len(),
        spec.steps,
        session_tail.q * 100.0,
        busy.len()
    ));
    Ok(out)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_traced(spec: &SimSpec, seed: u64, workers: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // A: untraced, for the telemetry counts and the untraced step wall.
    // All three phases run the same input, so the traced and untraced
    // step walls compare like for like.
    let input = session_seed(seed, 0);
    let (plain, _) = run_session(spec, input, spec.steps, true, None, None)?;
    let snap = MetricsSnapshot::capture();
    // B: traced at all workers; C: traced at one worker.
    let mut all = Traced::default();
    let (b, _) = run_session(spec, input, spec.traced_steps, false, Some(&mut all), None)?;
    let mut one = Traced::default();
    let (single, _) = stdpar::backend::with_threads(1, || {
        run_session(spec, input, spec.traced_steps, false, Some(&mut one), None)
    })?;
    let sessions = [plain, b, single];
    out.attempted = sessions.len() as u64;
    out.failed = check_sessions(&sessions, &mut out);
    let [plain, b, _] = sessions;

    let dev = all.replay_dev.max(one.replay_dev);
    out.checks.push(Check::new(
        "replayed accelerations match the simulation",
        dev <= REPLAY_TOL,
        format!("max relative difference {dev:.3e}"),
    ));
    let kd = all.kick_drift_mismatches + one.kick_drift_mismatches;
    out.checks.push(Check::new(
        "replayed kick/drift matches the simulation bitwise",
        kd == 0,
        format!("{kd} mismatching bodies"),
    ));
    let gap_1w = one.closure_gap();
    out.checks.push(Check::new(
        "1-worker closure",
        gap_1w <= CLOSURE_TOL,
        format!(
            "gap {:.2}% of step wall (bound {:.0}%)",
            gap_1w * 100.0,
            CLOSURE_TOL * 100.0
        ),
    ));

    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let steps = c("sim_steps");
    let lists = |prefix: &str| {
        let h = |s: &str| {
            snap.histogram(&format!("{prefix}_list_{s}"))
                .map(|h| (h.count, h.sum))
        };
        let (groups, bodies) = h("bodies").unwrap_or((0, 0));
        let (_, nodes) = h("nodes").unwrap_or((0, 0));
        (groups, bodies + nodes)
    };
    let (oct_groups, oct_entries) = lists("octree");
    let (bvh_groups, bvh_entries) = lists("bvh");
    // Every body of a group interacts with the whole of its group's list.
    let interactions_per_body = ratio(oct_entries + bvh_entries, oct_groups + bvh_groups);
    let force_ns = c("sim_force_nanos");
    let gflops = if force_ns == 0 {
        0.0
    } else {
        interactions_per_body * (spec.n as u64 * steps) as f64 * FLOPS_PER_INTERACTION
            / force_ns as f64
    };
    let busy: u64 = snap.worker_busy_ns.iter().sum();
    let builds = c("octree_builds");

    let v = &mut out.values;
    crate::zero_all(v);
    v.set(
        "stdpar.busy_share",
        busy as f64 / (workers as f64 * plain.loop_s * 1e9),
    );
    v.set(
        "stdpar.speedup",
        one.per_step_ms(one.tracer.force_solve_ns()) / all.per_step_ms(all.tracer.force_solve_ns()),
    );
    v.set(
        "stdpar.par_regions_per_step",
        ratio(c("stdpar_par_regions"), steps),
    );
    v.set(
        "octree.cas_retries_per_body",
        ratio(c("octree_lock_cas_retries"), builds * spec.n as u64),
    );
    let (oa, oo) = (c("octree_mac_accepts"), c("octree_mac_opens"));
    v.set("octree.mac_accept_ratio", ratio(oa, oa + oo));
    let (lazy, full) = (c("bvh_lazy_resorts"), c("bvh_full_resorts"));
    v.set("bvh.lazy_resort_frac", ratio(lazy, lazy + full));
    let (ba, bo) = (c("bvh_mac_accepts"), c("bvh_mac_opens"));
    v.set("bvh.mac_accept_ratio", ratio(ba, ba + bo));
    v.set(
        "math.simd_lane_occupancy",
        ratio(c("simd_active_lanes"), c("simd_lane_slots")),
    );
    v.set("math.interactions_per_body", interactions_per_body);
    v.set("math.kernel_gflops_computed", gflops);
    v.set("sim.tree_reuse_frac", ratio(c("tree_reuse_steps"), steps));
    for (t, suffix) in [(&all, ""), (&one, "_1w")] {
        let layers = [
            ("octree.build_ms", Layer::OctreeBuild),
            ("octree.moments_ms", Layer::OctreeMoments),
            ("octree.force_ms", Layer::OctreeForce),
            ("bvh.sort_ms", Layer::BvhSort),
            ("bvh.build_ms", Layer::BvhBuild),
            ("bvh.moments_ms", Layer::BvhMoments),
            ("bvh.force_ms", Layer::BvhForce),
            ("sim.bbox_ms", Layer::Bbox),
        ];
        for (name, layer) in layers {
            v.set(crate::metric_name(name, suffix)?, t.layer_ms(layer));
        }
        v.set(
            crate::metric_name("sim.step_residual_ms", suffix)?,
            t.residual_ms(),
        );
        v.set(
            crate::metric_name("sim.closure_gap", suffix)?,
            t.closure_gap(),
        );
    }
    v.set("sim.kick_drift_ms", all.layer_ms(Layer::KickDrift));
    // Compare the same steps: the untraced session's first traced_steps.
    let traced_p50 = median(&b.step_ms).unwrap_or(0.0);
    let plain_p50 =
        median(&plain.step_ms[..spec.traced_steps.min(plain.step_ms.len())]).unwrap_or(0.0);
    v.set("trace.overhead_ms", traced_p50 - plain_p50);
    out.notes.push(format!(
        "traced: untraced step p50 {plain_p50:.3} ms, traced step p50 {traced_p50:.3} ms \
         (overhead {:.3} ms); 1-worker step wall {:.3} ms = layers {:.3} + kick/drift {:.3} \
         (gap {:.2}%); {workers}-worker gap {:.2}%",
        traced_p50 - plain_p50,
        one.per_step_ms(one.step_wall_ns),
        one.per_step_ms(one.tracer.force_solve_ns()),
        one.layer_ms(Layer::KickDrift),
        gap_1w * 100.0,
        all.closure_gap() * 100.0,
    ));
    Ok(out)
}
