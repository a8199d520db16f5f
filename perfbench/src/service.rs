//! The `service-mixed` workload: a batched `SessionManager` serving an
//! open-loop stream of small sessions beside one resident large tenant.
//!
//! Arrivals are due on a wall-clock schedule drawn from the seed, whatever
//! the service is doing; a session's latency runs from its due time to the
//! end of the tick that ran its last step. A fixed share of finishing
//! sessions is snapshotted, closed and resumed from the snapshot for a
//! second lifetime. In a traced run a ladder of higher rates follows the
//! nominal window and finds the highest rate at which the p90 latency stays
//! within the latency limit (`load.max_sessions_per_s`).

use crate::checks::{bitwise_equal, Check};
use crate::sims::{ratio, run_session, session_seed, SimSpec, Traced};
use crate::stats::{jain, mean, median, nearest_rank, tail};
use crate::trace::Layer;
use crate::Outcome;
use nbody_math::SplitMix64;
use nbody_server::{
    CostModel, SchedulerConfig, SessionConfig, SessionId, SessionManager, TickMode,
};
use nbody_sim::prelude::*;
use nbody_telemetry::MetricsSnapshot;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Body counts of the service workload.
pub struct ServiceSpec {
    pub small_n: usize,
    pub large_n: usize,
}

pub fn service_mixed(smoke: bool) -> ServiceSpec {
    ServiceSpec {
        small_n: if smoke { 200 } else { 1_000 },
        large_n: if smoke { 2_000 } else { 10_000 },
    }
}

/// Steps a small session lives (per lifetime).
const LIFETIME: u64 = 6;
/// Every `RESUME_EVERY`-th finishing session is snapshotted and resumed
/// for a second lifetime.
const RESUME_EVERY: usize = 4;
/// Offered rate of the nominal window, sessions per second. The load is
/// light (under a fifth of the two workers), so a slower host lengthens
/// the latencies roughly in proportion instead of also queueing them.
const NOMINAL_RATE: f64 = 4.0;
/// Share of `--seconds` a traced run gives to the nominal window; the
/// ladder has the rest. An untraced run is all nominal window.
const NOMINAL_SHARE_TRACED: f64 = 2.0 / 3.0;
/// Offered rates of the ladder, ascending, spanning the service's capacity.
const LADDER: [f64; 4] = [17.0, 19.5, 22.0, 24.5];
/// The latency limit `load.max_sessions_per_s` holds the p90 to.
const LATENCY_LIMIT_S: f64 = 1.0;
/// A nominal-window session that finishes later than this after its due
/// time has missed its deadline (a failed operation).
const DEADLINE_S: f64 = 10.0;
/// Small sessions replayed with spans in a traced run.
const TRACED_SESSIONS: usize = 4;

/// The scheduler settings of the repository's `service_soak` bench: a
/// 20 ms quantum, a two-quantum burst cap, at most 8 steps per session per
/// tick, measured per-step costs. A session whose measured step cost
/// exceeds the 40 ms cap is never planned again: the resident large tenant
/// always, and the occasional small session whose first step (which seeds
/// its forces) is slowed past the cap.
fn scheduler(workers: usize) -> SchedulerConfig {
    SchedulerConfig {
        quantum_ns: 20_000_000,
        max_steps_per_tick: 8,
        burst_ticks: 2,
        cost_model: CostModel::Measured,
        workers,
    }
}

/// A live small session that runs no step in more than this many
/// consecutive ticks is starved. While a session's cost estimate is within
/// the `burst_ticks × quantum` cap it is planned at least every other tick
/// (its deficit grows by one quantum per tick up to the cap); once the
/// estimate exceeds the cap it is never planned again, because the estimate
/// only changes when the session runs. Two idle ticks therefore prove
/// starvation, and the session is given up on at that moment.
const STARVED_TICKS: u64 = 2;

/// Slots in the pool: far above the live sessions of any rung, so an
/// admission refused for a full pool is a defect, not back-pressure.
const CAPACITY: usize = 512;
/// Pool prefills timed for `setup_s`.
const SETUP_REPS: usize = 5;

/// Index of the nominal window in `Arrival::phase`; rungs follow.
const NOMINAL: usize = 0;

struct Arrival {
    due_s: f64,
    seed: u64,
    /// 0 = nominal window, j = ladder rung j.
    phase: usize,
    state: Option<SystemState>,
}

struct Live {
    id: SessionId,
    arrival: usize,
    admitted_tick: u64,
    /// Steps at, and tick of, the last observed progress.
    progress: (u64, u64),
    /// Steps, busy time and ticks alive of a finished first lifetime.
    first: Option<(u64, u64, u64)>,
}

struct Done {
    arrival: usize,
    latency_s: f64,
    /// Steps of the first lifetime when the session was resumed.
    first_steps: Option<u64>,
    total_steps: u64,
    busy_ns: u64,
    ticks_alive: u64,
    state: SystemState,
}

/// The wall-clock arrival schedule: `rate × length` arrivals per phase,
/// one at a seeded uniform time within each of as many equal slots. The
/// offered load is exact and the gaps are random, but no run draws a burst
/// that another seed does not: queueing noise stays out of the spread
/// between runs.
fn schedule(
    spec: &ServiceSpec,
    seed: u64,
    nominal_s: f64,
    ladder: &[f64],
    rung_s: f64,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed).fork(0xA771);
    let mut out = Vec::new();
    let phases = std::iter::once((NOMINAL_RATE, 0.0, nominal_s)).chain(
        ladder
            .iter()
            .enumerate()
            .map(|(j, &r)| (r, nominal_s + j as f64 * rung_s, rung_s)),
    );
    for (phase, (rate, start, len)) in phases.enumerate() {
        let count = (rate * len).round() as usize;
        let slot = len / count.max(1) as f64;
        out.extend((0..count).map(|i| Arrival {
            due_s: start + (i as f64 + rng.next_f64()) * slot,
            seed: 0,
            phase,
            state: None,
        }));
    }
    for (k, a) in out.iter_mut().enumerate() {
        a.seed = session_seed(seed, k as u64);
        a.state = Some(galaxy_collision(spec.small_n, a.seed));
    }
    out
}

/// A phase's p90 latency (ms), counting every session of the phase that
/// has not finished (still running, starved, refused, quarantined or cut
/// off) as infinitely late. Once a phase ended `limit` ago, its p90 is over
/// the limit exactly when more than a tenth of its sessions missed it.
fn phase_p90(phase: usize, offered: usize, arrivals: &[Arrival], done: &[Done]) -> f64 {
    let mut xs: Vec<f64> = done
        .iter()
        .filter(|d| arrivals[d.arrival].phase == phase)
        .map(|d| d.latency_s * 1e3)
        .collect();
    xs.resize(offered.max(xs.len()), f64::INFINITY);
    nearest_rank(&xs, 0.9).unwrap_or(0.0)
}

/// The rate at which the p90 latency crosses `limit`: interpolated in
/// `ln p90` between the last phase within the limit and the first over it
/// (`rates[0]` is the nominal window), or the highest rate if none is over.
/// Should even the nominal window be over, the rate is scaled down by
/// `limit / p90`.
fn max_rate(rates: &[f64], p90: &[f64], limit: f64) -> f64 {
    let mut lo: Option<(f64, f64)> = None;
    for (&rate, &p) in rates.iter().zip(p90) {
        if p > limit {
            return match lo {
                Some((r0, p0)) if p.is_finite() => {
                    r0 + (rate - r0) * (limit / p0).ln() / (p / p0).ln()
                }
                Some((r0, _)) => r0,
                None => rate * limit / p,
            };
        }
        lo = Some((rate, p));
    }
    lo.map_or(0.0, |(r, _)| r)
}

/// The options a batched session actually runs with (the manager
/// normalises every tenant to sequential, barrier stepping).
fn batched_opts() -> SimOptions {
    SimOptions {
        policy: DynPolicy::Seq,
        stepping: Stepping::Barrier,
        ..SessionConfig::default().opts
    }
}

fn solo_spec(spec: &ServiceSpec) -> SimSpec {
    SimSpec {
        n: spec.small_n,
        kind: SessionConfig::default().kind,
        opts: batched_opts(),
        generate: galaxy_collision,
        steps: 0,
        traced_steps: 0,
    }
}

pub fn run(
    spec: &ServiceSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = SessionConfig::default();
    let io_dir = PathBuf::from(".perfbench_io").join(std::process::id().to_string());
    std::fs::create_dir_all(&io_dir).map_err(|e| format!("create {}: {e}", io_dir.display()))?;

    // The ladder runs only in a traced run: it feeds a per-layer metric,
    // and an untraced run spends the whole budget on the nominal window.
    let ladder: &[f64] = if trace { &LADDER } else { &[] };
    let nominal_s = if trace {
        seconds * NOMINAL_SHARE_TRACED
    } else {
        seconds
    };
    let rung_s = (seconds - nominal_s) / LADDER.len() as f64;
    let mut arrivals = schedule(spec, seed, nominal_s, ladder, rung_s);
    let large_state = galaxy_collision(spec.large_n, session_seed(seed, u64::MAX));

    // ---- set-up, timed several times: the pool prefill (the resident
    // large tenant) and its first tick, which seeds its forces ----------
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let large = large_state.clone();
        let t = Instant::now();
        let mut mgr = SessionManager::new(CAPACITY, TickMode::Batched, scheduler(workers));
        let large_id = mgr
            .admit(large, &cfg)
            .map_err(|e| format!("large tenant: {e}"))?;
        mgr.tick();
        setups.push(t.elapsed().as_secs_f64());
        built = Some((mgr, large_id, t));
    }
    let (mut mgr, large_id, large_admitted) = built.expect("SETUP_REPS > 0");
    let mut live: Vec<Live> = Vec::new();
    let mut next = 0;

    // ---- the open loop ------------------------------------------------
    let phases = 1 + ladder.len();
    let mut offered = vec![0usize; phases];
    for a in &arrivals {
        offered[a.phase] += 1;
    }
    let rates: Vec<f64> = std::iter::once(NOMINAL_RATE)
        .chain(ladder.iter().copied())
        .collect();
    let mut judged = 0; // phases whose verdict is in
    let mut ladder_failed = false;
    let mut arrivals_end = nominal_s + rung_s * ladder.len() as f64;
    let mut done: Vec<Done> = Vec::new();
    let mut failed_nominal = 0u64;
    let mut rejections = 0u64;
    let mut quarantines = 0u64;
    let mut lags: Vec<f64> = Vec::new();
    let (mut admit_ns, mut close_ns, mut snap_ns, mut resume_ns) = (vec![], vec![], vec![], vec![]);
    let mut resumed_count = 0usize;
    let mut finishes = 0usize;
    // Nominal-window accounting.
    let mut nominal_ticks_ms: Vec<f64> = Vec::new();
    let mut nominal_body_steps = 0u64;
    let mut nominal_steps = 0u64;
    let mut nominal_large_planned = 0u64;
    let mut tick_ms_total = 0.0;
    let mut starved = 0u64;
    let mut starved_busy = 0u64;
    // Latencies of starved nominal sessions, censored at the moment they
    // were given up on: they stay in the latency sample.
    let mut starved_latency_ms: Vec<f64> = Vec::new();
    let lat_start = mgr.step_latencies().len();
    let mut lat_end = lat_start;
    let mut large_steps_nominal = mgr.session_steps(large_id).map_err(|e| e.to_string())?;
    let large_busy_setup = mgr.session_busy_ns(large_id).map_err(|e| e.to_string())?;

    let latency_limit = LATENCY_LIMIT_S;
    nbody_telemetry::metrics::reset();
    let t0 = Instant::now();
    let now = |t0: Instant| t0.elapsed().as_secs_f64();
    loop {
        let t = now(t0);
        // Admit everything now due.
        while next < arrivals.len()
            && arrivals[next].due_s <= t
            && arrivals[next].due_s < arrivals_end
        {
            let a = &mut arrivals[next];
            let state = a.state.take().expect("each arrival is admitted once");
            let ts = Instant::now();
            let admitted = mgr.admit(state, &cfg);
            admit_ns.push(ts.elapsed().as_nanos() as f64);
            lags.push(now(t0) - a.due_s);
            match admitted {
                Ok(id) => live.push(Live {
                    id,
                    arrival: next,
                    admitted_tick: mgr.ticks(),
                    progress: (0, mgr.ticks()),
                    first: None,
                }),
                Err(_) => {
                    rejections += 1;
                    if a.phase == NOMINAL {
                        failed_nominal += 1;
                    }
                }
            }
            next += 1;
        }
        // Ladder verdicts: a phase is judged once every session due in it
        // has either finished or is already past the latency limit. The
        // ladder stops at its first rung whose p90 is over the limit.
        while !ladder_failed
            && judged < phases
            && t >= nominal_s + judged as f64 * rung_s + latency_limit
        {
            ladder_failed = judged != NOMINAL
                && phase_p90(judged, offered[judged], &arrivals, &done) > latency_limit * 1e3;
            if ladder_failed {
                arrivals_end = arrivals_end.min(t);
            }
            judged += 1;
        }
        let arrivals_open = next < arrivals.len() && arrivals[next].due_s < arrivals_end;
        if !arrivals_open && live.is_empty() {
            break;
        }
        if t > arrivals_end + DEADLINE_S {
            break; // drain deadline: whatever is still live has missed it
        }

        let large_before = mgr.session_steps(large_id).map_err(|e| e.to_string())?;
        let report = mgr.tick();
        let t_end = now(t0);
        let large_after = mgr.session_steps(large_id).map_err(|e| e.to_string())?;
        let large_delta = large_after - large_before;
        if report.steps > 0 {
            tick_ms_total += report.wall.as_secs_f64() * 1e3;
            if t_end <= nominal_s {
                nominal_ticks_ms.push(report.wall.as_secs_f64() * 1e3);
                nominal_steps += report.steps;
                nominal_body_steps += (report.steps - large_delta) * spec.small_n as u64
                    + large_delta * spec.large_n as u64;
                nominal_large_planned += u64::from(large_delta > 0);
                large_steps_nominal = large_after;
                lat_end = mgr.step_latencies().len();
            }
        }

        // Quarantined sessions are failures; they leave the pool.
        if report.new_quarantines > 0 {
            let mut k = 0;
            while k < live.len() {
                if matches!(mgr.quarantine_reason(live[k].id), Ok(Some(_))) {
                    quarantines += 1;
                    let l = live.swap_remove(k);
                    if arrivals[l.arrival].phase == NOMINAL {
                        failed_nominal += 1;
                    }
                    let _ = mgr.close(l.id);
                } else {
                    k += 1;
                }
            }
        }

        // Finish (or snapshot and resume) every session past its lifetime;
        // give up on starved ones.
        let mut k = 0;
        while k < live.len() {
            let steps = mgr.session_steps(live[k].id).map_err(|e| e.to_string())?;
            if steps > live[k].progress.0 {
                live[k].progress = (steps, mgr.ticks());
            } else if mgr.ticks() - live[k].progress.1 > STARVED_TICKS {
                starved += 1;
                let l = live.swap_remove(k);
                starved_busy += mgr.session_busy_ns(l.id).map_err(|e| e.to_string())?;
                let _ = mgr.close(l.id);
                if arrivals[l.arrival].phase == NOMINAL {
                    starved_latency_ms.push((t_end - arrivals[l.arrival].due_s) * 1e3);
                }
                continue;
            }
            if steps < LIFETIME {
                k += 1;
                continue;
            }
            let busy = mgr.session_busy_ns(live[k].id).map_err(|e| e.to_string())?;
            let ticks_alive = mgr.ticks() - live[k].admitted_tick;
            if live[k].first.is_none() {
                finishes += 1;
            }
            if live[k].first.is_none() && finishes.is_multiple_of(RESUME_EVERY) {
                let path = io_dir.join(format!("s{}.snap", live[k].arrival));
                let ts = Instant::now();
                let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
                let mut w = BufWriter::new(file);
                mgr.snapshot_to(live[k].id, &mut w)
                    .map_err(|e| e.to_string())?;
                w.flush().map_err(|e| e.to_string())?;
                drop(w);
                snap_ns.push(ts.elapsed().as_nanos() as f64);
                let ts = Instant::now();
                mgr.close(live[k].id).map_err(|e| e.to_string())?;
                close_ns.push(ts.elapsed().as_nanos() as f64);
                let ts = Instant::now();
                let resumed = mgr.admit_from_snapshot(&path, &cfg);
                resume_ns.push(ts.elapsed().as_nanos() as f64);
                let _ = std::fs::remove_file(&path);
                match resumed {
                    Ok(id) => {
                        resumed_count += 1;
                        let l = &mut live[k];
                        l.first = Some((steps, busy, ticks_alive));
                        l.id = id;
                        l.admitted_tick = mgr.ticks();
                        l.progress = (0, mgr.ticks());
                        k += 1;
                    }
                    Err(_) => {
                        rejections += 1;
                        let l = live.swap_remove(k);
                        if arrivals[l.arrival].phase == NOMINAL {
                            failed_nominal += 1;
                        }
                    }
                }
                continue;
            }
            let l = live.swap_remove(k);
            let ts = Instant::now();
            let state = mgr.close(l.id).map_err(|e| e.to_string())?;
            close_ns.push(ts.elapsed().as_nanos() as f64);
            let a = &arrivals[l.arrival];
            let latency_s = t_end - a.due_s;
            if a.phase == NOMINAL && latency_s > DEADLINE_S {
                failed_nominal += 1;
            }
            let (first_steps, first_busy, first_ticks) = match l.first {
                Some((s, b, t)) => (Some(s), b, t),
                None => (None, 0, 0),
            };
            done.push(Done {
                arrival: l.arrival,
                latency_s,
                first_steps,
                total_steps: first_steps.unwrap_or(0) + steps,
                busy_ns: first_busy + busy,
                ticks_alive: first_ticks + ticks_alive,
                state,
            });
        }
        if report.steps == 0 {
            // Nothing ran (the scan above still gave up on any starved
            // session): wait for the next arrival instead of spinning.
            let wait = if arrivals_open {
                arrivals[next].due_s - t_end
            } else {
                0.001
            };
            std::thread::sleep(Duration::from_secs_f64(wait.clamp(0.0, 0.005)));
        }
    }
    let wall_s = now(t0);
    // The large tenant's progress counts from its admission (its first
    // step ran in the set-up tick) to the end of the nominal window.
    let large_alive_nominal_s = (t0 - large_admitted).as_secs_f64() + nominal_s;
    let snap = MetricsSnapshot::capture();
    // Every session due in a phase not judged yet has finished or been cut off.
    while !ladder_failed && judged < phases {
        ladder_failed = judged != NOMINAL
            && phase_p90(judged, offered[judged], &arrivals, &done) > latency_limit * 1e3;
        judged += 1;
    }
    // Sessions the drain deadline cut off.
    let mut cut_off_busy = 0;
    for l in &live {
        if arrivals[l.arrival].phase == NOMINAL {
            failed_nominal += 1;
        }
        cut_off_busy += mgr.session_busy_ns(l.id).map_err(|e| e.to_string())?;
    }
    let large_steps = mgr.session_steps(large_id).map_err(|e| e.to_string())?;
    let large_busy = mgr.session_busy_ns(large_id).map_err(|e| e.to_string())?;
    // Wall of every session step the nominal window ran (the latency
    // window is far larger than the window's step count, so it is a plain
    // prefix here).
    let step_ms: Vec<f64> = mgr.step_latencies()[lat_start..lat_end]
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    // Step time the sessions consumed inside the measured ticks.
    let window_busy_ns =
        done.iter().map(|d| d.busy_ns).sum::<u64>() + cut_off_busy + starved_busy + large_busy
            - large_busy_setup;
    let total_ticks = mgr.ticks();
    drop(mgr);
    let _ = std::fs::remove_dir_all(&io_dir);
    let _ = std::fs::remove_dir(".perfbench_io");

    // ---- correctness: solo replays --------------------------------------
    // One sampled plain session and every resumed one must equal a solo
    // `Simulation` run of the same seed and step count, bitwise.
    let plain: Vec<usize> = (0..done.len())
        .filter(|&i| done[i].first_steps.is_none())
        .collect();
    let mut verify: Vec<usize> = (0..done.len())
        .filter(|&i| done[i].first_steps.is_some())
        .collect();
    if !plain.is_empty() {
        let pick = SplitMix64::new(seed)
            .fork(0x5A3)
            .next_below(plain.len() as u64) as usize;
        verify.insert(0, plain[pick]);
    }
    let solo = solo_spec(spec);
    let results = replay_solo(&solo, &arrivals, &done, &verify, workers)?;
    let mut mismatched = 0;
    let mut force_errs = Vec::new();
    for (&i, (session, state)) in verify.iter().zip(&results) {
        if !bitwise_equal(state, &done[i].state) {
            mismatched += 1;
        }
        force_errs.push(session.force_err);
    }
    let invalid = done.iter().filter(|d| !d.state.is_valid()).count();
    out.checks.push(Check::new(
        "final states valid",
        invalid == 0,
        format!("{invalid} invalid"),
    ));
    out.checks.push(Check::new(
        "batched session equals solo replay, resumed sessions equal uninterrupted runs",
        mismatched == 0 && !verify.is_empty(),
        format!(
            "{mismatched} of {} differ (1 sampled + {} resumed)",
            verify.len(),
            verify.len().saturating_sub(1)
        ),
    ));

    // ---- end-to-end metrics ------------------------------------------
    let nominal_done: Vec<&Done> = done
        .iter()
        .filter(|d| arrivals[d.arrival].phase == NOMINAL)
        .collect();
    let latency_ms: Vec<f64> = nominal_done
        .iter()
        .map(|d| d.latency_s * 1e3)
        .chain(starved_latency_ms.iter().copied())
        .collect();
    let mut shares: Vec<f64> = nominal_done
        .iter()
        .map(|d| d.busy_ns as f64 / d.ticks_alive.max(1) as f64)
        .collect();
    shares.push(large_busy as f64 / total_ticks.max(1) as f64);
    let nominal_offered = offered[NOMINAL] as u64;
    out.attempted = nominal_offered + 1;
    out.failed = failed_nominal + (invalid + mismatched) as u64;
    let tick_tail = tail(&nominal_ticks_ms, 0.9).ok_or("no ticks in the nominal window")?;
    let step_tail = tail(&step_ms, 0.9).ok_or("no steps in the nominal window")?;
    let lat_tail = tail(&latency_ms, 0.9).ok_or("no nominal session finished")?;
    let p90s: Vec<f64> = (0..judged)
        .map(|j| phase_p90(j, offered[j], &arrivals, &done))
        .collect();
    let max_rate = max_rate(&rates[..judged], &p90s, latency_limit * 1e3);
    let large_starved = large_steps < LIFETIME;

    let v = &mut out.values;
    if !trace {
        v.set("step_ms_p50", median(&step_ms).unwrap_or(0.0));
        v.set("step_ms_p90", step_tail.value);
        v.set("body_steps_per_s", nominal_body_steps as f64 / nominal_s);
        v.set("force_rel_err", mean(&force_errs).unwrap_or(0.0));
        v.set("setup_s", median(&setups).unwrap_or(0.0));
        v.set("session_ms_p50", median(&latency_ms).unwrap_or(0.0));
        v.set("session_ms_p90", lat_tail.value);
        v.set(
            "large_steps_per_s",
            large_steps_nominal as f64 / large_alive_nominal_s,
        );
        v.set("fairness_jain", jain(&shares).unwrap_or(0.0));
    } else {
        let (traced, unhealthy, plain_step_ms) =
            trace_solo(&solo, &arrivals, &done, &verify, TRACED_SESSIONS, &cfg)?;
        out.checks.push(Check::new(
            "solo replays judged healthy",
            unhealthy == 0,
            format!("{unhealthy} unhealthy verdicts"),
        ));
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        crate::zero_all(v);
        let busy: u64 = snap.worker_busy_ns.iter().sum();
        v.set(
            "stdpar.busy_share",
            busy as f64 / (workers as f64 * wall_s * 1e9),
        );
        v.set(
            "stdpar.par_regions_per_step",
            ratio(c("stdpar_par_regions"), c("server_steps")),
        );
        v.set(
            "stdpar.dag_steals_per_tick",
            ratio(c("stdpar_dag_steals"), c("server_ticks")),
        );
        let (ba, bo) = (c("bvh_mac_accepts"), c("bvh_mac_opens"));
        v.set("bvh.mac_accept_ratio", ratio(ba, ba + bo));
        for (name, layer) in [
            ("bvh.sort_ms", Layer::BvhSort),
            ("bvh.build_ms", Layer::BvhBuild),
            ("bvh.moments_ms", Layer::BvhMoments),
            ("bvh.force_ms", Layer::BvhForce),
            ("sim.bbox_ms", Layer::Bbox),
        ] {
            // Sessions step sequentially inside their graph node: the solo
            // replay is the one-worker measurement as well.
            v.set(name, traced.layer_ms(layer));
            v.set(crate::metric_name(name, "_1w")?, traced.layer_ms(layer));
        }
        v.set("sim.step_residual_ms", traced.residual_ms());
        v.set("sim.step_residual_ms_1w", traced.residual_ms());
        v.set("sim.kick_drift_ms", traced.layer_ms(Layer::KickDrift));
        v.set("sim.closure_gap", traced.closure_gap());
        v.set("sim.closure_gap_1w", traced.closure_gap());
        let per_call_us = |layer| {
            traced.tracer.total_ns(layer) as f64 / traced.tracer.count(layer).max(1) as f64 / 1e3
        };
        v.set("sim.health_us", per_call_us(Layer::Health));
        v.set("sim.checkpoint_us", per_call_us(Layer::Checkpoint));
        v.set(
            "sim.tree_reuse_frac",
            ratio(c("tree_reuse_steps"), c("sim_steps")),
        );
        v.set(
            "server.tick_ms_p50",
            median(&nominal_ticks_ms).unwrap_or(0.0),
        );
        v.set("server.tick_ms_p90", tick_tail.value);
        v.set(
            "server.tick_busy_share",
            window_busy_ns as f64 / 1e6 / (workers as f64 * tick_ms_total.max(1e-9)),
        );
        v.set(
            "server.steps_per_tick",
            nominal_steps as f64 / nominal_ticks_ms.len().max(1) as f64,
        );
        let us = |xs: &[f64]| mean(xs).unwrap_or(0.0) / 1e3;
        v.set("server.admit_us", us(&admit_ns));
        v.set("server.close_us", us(&close_ns));
        v.set("server.snapshot_us", us(&snap_ns));
        v.set("server.resume_us", us(&resume_ns));
        v.set("server.quarantines", quarantines as f64);
        v.set("server.rejections", rejections as f64);
        v.set(
            "server.large_planned_frac",
            nominal_large_planned as f64 / nominal_ticks_ms.len().max(1) as f64,
        );
        v.set("server.large_starved", f64::from(u8::from(large_starved)));
        v.set("server.starved_sessions", starved as f64);
        v.set("load.max_sessions_per_s", max_rate);
        v.set(
            "load.admit_lag_ms_p90",
            tail(&lags, 0.9).map_or(0.0, |t| t.value * 1e3),
        );
        v.set("load.failed_frac", out.failed as f64 / out.attempted as f64);
        // The same sessions' step wall, traced minus untraced.
        let overhead =
            traced.per_step_ms(traced.step_wall_ns) - mean(&plain_step_ms).unwrap_or(0.0);
        v.set("trace.overhead_ms", overhead);
    }
    out.notes.push(format!(
        "nominal window {nominal_s:.1} s at {} sessions/s: {} offered, {} finished, {} starved \
         (kept in the latency sample at the time they were given up on); {} steps \
         (step_ms_p90 is p{:.1}) in {} ticks; session_ms_p90 is p{:.1} of {}; \
         {resumed_count} resumed in the whole run, {starved} starved",
        NOMINAL_RATE,
        nominal_offered,
        nominal_done.len(),
        starved_latency_ms.len(),
        step_ms.len(),
        step_tail.q * 100.0,
        nominal_ticks_ms.len(),
        lat_tail.q * 100.0,
        latency_ms.len(),
    ));
    if trace {
        let phases: Vec<String> = rates
            .iter()
            .zip(&p90s)
            .map(|(r, p)| format!("{r}/s p90 {p:.0} ms"))
            .collect();
        out.notes.push(format!(
            "ladder (limit p90 ≤ {:.0} ms): {} -> load.max_sessions_per_s {max_rate:.3}",
            latency_limit * 1e3,
            phases.join(", ")
        ));
    }
    out.notes.push(format!(
        "large tenant N={}: {large_steps} steps in {wall_s:.1} s, planned in {nominal_large_planned} \
         of {} nominal ticks{}",
        spec.large_n,
        nominal_ticks_ms.len(),
        if large_starved { " (starved: fewer steps than a small session's lifetime)" } else { "" }
    ));
    Ok(out)
}

/// Replay `which` of the finished sessions as solo simulations, spread over
/// `workers` threads. Returns each replay's measurements and final state.
fn replay_solo(
    solo: &SimSpec,
    arrivals: &[Arrival],
    done: &[Done],
    which: &[usize],
    workers: usize,
) -> Result<Vec<(crate::sims::Session, SystemState)>, String> {
    let chunk = which.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = which
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let d = &done[i];
                            // The set-up step is the first of the session's steps.
                            let steps = d.total_steps as usize - 1;
                            run_session(solo, arrivals[d.arrival].seed, steps, false, None, None)
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut all = Vec::with_capacity(which.len());
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "a solo replay panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// Replay up to `count` verified sessions twice more, one after the other:
/// untraced, then with spans around every layer call, health check and
/// checkpoint record. Returns the spans, the number of unhealthy verdicts
/// and the untraced step walls (ms).
fn trace_solo(
    solo: &SimSpec,
    arrivals: &[Arrival],
    done: &[Done],
    verify: &[usize],
    count: usize,
    cfg: &SessionConfig,
) -> Result<(Traced, usize, Vec<f64>), String> {
    let mut traced = Traced::default();
    let mut unhealthy = 0;
    let mut plain_step_ms = Vec::new();
    for &i in verify.iter().take(count) {
        let d = &done[i];
        let (plain, _) = run_session(
            solo,
            arrivals[d.arrival].seed,
            d.total_steps as usize - 1,
            false,
            None,
            None,
        )?;
        plain_step_ms.extend_from_slice(&plain.step_ms);
        let (session, state) = run_session(
            solo,
            arrivals[d.arrival].seed,
            d.total_steps as usize - 1,
            false,
            Some(&mut traced),
            Some(cfg),
        )?;
        if !bitwise_equal(&state, &d.state) {
            return Err("traced solo replay diverged from the batched session".into());
        }
        unhealthy += session.unhealthy;
    }
    Ok((traced, unhealthy, plain_step_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_the_p90_crossing() {
        let rates = [8.0, 12.0, 16.0, 20.0];
        // Every phase within the limit: the highest offered rate.
        assert_eq!(
            max_rate(&rates, &[100.0, 200.0, 400.0, 900.0], 1000.0),
            20.0
        );
        // 500 ms at 12/s, 2000 ms at 16/s: ln-midpoint of the limit is 14/s.
        let m = max_rate(&rates, &[100.0, 500.0, 2000.0, 5000.0], 1000.0);
        assert!((m - 14.0).abs() < 1e-12);
        // A never-finishing tail leaves the last passing rate.
        assert_eq!(
            max_rate(&rates, &[100.0, 500.0, f64::INFINITY, 0.0], 1000.0),
            12.0
        );
        // The nominal window itself over the limit: scaled down.
        assert_eq!(max_rate(&rates, &[2000.0, 3000.0, 0.0, 0.0], 1000.0), 4.0);
    }

    #[test]
    fn schedule_is_seeded_and_offers_the_exact_load() {
        let spec = ServiceSpec {
            small_n: 8,
            ..service_mixed(true)
        };
        let a = schedule(&spec, 7, 2.0, &LADDER, 0.5);
        let b = schedule(&spec, 7, 2.0, &LADDER, 0.5);
        let c = schedule(&spec, 8, 2.0, &LADDER, 0.5);
        let due = |s: &[Arrival]| s.iter().map(|a| a.due_s).collect::<Vec<_>>();
        assert_eq!(due(&a), due(&b));
        assert_ne!(due(&a), due(&c));
        let nominal = a.iter().filter(|x| x.phase == NOMINAL).count();
        assert_eq!(nominal, (NOMINAL_RATE * 2.0).round() as usize);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }
}
