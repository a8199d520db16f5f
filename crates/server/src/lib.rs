//! Multi-tenant simulation service (DESIGN.md § Multi-tenant service).
//!
//! A [`SessionManager`] owns a pool of per-session slots — each a
//! [`Simulation`] plus its grow-only [`SimWorkspace`] and a
//! [`CheckpointRing`] — and advances **every** active session with one
//! batched [`TaskGraph`] run per [`SessionManager::tick`]. Each session
//! contributes a chain of step nodes to the shared graph; chains from
//! different sessions are unordered against each other, so the scoped
//! worker pool is spawned **once per tick** instead of once per session
//! per step (the naive [`TickMode::PerSession`] baseline measured by the
//! `service_soak` bench).
//!
//! Policies layered on top of the batched stepper:
//!
//! - **Admission control** — a fixed slot capacity; [`admit`] returns a
//!   typed [`AdmitError`] (pool full, empty system, degenerate checkpoint
//!   ring, zero weight) instead of growing without bound.
//! - **Fairness** — deficit round-robin over per-session busy-nanosecond
//!   budgets: each tick a session earns `weight × quantum_ns` of deficit
//!   (capped at `burst_ticks` quanta) and is planned
//!   `min(deficit / cost, max_steps_per_tick)` step nodes, where `cost`
//!   is an EMA of its measured per-step nanoseconds (or a fixed constant
//!   under [`CostModel::Fixed`], which makes schedules exactly
//!   reproducible in tests).
//! - **Quarantine** — a [`HealthMonitor`] judges every step inside the
//!   graph node; a `Suspect`/`Corrupt` verdict parks the session instead
//!   of poisoning the tick. [`restore_quarantined`] rolls the session
//!   back to its newest intact ring checkpoint.
//! - **Recycling** — closed sessions return their slot to a free list;
//!   the slot's workspace and (capacity-matching) checkpoint ring are
//!   reused by the next admission. Reuse is bitwise-invisible: a session
//!   stepped in a recycled slot produces the identical trajectory to one
//!   stepped in a fresh manager (`tests/workspace_reuse.rs`).
//! - **Snapshots** — per-session `NBSNAP02` typed io: [`save_session`]
//!   (atomic file), [`snapshot_to`] (stream), and [`admit_from_snapshot`]
//!   which resumes through `resume_state_from_disk` and therefore
//!   inherits its `.prev` fallback and typed empty-body rejection.
//!
//! Under [`TickMode::Batched`] admitted options are normalised to
//! `policy = Seq`: graph nodes must not open nested parallel regions, and
//! a sequential in-node step makes per-session trajectories independent
//! of worker count — bitwise identical to a solo [`Simulation`] run of the
//! same normalised options.
//!
//! [`admit`]: SessionManager::admit
//! [`restore_quarantined`]: SessionManager::restore_quarantined
//! [`save_session`]: SessionManager::save_session
//! [`snapshot_to`]: SessionManager::snapshot_to
//! [`admit_from_snapshot`]: SessionManager::admit_from_snapshot

use nbody_sim::io::{self, SnapshotError};
use nbody_sim::prelude::{
    resume_state_from_disk, CheckpointError, CheckpointRing, DynPolicy, HealthConfig,
    HealthMonitor, HealthVerdict, SimOptions, SimWorkspace, Simulation, SolverKind, SystemState,
};
use nbody_sim::solver::SolverError;
use nbody_telemetry::record;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stdpar::sync_slice::SyncSlice;
use stdpar::taskgraph::TaskGraph;

/// Bounded window of recent per-step latencies kept for percentile
/// queries ([`SessionManager::step_latencies`]). Pre-reserved so warm
/// ticks never reallocate.
const LATENCY_WINDOW: usize = 1 << 15;

/// Generation handle for a pooled session. The epoch guards against
/// stale ids: closing a session bumps its slot's epoch, so a handle held
/// across a close/re-admit cycle resolves to [`SessionError::Stale`]
/// rather than to the stranger now living in the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId {
    slot: u32,
    epoch: u32,
}

/// Per-session admission parameters.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Force solver backing the session.
    pub kind: SolverKind,
    /// Simulation options. Under [`TickMode::Batched`] `policy` is
    /// normalised (see the crate docs); everything else is honoured as
    /// given.
    pub opts: SimOptions,
    /// Checkpoint ring slots (must be ≥ 1; 0 is a typed
    /// [`AdmitError::Checkpoint`] rejection).
    pub ring_capacity: usize,
    /// Record a ring checkpoint every this many healthy steps
    /// (0 disables checkpointing — quarantined sessions are then
    /// unrecoverable in place).
    pub checkpoint_every: u64,
    /// Deficit-round-robin weight (must be ≥ 1): a weight-3 session earns
    /// three times the step budget of a weight-1 session.
    pub weight: u32,
    /// Health watchdog thresholds.
    pub health: HealthConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            kind: SolverKind::Bvh,
            opts: SimOptions::default(),
            ring_capacity: 2,
            checkpoint_every: 8,
            weight: 1,
            health: HealthConfig::default(),
        }
    }
}

/// Why an admission was refused. Wraps the typed construction errors of
/// the underlying subsystems so a caller can distinguish "pool is full,
/// retry later" from "this config can never work".
#[derive(Debug)]
pub enum AdmitError {
    /// Every slot is occupied.
    Full {
        /// The pool's fixed slot capacity.
        capacity: usize,
    },
    /// `weight == 0` would starve the session forever.
    ZeroWeight,
    /// Degenerate checkpoint ring config (zero capacity).
    Checkpoint(CheckpointError),
    /// The simulation itself refused construction (e.g. an empty system).
    Solver(SolverError),
    /// Snapshot resume failed ([`SessionManager::admit_from_snapshot`]).
    Snapshot(SnapshotError),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Full { capacity } => {
                write!(f, "session pool is full (capacity {capacity})")
            }
            AdmitError::ZeroWeight => write!(f, "session weight must be at least 1"),
            AdmitError::Checkpoint(e) => write!(f, "checkpoint config rejected: {e}"),
            AdmitError::Solver(e) => write!(f, "simulation rejected: {e}"),
            AdmitError::Snapshot(e) => write!(f, "snapshot resume failed: {e}"),
        }
    }
}

impl std::error::Error for AdmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmitError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

/// Errors from operations on an already-admitted session.
#[derive(Debug)]
pub enum SessionError {
    /// The id's epoch no longer matches its slot (session was closed).
    Stale,
    /// No intact checkpoint to restore a quarantined session from.
    NoCheckpoint,
    /// Snapshot io failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Stale => write!(f, "stale session id (session was closed)"),
            SessionError::NoCheckpoint => {
                write!(f, "no intact checkpoint to restore the session from")
            }
            SessionError::Snapshot(e) => write!(f, "snapshot io failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

/// How a tick advances the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickMode {
    /// Every session's step chain is wired into **one** [`TaskGraph`] run
    /// on the shared scoped-thread pool; admitted options are normalised
    /// to sequential in-node stepping.
    Batched,
    /// Naive baseline: sessions step one after another, each step opening
    /// its own parallel regions (the admitted `policy` is honoured).
    PerSession,
}

/// Where the scheduler gets a session's per-step cost estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostModel {
    /// EMA of measured per-step wall nanoseconds (production default).
    Measured,
    /// A fixed per-step cost in nanoseconds — makes deficit-round-robin
    /// schedules exactly reproducible (tests).
    Fixed(u64),
}

/// Deficit-round-robin tuning.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Nanoseconds of step budget a weight-1 session earns per tick.
    pub quantum_ns: u64,
    /// Hard per-session cap on step nodes planned in one tick.
    pub max_steps_per_tick: u32,
    /// Deficit accumulation cap, in quanta: an idle-then-busy session can
    /// burst at most `burst_ticks` ticks' worth of budget.
    pub burst_ticks: u32,
    /// Cost estimator feeding the planner.
    pub cost_model: CostModel,
    /// Worker-pool size for the batched graph run (0 = inherit the
    /// backend's `thread_count()`). The service owns its parallelism, so
    /// it can right-size the pool to the hardware even when tenants
    /// admitted over-subscribed thread requests; `1` runs the graph
    /// inline with zero spawns.
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quantum_ns: 2_000_000,
            max_steps_per_tick: 32,
            burst_ticks: 4,
            cost_model: CostModel::Measured,
            workers: 0,
        }
    }
}

/// What one [`SessionManager::tick`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickReport {
    /// Sessions that executed at least one step.
    pub sessions: usize,
    /// Total steps executed across all sessions.
    pub steps: u64,
    /// Sessions newly quarantined by this tick's health verdicts.
    pub new_quarantines: usize,
    /// Wall time of the whole tick (plan + run + accounting).
    pub wall: Duration,
}

struct Session {
    sim: Simulation,
    monitor: HealthMonitor,
    weight: u32,
    checkpoint_every: u64,
    deficit_ns: u64,
    /// EMA of measured per-step cost (only read under
    /// [`CostModel::Measured`]).
    cost_ns: u64,
    busy_ns: u64,
    quarantined: Option<&'static str>,
}

impl Session {
    fn steps_done(&self) -> u64 {
        self.sim.clock().1 as u64
    }
}

/// One pooled slot. The workspace and ring outlive the sessions passing
/// through: both are grow-only, so a recycled slot starts warm.
struct Slot {
    epoch: u32,
    session: Option<Session>,
    ws: SimWorkspace,
    ring: CheckpointRing,
}

#[derive(Clone, Copy)]
struct PlanEntry {
    slot: u32,
    planned: u32,
    first_node: u32,
    /// Cost the planner assumed; the deficit is charged at this rate so
    /// planning and charging can never disagree.
    cost_ns: u64,
    steps_before: u64,
    busy_before: u64,
}

/// Pool of concurrently-running simulation sessions stepped by one
/// batched task-graph run per tick. See the crate docs for the policy
/// stack (admission, fairness, quarantine, recycling, snapshots).
pub struct SessionManager {
    capacity: usize,
    mode: TickMode,
    sched: SchedulerConfig,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    graph: TaskGraph,
    plan: Vec<PlanEntry>,
    node_slot: Vec<u32>,
    node_ns: Vec<AtomicU64>,
    latencies: Vec<u64>,
    lat_cursor: usize,
    ticks: u64,
}

impl SessionManager {
    /// A manager with `capacity` session slots (slots are materialised
    /// lazily, so an over-provisioned capacity costs nothing until used).
    pub fn new(capacity: usize, mode: TickMode, sched: SchedulerConfig) -> Self {
        SessionManager {
            capacity,
            mode,
            sched,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            graph: TaskGraph::new(),
            plan: Vec::new(),
            node_slot: Vec::new(),
            node_ns: Vec::new(),
            latencies: Vec::with_capacity(LATENCY_WINDOW),
            lat_cursor: 0,
            ticks: 0,
        }
    }

    /// Fixed slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sessions currently admitted (running or quarantined).
    pub fn live_sessions(&self) -> usize {
        self.live
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Handles of every live session, in slot order.
    pub fn live_ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.session.as_ref().map(|_| SessionId { slot: i as u32, epoch: s.epoch })
        })
    }

    /// Recent per-step wall latencies in nanoseconds (bounded window,
    /// oldest overwritten first) — the raw material for p50/p99.
    pub fn step_latencies(&self) -> &[u64] {
        &self.latencies
    }

    fn normalize(&self, mut opts: SimOptions) -> SimOptions {
        if self.mode == TickMode::Batched {
            // Graph nodes must not open nested parallel regions, and a
            // sequential in-node step keeps each trajectory independent
            // of worker count.
            opts.policy = DynPolicy::Seq;
        }
        opts
    }

    /// Admit `state` as a new session. Typed rejection instead of
    /// panics: pool full, zero weight, zero-capacity ring, empty system.
    pub fn admit(
        &mut self,
        state: SystemState,
        cfg: &SessionConfig,
    ) -> Result<SessionId, AdmitError> {
        match self.try_admit(state, cfg) {
            Ok(id) => {
                self.live += 1;
                record!(counter SERVER_SESSIONS_ADMITTED, 1);
                record!(gauge SERVER_SESSIONS_HIGH_WATER, self.live as u64);
                Ok(id)
            }
            Err(e) => {
                record!(counter SERVER_SESSIONS_REJECTED, 1);
                Err(e)
            }
        }
    }

    /// Admit a session resumed from an `NBSNAP02` snapshot file.
    /// Inherits `resume_state_from_disk`'s `.prev` fallback and its typed
    /// rejection of zero-body snapshots.
    pub fn admit_from_snapshot(
        &mut self,
        path: impl AsRef<Path>,
        cfg: &SessionConfig,
    ) -> Result<SessionId, AdmitError> {
        let state = match resume_state_from_disk(path) {
            Ok((state, _used_prev)) => state,
            Err(e) => {
                record!(counter SERVER_SESSIONS_REJECTED, 1);
                return Err(AdmitError::Snapshot(e));
            }
        };
        self.admit(state, cfg)
    }

    fn try_admit(
        &mut self,
        state: SystemState,
        cfg: &SessionConfig,
    ) -> Result<SessionId, AdmitError> {
        if cfg.weight == 0 {
            return Err(AdmitError::ZeroWeight);
        }
        if cfg.ring_capacity == 0 {
            // Mirror the ring's own construction error without burning a
            // slot on a config that can never work.
            return Err(AdmitError::Checkpoint(CheckpointError::ZeroCapacity));
        }
        if self.free.is_empty() && self.slots.len() >= self.capacity {
            return Err(AdmitError::Full { capacity: self.capacity });
        }
        let n = state.len();
        let sim = Simulation::new(state, cfg.kind, self.normalize(cfg.opts))
            .map_err(AdmitError::Solver)?;

        let idx = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                let ring = CheckpointRing::with_capacity(cfg.ring_capacity)
                    .map_err(AdmitError::Checkpoint)?;
                self.slots.push(Slot {
                    epoch: 0,
                    session: None,
                    ws: SimWorkspace::new(),
                    ring,
                });
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        if slot.ring.capacity() == cfg.ring_capacity {
            slot.ring.clear();
        } else {
            slot.ring =
                CheckpointRing::with_capacity(cfg.ring_capacity).map_err(AdmitError::Checkpoint)?;
        }
        slot.ring.warm(n);

        let mut monitor = HealthMonitor::new(cfg.health);
        // Establish the watchdog baselines on the admitted state so the
        // first in-tick check judges a real step, and seed checkpoint #0
        // so a session quarantined before its first cadence point can
        // still be restored.
        let _ = monitor.check(sim.state(), sim.options().dt, sim.options().policy);
        if cfg.checkpoint_every > 0 {
            slot.ring.record(&sim, &monitor);
        }
        slot.session = Some(Session {
            sim,
            monitor,
            weight: cfg.weight,
            checkpoint_every: cfg.checkpoint_every,
            deficit_ns: 0,
            cost_ns: self.sched.quantum_ns.max(1),
            busy_ns: 0,
            quarantined: None,
        });
        Ok(SessionId { slot: idx as u32, epoch: slot.epoch })
    }

    fn slot_index(&self, id: SessionId) -> Result<usize, SessionError> {
        let idx = id.slot as usize;
        match self.slots.get(idx) {
            Some(slot) if slot.epoch == id.epoch && slot.session.is_some() => Ok(idx),
            _ => Err(SessionError::Stale),
        }
    }

    fn session(&self, id: SessionId) -> Result<&Session, SessionError> {
        let idx = self.slot_index(id)?;
        Ok(self.slots[idx].session.as_ref().expect("checked by slot_index"))
    }

    /// Close a session, returning its final state. The slot (workspace +
    /// ring) goes back on the free list; the epoch bump invalidates every
    /// outstanding handle to the closed session.
    pub fn close(&mut self, id: SessionId) -> Result<SystemState, SessionError> {
        let idx = self.slot_index(id)?;
        let slot = &mut self.slots[idx];
        let sess = slot.session.take().expect("checked by slot_index");
        slot.epoch = slot.epoch.wrapping_add(1);
        self.free.push(idx as u32);
        self.live -= 1;
        record!(counter SERVER_SESSIONS_CLOSED, 1);
        Ok(sess.sim.into_state())
    }

    /// The session's current state (positions/velocities/masses).
    pub fn session_state(&self, id: SessionId) -> Result<&SystemState, SessionError> {
        Ok(self.session(id)?.sim.state())
    }

    /// Steps the session's simulation has completed.
    pub fn session_steps(&self, id: SessionId) -> Result<u64, SessionError> {
        Ok(self.session(id)?.steps_done())
    }

    /// Wall nanoseconds of step work the session has consumed — the
    /// quantity deficit-round-robin balances across sessions.
    pub fn session_busy_ns(&self, id: SessionId) -> Result<u64, SessionError> {
        Ok(self.session(id)?.busy_ns)
    }

    /// `Some(reason)` if the session is quarantined, `None` if healthy.
    pub fn quarantine_reason(&self, id: SessionId) -> Result<Option<&'static str>, SessionError> {
        Ok(self.session(id)?.quarantined)
    }

    /// Roll a quarantined session back to its newest intact ring
    /// checkpoint and lift the quarantine. Walks the ring newest → oldest
    /// past checksum-corrupt slots; returns the restored step count.
    pub fn restore_quarantined(&mut self, id: SessionId) -> Result<u64, SessionError> {
        let idx = self.slot_index(id)?;
        let slot = &mut self.slots[idx];
        let sess = slot.session.as_mut().expect("checked by slot_index");
        for nth in 0..slot.ring.len() {
            if slot.ring.restore(nth, &mut sess.sim, &mut sess.monitor).is_ok() {
                sess.quarantined = None;
                sess.deficit_ns = 0;
                return Ok(sess.steps_done());
            }
        }
        Err(SessionError::NoCheckpoint)
    }

    /// Atomically save the session's state to `path` (`NBSNAP02`,
    /// write-to-temp-then-rename).
    pub fn save_session(
        &self,
        id: SessionId,
        path: impl AsRef<Path>,
    ) -> Result<(), SessionError> {
        let state = self.session_state(id)?;
        io::save_atomic(state, path).map_err(SessionError::Snapshot)
    }

    /// Stream the session's state as an `NBSNAP02` snapshot into `w`.
    pub fn snapshot_to<W: Write>(&self, id: SessionId, w: W) -> Result<(), SessionError> {
        let state = self.session_state(id)?;
        io::write_binary(state, w)
            .map_err(|e| SessionError::Snapshot(SnapshotError::Io(e)))
    }

    /// Advance the pool one scheduling round. Plans a deficit-round-robin
    /// step budget per session, executes every session's step chain —
    /// batched into one task-graph run, or sequentially per session under
    /// [`TickMode::PerSession`] — then settles deficits and cost EMAs.
    pub fn tick(&mut self) -> TickReport {
        let t0 = Instant::now();
        self.plan.clear();
        self.graph.clear();
        self.node_slot.clear();
        self.node_ns.clear();

        // ---- plan: deficit round-robin --------------------------------
        let quantum = self.sched.quantum_ns;
        let burst = self.sched.burst_ticks.max(1) as u64;
        let max_steps = self.sched.max_steps_per_tick.max(1);
        let cost_model = self.sched.cost_model;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(sess) = slot.session.as_mut() else { continue };
            if sess.quarantined.is_some() {
                continue;
            }
            let earn = (sess.weight as u64).saturating_mul(quantum);
            let cap = earn.saturating_mul(burst);
            sess.deficit_ns = sess.deficit_ns.saturating_add(earn).min(cap);
            let cost = match cost_model {
                CostModel::Fixed(c) => c.max(1),
                CostModel::Measured => sess.cost_ns.max(1),
            };
            let k = ((sess.deficit_ns / cost).min(u64::from(max_steps))) as u32;
            if k == 0 {
                continue;
            }
            let range = self.graph.add_nodes(k as usize);
            for node in range.clone() {
                self.node_slot.push(i as u32);
                self.node_ns.push(AtomicU64::new(0));
                if node + 1 < range.end {
                    self.graph.add_edge(node, node + 1);
                }
            }
            self.plan.push(PlanEntry {
                slot: i as u32,
                planned: k,
                first_node: range.start,
                cost_ns: cost,
                steps_before: sess.steps_done(),
                busy_before: sess.busy_ns,
            });
        }

        // ---- execute --------------------------------------------------
        match self.mode {
            TickMode::Batched => {
                let Self {
                    ref mut slots, ref mut graph, ref node_slot, ref node_ns, ref sched, ..
                } = *self;
                let view = SyncSlice::new(slots.as_mut_slice());
                let mut run = || {
                    graph.run(|node, _worker| {
                        let si = node_slot[node as usize] as usize;
                        // SAFETY: each slot index appears in exactly one
                        // step chain and the chain's nodes are totally
                        // ordered by edges, so no two nodes that can run
                        // concurrently alias the same slot.
                        let slot = unsafe { view.get_mut(si) };
                        if let Some(ns) = step_session_once(slot) {
                            node_ns[node as usize].store(ns, Ordering::Relaxed);
                        }
                    });
                };
                if sched.workers > 0 {
                    stdpar::backend::with_threads(sched.workers, run);
                } else {
                    run();
                }
            }
            TickMode::PerSession => {
                for pi in 0..self.plan.len() {
                    let e = self.plan[pi];
                    for j in 0..e.planned {
                        let slot = &mut self.slots[e.slot as usize];
                        let Some(ns) = step_session_once(slot) else { break };
                        self.node_ns[(e.first_node + j) as usize]
                            .store(ns, Ordering::Relaxed);
                    }
                }
            }
        }

        // ---- settle: charge deficits, update cost EMAs ----------------
        let mut report = TickReport::default();
        for pi in 0..self.plan.len() {
            let e = self.plan[pi];
            let slot = &mut self.slots[e.slot as usize];
            let Some(sess) = slot.session.as_mut() else { continue };
            let executed = sess.steps_done() - e.steps_before;
            let busy = sess.busy_ns - e.busy_before;
            if executed > 0 {
                report.sessions += 1;
                report.steps += executed;
                sess.deficit_ns =
                    sess.deficit_ns.saturating_sub(executed.saturating_mul(e.cost_ns));
                let avg = busy / executed;
                // First real measurement replaces the quantum-seeded
                // estimate outright — a slow blend from the seed would
                // under-plan young sessions for several ticks and skew
                // fairness against late arrivals.
                sess.cost_ns =
                    if e.steps_before == 0 { avg } else { (3 * sess.cost_ns + avg) / 4 };
            }
            if sess.quarantined.is_some() {
                report.new_quarantines += 1;
                // No budget accrues while parked.
                sess.deficit_ns = 0;
            }
        }
        for ni in 0..self.node_ns.len() {
            let ns = self.node_ns[ni].load(Ordering::Relaxed);
            if ns > 0 {
                record!(hist SERVER_STEP_NANOS, ns);
                if self.latencies.len() < LATENCY_WINDOW {
                    self.latencies.push(ns);
                } else {
                    self.latencies[self.lat_cursor] = ns;
                    self.lat_cursor = (self.lat_cursor + 1) % LATENCY_WINDOW;
                }
            }
        }
        self.ticks += 1;
        record!(counter SERVER_TICKS, 1);
        record!(counter SERVER_STEPS, report.steps);
        record!(counter SERVER_QUARANTINES, report.new_quarantines as u64);
        report.wall = t0.elapsed();
        report
    }
}

/// One micro-step of the session living in `slot`: step, judge, maybe
/// checkpoint, maybe quarantine. Returns the step's wall nanoseconds, or
/// `None` if the session was absent or quarantined (nothing ran).
fn step_session_once(slot: &mut Slot) -> Option<u64> {
    let sess = slot.session.as_mut()?;
    if sess.quarantined.is_some() {
        return None;
    }
    let t0 = Instant::now();
    sess.sim.step_into(&mut slot.ws);
    let report =
        sess.monitor.check(sess.sim.state(), sess.sim.options().dt, sess.sim.options().policy);
    match report.verdict {
        HealthVerdict::Healthy => {
            if sess.checkpoint_every > 0 && sess.steps_done() % sess.checkpoint_every == 0 {
                slot.ring.record(&sess.sim, &sess.monitor);
            }
        }
        HealthVerdict::Suspect | HealthVerdict::Corrupt => {
            sess.quarantined = Some(report.reason.unwrap_or("health check failed"));
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    sess.busy_ns += ns;
    Some(ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_sim::prelude::galaxy_collision;

    fn small_cfg() -> SessionConfig {
        SessionConfig {
            opts: SimOptions { dt: 1e-3, ..SimOptions::default() },
            ..SessionConfig::default()
        }
    }

    fn det_sched() -> SchedulerConfig {
        SchedulerConfig {
            quantum_ns: 300,
            burst_ticks: 1,
            cost_model: CostModel::Fixed(100),
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn admit_step_close_lifecycle() {
        let mut mgr = SessionManager::new(4, TickMode::Batched, det_sched());
        let id = mgr.admit(galaxy_collision(32, 7), &small_cfg()).unwrap();
        assert_eq!(mgr.live_sessions(), 1);
        let r = mgr.tick();
        assert_eq!(r.sessions, 1);
        assert_eq!(r.steps, 3); // deficit 300 / fixed cost 100
        assert_eq!(mgr.session_steps(id).unwrap(), 3);
        let state = mgr.close(id).unwrap();
        assert_eq!(state.len(), 32);
        assert_eq!(mgr.live_sessions(), 0);
        assert!(matches!(mgr.session_steps(id), Err(SessionError::Stale)));
    }

    #[test]
    fn weighted_sessions_get_proportional_steps() {
        let mut mgr = SessionManager::new(4, TickMode::Batched, det_sched());
        let a = mgr.admit(galaxy_collision(16, 1), &small_cfg()).unwrap();
        let b =
            mgr.admit(galaxy_collision(16, 2), &SessionConfig { weight: 3, ..small_cfg() })
                .unwrap();
        for _ in 0..4 {
            mgr.tick();
        }
        assert_eq!(mgr.session_steps(a).unwrap(), 12); // 3 per tick
        assert_eq!(mgr.session_steps(b).unwrap(), 36); // 9 per tick
    }

    #[test]
    fn typed_admission_rejections() {
        let mut mgr = SessionManager::new(1, TickMode::Batched, det_sched());
        assert!(matches!(
            mgr.admit(galaxy_collision(8, 3), &SessionConfig { weight: 0, ..small_cfg() }),
            Err(AdmitError::ZeroWeight)
        ));
        assert!(matches!(
            mgr.admit(
                galaxy_collision(8, 3),
                &SessionConfig { ring_capacity: 0, ..small_cfg() }
            ),
            Err(AdmitError::Checkpoint(CheckpointError::ZeroCapacity))
        ));
        assert!(matches!(
            mgr.admit(SystemState::new(), &small_cfg()),
            Err(AdmitError::Solver(SolverError::EmptySystem))
        ));
        mgr.admit(galaxy_collision(8, 3), &small_cfg()).unwrap();
        assert!(matches!(
            mgr.admit(galaxy_collision(8, 4), &small_cfg()),
            Err(AdmitError::Full { capacity: 1 })
        ));
    }

    #[test]
    fn closed_slot_is_recycled_with_a_bumped_epoch() {
        let mut mgr = SessionManager::new(1, TickMode::Batched, det_sched());
        let a = mgr.admit(galaxy_collision(8, 5), &small_cfg()).unwrap();
        mgr.tick();
        mgr.close(a).unwrap();
        let b = mgr.admit(galaxy_collision(8, 6), &small_cfg()).unwrap();
        assert_ne!(a, b);
        assert!(matches!(mgr.session_steps(a), Err(SessionError::Stale)));
        assert_eq!(mgr.session_steps(b).unwrap(), 0);
    }
}
