//! Physical conservation laws across the integration loop — the paper
//! notes its simulations "produce consistent final results across all
//! systems, conserving mass and energy".

use stdpar_nbody::prelude::*;
use stdpar_nbody::resilience::{FaultInjector, FaultKind};

#[test]
fn energy_is_conserved_by_tree_solvers() {
    let state = galaxy_collision(1_500, 11);
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let opts =
            SimOptions { dt: 1e-3, theta: 0.5, softening: 5e-3, ..SimOptions::default() };
        let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
        let e0 = Diagnostics::measure(sim.state(), 1.0, 5e-3).total_energy;
        sim.run(100);
        let e1 = Diagnostics::measure(sim.state(), 1.0, 5e-3).total_energy;
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 5e-3, "{}: energy drift {drift}", kind.name());
    }
}

#[test]
fn mass_is_conserved_exactly() {
    let state = plummer(1_000, 12);
    let m0 = state.total_mass();
    let mut sim = Simulation::new(state, SolverKind::Octree, SimOptions::default()).unwrap();
    sim.run(50);
    assert_eq!(sim.state().total_mass(), m0, "mass is never touched by the integrator");
}

#[test]
fn momentum_conservation_all_pairs_exact() {
    // The exact solver preserves momentum to round-off (Newton's 3rd law).
    let state = galaxy_collision(300, 13);
    let opts = SimOptions { dt: 1e-3, theta: 0.0, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::AllPairs, opts).unwrap();
    let p0 = sim.state().momentum();
    sim.run(50);
    let p1 = sim.state().momentum();
    assert!((p1 - p0).norm() < 1e-10, "momentum drift {:?}", p1 - p0);
}

#[test]
fn angular_momentum_is_stable_for_disk() {
    let state = spinning_disk(1_000, 14);
    let opts = SimOptions { dt: 1e-3, theta: 0.5, softening: 1e-2, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::Bvh, opts).unwrap();
    let l0 = sim.state().angular_momentum().z;
    sim.run(100);
    let l1 = sim.state().angular_momentum().z;
    assert!(((l1 - l0) / l0).abs() < 1e-2, "Lz drift {l0} -> {l1}");
}

#[test]
fn bound_system_stays_bound() {
    let state = plummer(800, 15);
    let opts = SimOptions { dt: 2e-3, theta: 0.5, softening: 1e-2, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::Octree, opts).unwrap();
    sim.run(200);
    let d = Diagnostics::measure(sim.state(), 1.0, 1e-2);
    assert!(d.total_energy < 0.0, "Plummer sphere evaporated: E = {}", d.total_energy);
    assert!(sim.state().is_valid());
    // No body should have been ejected to absurd distance in 0.4 time units.
    let max_r = sim.state().positions.iter().map(|p| p.norm()).fold(0.0, f64::max);
    assert!(max_r < 50.0, "body ejected to r = {max_r}");
}

#[test]
fn energy_is_conserved_through_guarded_recovery() {
    // The self-healing layer under live fault injection must not cost
    // physics: rollback-retry (and any dt-halving rungs) keep the guarded
    // run inside the same energy-drift band as the clean solvers above.
    let state = galaxy_collision(1_000, 16);
    let opts = SimOptions { dt: 1e-3, theta: 0.5, softening: 5e-3, ..SimOptions::default() };
    let e0 = Diagnostics::measure(&state, 1.0, 5e-3).total_energy;
    let m0 = state.total_mass();
    let mut guard =
        GuardedSimulation::new(state, SolverKind::Bvh, opts, GuardConfig::default())
            .unwrap()
            .with_injector(
                FaultInjector::new(0xC0_5E_4E)
                    .with_rate(FaultKind::NanInject, 0.05)
                    .with_rate(FaultKind::PositionBitFlip, 0.03),
            );
    guard.run(100).unwrap();
    let s = guard.stats();
    assert!(s.rollbacks >= 1, "injection should have fired over 100 steps: {s:?}");
    let e1 = Diagnostics::measure(guard.state(), 1.0, 5e-3).total_energy;
    let drift = ((e1 - e0) / e0).abs();
    assert!(drift < 5e-3, "guarded+faulted energy drift {drift} (stats {s:?})");
    assert_eq!(guard.state().total_mass(), m0, "rollback must never touch masses");
    assert!(guard.state().is_valid());
}

#[test]
fn kepler_orbit_period_is_correct() {
    // Earth-like circular orbit in G = 1 units: a = 1, M = 1 ⇒ T = 2π.
    let state = SystemState::from_parts(
        vec![Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO],
        vec![Vec3::new(0.0, 1.0, 0.0), Vec3::ZERO],
        vec![1e-9, 1.0],
    );
    let dt = 5e-4;
    let steps = (2.0 * std::f64::consts::PI / dt).round() as usize;
    let opts = SimOptions { dt, theta: 0.0, softening: 0.0, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::AllPairs, opts).unwrap();
    sim.run(steps);
    let err = (sim.state().positions[0] - Vec3::new(1.0, 0.0, 0.0)).norm();
    assert!(err < 2e-3, "orbit did not close: {err}");
}
