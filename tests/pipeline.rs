//! End-to-end pipeline tests across crates: workload → simulation →
//! checkpoint → resume → render, plus the quadtree/octree planar
//! equivalence that backs the BH-SNE stack.

use stdpar_nbody::math::vec2::{Rect, Vec2};
use stdpar_nbody::prelude::*;
use stdpar_nbody::quadtree::Quadtree;
use stdpar_nbody::sim::diagnostics::l2_error_relative;
use stdpar_nbody::sim::io;
use stdpar_nbody::sim::recorder::Recorder;
use stdpar_nbody::sim::render::{DensityMap, Plane};

#[test]
fn checkpoint_resume_is_equivalent_to_uninterrupted_run() {
    let state = galaxy_collision(400, 51);
    let opts = SimOptions { dt: 1e-3, ..SimOptions::default() };

    // Uninterrupted 10 steps.
    let mut a = Simulation::new(state.clone(), SolverKind::Octree, opts).unwrap();
    a.run(10);

    // 5 steps, checkpoint through the binary format, 5 more steps.
    let mut b1 = Simulation::new(state, SolverKind::Octree, opts).unwrap();
    b1.run(5);
    let mut buf = Vec::new();
    io::write_binary(b1.state(), &mut buf).unwrap();
    let restored = io::read_binary(&buf[..]).unwrap();
    let mut b2 = Simulation::new(restored, SolverKind::Octree, opts).unwrap();
    b2.run(5);

    let err = l2_error_relative(&b2.state().positions, &a.state().positions);
    // The resumed run recomputes the first acceleration from identical
    // state, so only tree-rebuild reassociation noise remains.
    assert!(err < 1e-9, "checkpoint/resume drifted: {err}");
}

#[test]
fn recorder_plus_render_pipeline() {
    let state = galaxy_collision(1000, 52);
    let mut sim = Simulation::new(state, SolverKind::Bvh, SimOptions::default()).unwrap();
    let mut rec = Recorder::new(5);
    rec.run(&mut sim, 10);
    assert!(rec.energy_drift() < 1e-2);
    assert!(rec.samples().len() >= 3);

    let map = DensityMap::rasterize(sim.state(), Plane::Xy, 40, 40);
    assert!((map.total() - sim.state().total_mass()).abs() < 1e-9);
    let art = map.to_ascii();
    assert!(art.lines().count() == 40);
    // The collision scene must have visible structure (non-blank cells).
    assert!(art.chars().any(|c| c != ' ' && c != '\n'));
}

#[test]
fn quadtree_matches_octree_on_planar_data() {
    // z = 0 plane: the 3-D octree degenerates to a quadtree; both trees
    // must produce the same (exact, θ = 0) planar field.
    let mut rng = stdpar_nbody::math::SplitMix64::new(53);
    let n = 400;
    let pos3: Vec<Vec3> =
        (0..n).map(|_| Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0)).collect();
    let pos2: Vec<Vec2> = pos3.iter().map(|p| Vec2::new(p.x, p.y)).collect();
    let mass: Vec<f64> = (0..n).map(|_| rng.uniform(0.5, 2.0)).collect();

    let mut oct = stdpar_nbody::octree::Octree::new();
    oct.build(Par, &pos3, stdpar_nbody::math::Aabb::from_points(&pos3)).unwrap();
    oct.compute_multipoles(Par, &pos3, &mass);
    let mut acc3 = vec![Vec3::ZERO; n];
    oct.compute_forces(
        ParUnseq,
        &pos3,
        &mass,
        &mut acc3,
        &stdpar_nbody::math::ForceParams { theta: 0.0, softening: 1e-3, ..Default::default() },
    );

    let mut quad = Quadtree::new();
    quad.build(Par, &pos2, Rect::from_points(&pos2)).unwrap();
    quad.compute_multipoles(Par, &pos2, &mass);
    let mut acc2 = vec![Vec2::ZERO; n];
    quad.compute_forces(ParUnseq, &pos2, &mass, &mut acc2, 0.0, 1e-3);

    for i in 0..n {
        assert!(acc3[i].z.abs() < 1e-12, "planar field must stay planar");
        let d = Vec2::new(acc3[i].x, acc3[i].y) - acc2[i];
        assert!(d.norm() < 1e-9 * (1.0 + acc2[i].norm()), "body {i}");
    }
}

#[test]
fn phase_durations_fit_in_the_step_wall_time() {
    // Phases run one after another with a barrier between them, so their
    // exclusive wall windows must add up to no more than the whole step.
    for kind in [SolverKind::Bvh, SolverKind::Octree] {
        let state = galaxy_collision(2_000, 55);
        let opts = SimOptions { dt: 1e-3, ..SimOptions::default() };
        let mut sim = Simulation::new(state, kind, opts).unwrap();
        sim.step(); // warm-up: first step seeds accelerations
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            let t = sim.step();
            let wall = t0.elapsed();
            assert!(
                t.total() <= wall,
                "{}: Σ phase {:?} exceeds step wall {wall:?}",
                kind.name(),
                t.total()
            );
        }
    }
}

#[test]
fn csv_snapshot_feeds_external_workflow() {
    // CSV written by the galaxy example's --csv path can be reloaded as a
    // full state when velocities/masses are included via io::write_csv.
    let state = spinning_disk(300, 54);
    let mut buf = Vec::new();
    io::write_csv(&state, &mut buf).unwrap();
    let text = String::from_utf8(buf.clone()).unwrap();
    assert!(text.starts_with("x,y,z,vx,vy,vz,m\n"));
    assert_eq!(text.lines().count(), 301);
    let back = io::read_csv(&buf[..]).unwrap();
    assert_eq!(back.positions, state.positions);
}

#[test]
fn workload_spec_round_trip_through_simulation() {
    for spec in [
        WorkloadSpec::GalaxyCollision { n: 150, seed: 1 },
        WorkloadSpec::Plummer { n: 150, seed: 1 },
        WorkloadSpec::SpinningDisk { n: 150, seed: 1 },
        WorkloadSpec::UniformCube { n: 150, seed: 1 },
    ] {
        let mut sim = Simulation::new(spec.generate(), SolverKind::Bvh, SimOptions::default())
            .unwrap();
        sim.run(3);
        assert!(sim.state().is_valid(), "{}", spec.name());
    }
}
