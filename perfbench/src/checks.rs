//! Output checks shared by the workloads.

use nbody_math::gravity::direct_accel;
use nbody_math::{SplitMix64, Vec3};
use nbody_sim::diagnostics::Diagnostics;
use nbody_sim::prelude::SystemState;

/// One named correctness check and whether it held.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, passed: bool, detail: String) -> Self {
        Check {
            name,
            passed,
            detail,
        }
    }
}

/// Mean relative acceleration error of `accel` against an exact direct sum,
/// over `samples` bodies drawn with `rng`.
pub fn force_rel_err(
    state: &SystemState,
    accel: &[Vec3],
    g: f64,
    softening: f64,
    samples: usize,
    rng: &mut SplitMix64,
) -> f64 {
    let n = state.len();
    let k = samples.min(n);
    let mut sum = 0.0;
    for _ in 0..k {
        let i = rng.next_below(n as u64) as usize;
        let exact = direct_accel(
            state.positions[i],
            Some(i as u32),
            &state.positions,
            &state.masses,
            g,
            softening,
        );
        sum += (accel[i] - exact).norm() / (exact.norm() + 1e-300);
    }
    sum / k as f64
}

/// Conserved quantities of a state, for drift checks.
#[derive(Clone, Copy, Debug)]
pub struct Invariants {
    pub momentum: Vec3,
    /// `Σ m|v|`: the scale momentum drift is measured against.
    pub momentum_scale: f64,
    /// Total energy with the potential estimated from a fixed sample.
    pub energy: f64,
}

/// Bodies in the potential-energy sample.
const ENERGY_SAMPLES: usize = 256;

impl Invariants {
    pub fn measure(state: &SystemState, g: f64, softening: f64) -> Self {
        let d = Diagnostics::measure_sampled(state, g, softening, ENERGY_SAMPLES);
        let momentum_scale = state
            .masses
            .iter()
            .zip(&state.velocities)
            .map(|(m, v)| m * v.norm())
            .sum();
        Invariants {
            momentum: d.momentum,
            momentum_scale,
            energy: d.total_energy,
        }
    }

    /// `(momentum drift, energy drift)` of `later` relative to `self`.
    pub fn drift(&self, later: &Invariants) -> (f64, f64) {
        let dp = (later.momentum - self.momentum).norm() / (self.momentum_scale + 1e-300);
        let de = (later.energy - self.energy).abs() / (self.energy.abs() + 1e-300);
        (dp, de)
    }
}

/// Bitwise equality of two vectors.
pub fn bitwise_equal_vec3(p: Vec3, q: Vec3) -> bool {
    (0..3).all(|k| p[k].to_bits() == q[k].to_bits())
}

/// Bitwise equality of two states' positions, velocities and masses.
pub fn bitwise_equal(a: &SystemState, b: &SystemState) -> bool {
    fn same(x: &[Vec3], y: &[Vec3]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bitwise_equal_vec3(*p, *q))
    }
    same(&a.positions, &b.positions)
        && same(&a.velocities, &b.velocities)
        && a.masses.len() == b.masses.len()
        && a.masses
            .iter()
            .zip(&b.masses)
            .all(|(p, q)| p.to_bits() == q.to_bits())
}
