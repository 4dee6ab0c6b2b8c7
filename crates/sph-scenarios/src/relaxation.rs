//! Damped relaxation to glass-like particle configurations.
//!
//! §5.2 of the paper: "Generating initial conditions for different numbers
//! of particles is a non-trivial process." Lattice ICs carry anisotropic
//! kernel-sampling noise; production SPH codes relax their initial
//! conditions into a *glass* — a disordered but locally uniform
//! arrangement — by evolving with velocity damping until the pressure
//! forces settle. This module provides that relaxation as a reusable
//! preparation step.

use sph_core::config::SphConfig;
use sph_core::integrator::drift;
use sph_core::particles::ParticleSystem;
use sph_exa::DistributedSimulation;
use sph_math::Vec3;

/// Relaxation parameters.
#[derive(Debug, Clone, Copy)]
pub struct RelaxationConfig {
    /// Velocity damping per step: `v ← (1 − damping) v` (0 < damping ≤ 1;
    /// anything else is rejected with `Err`).
    pub damping: f64,
    /// Maximum relaxation steps.
    pub max_steps: usize,
    /// Stop when the rms acceleration falls below this fraction of the
    /// initial rms acceleration.
    pub target_residual: f64,
}

impl Default for RelaxationConfig {
    fn default() -> Self {
        RelaxationConfig { damping: 0.3, max_steps: 50, target_residual: 0.2 }
    }
}

/// Outcome of a relaxation run.
#[derive(Debug, Clone, Copy)]
pub struct RelaxationReport {
    /// Steps actually taken.
    pub steps: usize,
    /// rms acceleration before / after.
    pub initial_rms_accel: f64,
    pub final_rms_accel: f64,
    /// Density scatter (σ/mean) before / after.
    pub initial_density_scatter: f64,
    pub final_density_scatter: f64,
}

impl RelaxationReport {
    /// Residual force fraction achieved.
    pub fn residual(&self) -> f64 {
        if self.initial_rms_accel > 0.0 {
            self.final_rms_accel / self.initial_rms_accel
        } else {
            0.0
        }
    }
}

fn rms_accel(sys: &ParticleSystem) -> f64 {
    (sys.a.iter().map(|a| a.norm_sq()).sum::<f64>() / sys.len() as f64).sqrt()
}

fn density_scatter(sys: &ParticleSystem) -> f64 {
    let n = sys.len() as f64;
    let mean = sys.rho.iter().sum::<f64>() / n;
    let var = sys.rho.iter().map(|&r| (r - mean) * (r - mean)).sum::<f64>() / n;
    var.sqrt() / mean.max(1e-300)
}

/// Relax `sys` in place toward a glass using damped pressure-driven
/// motion at constant internal energy (the thermodynamic state is reset
/// after every step so the relaxation does not heat the gas). On `Err`
/// (a damping outside (0, 1], an invalid config, a failed step) `sys` is
/// left untouched.
pub fn relax_to_glass(
    sys: &mut ParticleSystem,
    sph: &SphConfig,
    config: &RelaxationConfig,
) -> Result<RelaxationReport, String> {
    if !(config.damping > 0.0 && config.damping <= 1.0) {
        return Err(format!("relaxation damping {} is outside (0, 1]", config.damping));
    }
    let u_frozen = sys.u.clone();
    let mut sim = DistributedSimulation::new(sys.clone(), *sph, 1)?;
    sim.evaluate_derivatives().map_err(|e| e.to_string())?;
    let initial_rms = rms_accel(&sim.sys);
    let initial_scatter = density_scatter(&sim.sys);
    let mut steps = 0;
    let mut final_rms = initial_rms;
    for _ in 0..config.max_steps {
        steps += 1;
        // Damped pseudo-dynamics: kick by a, damp, drift, refreeze u.
        let dts = sph_core::timestep::per_particle_dt(&sim.sys, sph);
        let dt = sph_core::timestep::global_dt(&dts).map_err(|e| e.to_string())?;
        for i in 0..sim.sys.len() {
            let a = sim.sys.a[i];
            sim.sys.v[i] = (sim.sys.v[i] + a * dt) * (1.0 - config.damping);
        }
        drift(&mut sim.sys, dt);
        sim.sys.u.copy_from_slice(&u_frozen);
        sim.evaluate_derivatives().map_err(|e| e.to_string())?;
        final_rms = rms_accel(&sim.sys);
        if final_rms <= config.target_residual * initial_rms {
            break;
        }
    }
    // Return the relaxed particles at rest with the frozen thermal state.
    sim.sys.v.iter_mut().for_each(|v| *v = Vec3::ZERO);
    sim.sys.u.copy_from_slice(&u_frozen);
    sim.sys.time = 0.0;
    sim.sys.step_count = 0;
    let report = RelaxationReport {
        steps,
        initial_rms_accel: initial_rms,
        final_rms_accel: final_rms,
        initial_density_scatter: initial_scatter,
        final_density_scatter: density_scatter(&sim.sys),
    };
    *sys = sim.sys;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::{Aabb, Periodicity, SplitMix64};

    /// Random (Poisson) particles — the noisiest possible start.
    fn random_gas(n: usize, seed: u64) -> ParticleSystem {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
        ParticleSystem::new(
            x,
            vec![Vec3::ZERO; n],
            vec![1.0 / n as f64; n],
            vec![1.0; n],
            0.15,
            Periodicity::fully_periodic(Aabb::unit()),
        )
    }

    fn cfg() -> SphConfig {
        SphConfig { target_neighbors: 40, max_h_iterations: 4, ..Default::default() }
    }

    #[test]
    fn relaxation_reduces_forces_and_density_scatter() {
        let mut sys = random_gas(1200, 5);
        let report = relax_to_glass(
            &mut sys,
            &cfg(),
            &RelaxationConfig { damping: 0.4, max_steps: 30, target_residual: 0.3 },
        )
        .expect("relaxation runs");
        assert!(report.steps > 0);
        assert!(
            report.final_rms_accel < report.initial_rms_accel,
            "forces must relax: {} → {}",
            report.initial_rms_accel,
            report.final_rms_accel
        );
        assert!(
            report.final_density_scatter < report.initial_density_scatter,
            "density scatter must shrink: {} → {}",
            report.initial_density_scatter,
            report.final_density_scatter
        );
        // The output is at rest with the original thermal state.
        assert!(sys.v.iter().all(|v| *v == Vec3::ZERO));
        assert!(sys.u.iter().all(|&u| (u - 1.0).abs() < 1e-12));
        assert_eq!(sys.time, 0.0);
        assert!(sys.sanity_check().is_ok());
    }

    #[test]
    fn relaxation_is_deterministic() {
        let mut a = random_gas(400, 9);
        let mut b = random_gas(400, 9);
        let rc = RelaxationConfig { damping: 0.5, max_steps: 5, target_residual: 0.0 };
        relax_to_glass(&mut a, &cfg(), &rc).unwrap();
        relax_to_glass(&mut b, &cfg(), &rc).unwrap();
        for i in 0..a.len() {
            assert_eq!(a.x[i], b.x[i]);
        }
    }

    #[test]
    fn out_of_range_damping_is_an_error_not_a_panic() {
        for damping in [0.0, 1.5] {
            let mut sys = random_gas(100, 13);
            let before = sys.x.clone();
            let rc = RelaxationConfig { damping, ..RelaxationConfig::default() };
            let err = relax_to_glass(&mut sys, &cfg(), &rc).expect_err("damping must be checked");
            assert!(err.contains("damping"), "{err}");
            assert_eq!(sys.x, before, "a rejected config must leave the system untouched");
        }
    }

    #[test]
    fn respects_max_steps() {
        let mut sys = random_gas(300, 11);
        let report = relax_to_glass(
            &mut sys,
            &cfg(),
            &RelaxationConfig { damping: 0.1, max_steps: 3, target_residual: 0.0 },
        )
        .unwrap();
        assert_eq!(report.steps, 3);
    }
}
