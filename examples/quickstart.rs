//! Quickstart: build a small gas ball, run ten SPH steps with the
//! mini-app driver, and watch the conserved quantities.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::core::ParticleSystem;
use sph_exa_repro::exa::DistributedSimulation;
use sph_exa_repro::math::{Aabb, Periodicity, SplitMix64, Vec3};

fn main() {
    // 1. Make particles: a warm uniform ball of unit mass.
    let n = 4_000;
    let mut rng = SplitMix64::new(7);
    let mut positions = Vec::with_capacity(n);
    while positions.len() < n {
        let p = Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        if p.norm() <= 1.0 {
            positions.push(p);
        }
    }
    let count = positions.len();
    let system = ParticleSystem::new(
        positions,
        vec![Vec3::ZERO; count],         // at rest
        vec![1.0 / count as f64; count], // equal masses
        vec![0.5; count],                // specific internal energy
        0.2,                             // initial smoothing length guess
        Periodicity::open(Aabb::cube(Vec3::ZERO, 2.0)),
    );

    // 2. Configure the mini-app (defaults = M4 spline, kernel-derivative
    //    gradients, global time-stepping — one cell of Table 2) on a
    //    single rank.
    let config = SphConfig { target_neighbors: 60, ..Default::default() };
    let mut sim = DistributedSimulation::new(system, config, 1).expect("valid configuration");

    // 3. Run and report.
    let initial = sim.conservation();
    println!("step      dt        time    kinetic   internal   total-E   drift");
    for _ in 0..10 {
        let report = sim.step().expect("stable step");
        let c = sim.conservation();
        println!(
            "{:4}  {:9.2e}  {:7.4}  {:8.5}  {:9.5}  {:8.5}  {:8.1e}",
            report.step,
            report.dt,
            report.time,
            c.kinetic_energy,
            c.internal_energy,
            c.total_energy(),
            c.energy_drift(&initial)
        );
    }
    let final_c = sim.conservation();
    println!(
        "\nthe hot ball expands: kinetic energy grew from 0 to {:.4}, internal fell, \
         total energy drifted {:.2e} (relative) over 10 steps.",
        final_c.kinetic_energy,
        final_c.energy_drift(&initial)
    );
    println!("{}", sim.aggregate_timers().report());
}
