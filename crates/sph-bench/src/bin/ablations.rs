//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! ```text
//! cargo run --release -p sph-bench --bin ablations
//! ```
//!
//! 1. Domain decomposition: static slabs vs SFC (Morton/Hilbert) vs ORB
//!    on the clustered Evrard distribution;
//! 2. Load balancing: static vs dynamic under skewed per-particle cost;
//! 3. Time-stepping: global vs individual block steps on the Evrard core;
//! 4. Gradients: IAD vs kernel derivatives — linear-field accuracy;
//! 5. Checkpointing: single-level vs multilevel under failure injection.
// CLI surface: wall-clock progress timing only; never feeds a trajectory.
#![allow(clippy::disallowed_methods)]

use sph_bench::{build_evrard_sim, ExperimentScale};
use sph_cluster::{
    model_step, piz_daint, CostModel, LoadBalancing, Partitioner, StepModelConfig, StepWorkload,
};
use sph_core::config::{GradientScheme, TimeStepping};
use sph_core::density::compute_density;
use sph_core::gradients::{compute_iad_matrices, scalar_gradient};
use sph_core::volume::compute_volume_elements;
use sph_domain::SfcKind;
use sph_ft::{simulate_run, FailureInjector, MultilevelConfig};
use sph_kernels::SUPPORT_RADIUS;
use sph_math::Vec3;
use sph_parents::sphynx;
use sph_tree::CellGrid;

fn decomposition_ablation(sim: &sph_exa::DistributedSimulation) {
    println!("--- ablation 1+2: decomposition × balancing (Evrard distribution) ---");
    let work = sim.per_particle_work().to_vec();
    let zeros = vec![0.0; sim.sys.len()];
    let workload = StepWorkload {
        positions: &sim.sys.x,
        sph_work: &work,
        gravity_work: &zeros,
        interaction_radius: 2.0 * sim.sys.max_h(),
        periodicity: sim.sys.periodicity,
        bounds: sim.sys.bounds(),
    };
    println!("  partitioner        balancing  LB      halo    step(s)");
    for (partitioner, pname) in [
        (Partitioner::Slab { axis: 0 }, "slab (SPHYNX)"),
        (Partitioner::Sfc(SfcKind::Morton), "SFC Morton"),
        (Partitioner::Sfc(SfcKind::Hilbert), "SFC Hilbert"),
        (Partitioner::Orb, "ORB (SPH-flow)"),
    ] {
        for (balancing, bname) in
            [(LoadBalancing::Static, "static"), (LoadBalancing::Dynamic, "dynamic")]
        {
            let cfg = StepModelConfig {
                partitioner,
                balancing,
                machine: piz_daint(),
                cost: CostModel::default(),
            };
            let t = model_step(&workload, 96, &cfg, Some(&work));
            println!(
                "  {pname:18} {bname:9}  {:5.1}%  {:6}  {:.4}",
                t.load_balance() * 100.0,
                t.halo_volume,
                t.total()
            );
        }
    }
    println!();
}

fn timestepping_ablation(particles: usize) {
    println!("--- ablation 3: global vs individual time-stepping (Evrard) ---");
    for (ts, name) in [
        (TimeStepping::Global, "global (SPHYNX)"),
        (TimeStepping::Individual { max_rungs: 6 }, "individual (ChaNGa)"),
    ] {
        let mut setup = sphynx();
        setup.sph.time_stepping = ts;
        let mut sim = build_evrard_sim(&setup, particles, 42);
        let mut interactions = 0u64;
        let mut active = 0.0;
        let mut simulated = 0.0;
        let steps = 3;
        for _ in 0..steps {
            let r = sim.step().expect("stable step");
            interactions += r.stats.sph_interactions + r.stats.gravity.total_interactions();
            active += r.active_fraction;
            simulated += r.dt;
        }
        println!(
            "  {name:22}: {:.3e} interactions for {simulated:.4} time units \
             (mean active fraction {:.2})",
            interactions as f64,
            active / steps as f64
        );
    }
    println!();
}

fn gradient_ablation(sim: &sph_exa::DistributedSimulation) {
    println!("--- ablation 4: IAD vs kernel-derivative gradients (linear field) ---");
    let mut sys = sim.sys.clone();
    let cfg = sim.config;
    let grid = CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
    let kernel = cfg.kernel.build();
    let active: Vec<u32> = (0..sys.len() as u32).collect();
    let (lists, _) = compute_density(&mut sys, &grid, kernel.as_ref(), &cfg, &active);
    compute_volume_elements(&mut sys, &lists, kernel.as_ref(), &cfg, &active);
    compute_iad_matrices(&mut sys, &lists, kernel.as_ref(), &active);
    let a = Vec3::new(1.0, -2.0, 0.5);
    let f: Vec<f64> = sys.x.iter().map(|&p| a.dot(p)).collect();
    for (scheme, name) in [
        (GradientScheme::Iad, "IAD (SPHYNX)"),
        (GradientScheme::KernelDerivative, "kernel derivatives"),
    ] {
        let start = std::time::Instant::now();
        let grads = scalar_gradient(&sys, &lists, kernel.as_ref(), scheme, &active, &f);
        let dt = start.elapsed().as_secs_f64();
        // Interior error only (surface particles lack full support).
        let com: Vec3 = sys.x.iter().fold(Vec3::ZERO, |acc, &p| acc + p) / sys.len() as f64;
        let mut err = 0.0;
        let mut count = 0;
        for (i, g) in grads.iter().enumerate() {
            if (sys.x[i] - com).norm() < 0.5 {
                err += (*g - a).norm() / a.norm();
                count += 1;
            }
        }
        println!(
            "  {name:20}: mean interior error {:.2e} ({count} particles, {dt:.3}s)",
            err / count.max(1) as f64
        );
    }
    println!();
}

fn checkpoint_ablation() {
    println!("--- ablation 5: single-level vs multilevel checkpointing ---");
    let steps = 2000u64;
    let step_time = 1.0;
    for (cfg, name) in [
        (MultilevelConfig::single_level(step_time, 100), "single-level (PFS only)"),
        (MultilevelConfig::three_tier(step_time), "multilevel (L1/L2/L3)"),
    ] {
        let mut wall = 0.0;
        let mut failures = 0;
        let trials = 5;
        for seed in 0..trials {
            let mut inj = FailureInjector::new(150.0, 0.15, 0.02, seed);
            let out = simulate_run(&cfg, &mut inj, steps, step_time);
            wall += out.wall_clock;
            failures += out.failures;
        }
        println!(
            "  {name:26}: mean wall-clock {:.0}s for {steps} steps ({} failures over {trials} trials, overhead {:.2}×)",
            wall / trials as f64,
            failures,
            wall / trials as f64 / (steps as f64 * step_time)
        );
    }
    println!();
}

fn main() {
    let scale = ExperimentScale::from_env();
    let particles = scale.particles.min(20_000);
    println!("ablation studies at {particles} particles\n");
    let setup = sphynx();
    let mut sim = build_evrard_sim(&setup, particles, 42);
    sim.step().expect("stable step");
    decomposition_ablation(&sim);
    timestepping_ablation(particles.min(5_000));
    gradient_ablation(&sim);
    checkpoint_ablation();
}
