//! Run the same square-patch step with all three parent-code
//! configurations and compare — the co-design comparison of §5 in
//! miniature: identical physics problem, different Tables 1/3 choices,
//! different work profiles.
//!
//! ```text
//! cargo run --release --example parent_comparison
//! ```
// Wall-clock timing IS the measurement here; never feeds a trajectory.
#![allow(clippy::disallowed_methods)]

use sph_exa_repro::cluster::{model_step, piz_daint, StepModelConfig, StepWorkload};
use sph_exa_repro::parents::{changa, miniapp, sphflow, sphynx, Scenario};
use sph_exa_repro::scenarios::{square_patch, SquarePatchConfig};

fn main() {
    let nx = 18;
    println!(
        "square patch {nx}³ = {} particles; one time-step per parent configuration\n",
        nx * nx * nx
    );
    println!(
        "{:18} {:>9} {:>12} {:>10} {:>9} {:>12}",
        "code", "dt", "interactions", "h-iters", "wall(s)", "96-core model"
    );
    for setup in [sphynx(), changa(), sphflow(), miniapp()] {
        let cfg = SquarePatchConfig { nx, nz: nx, gamma: setup.sph.gamma, ..Default::default() };
        let sys = square_patch(&cfg);
        let mut sim =
            sph_exa_repro::exa::DistributedSimulation::new(sys, setup.sph, 1).expect("valid");
        let start = std::time::Instant::now();
        let report = sim.step().expect("stable step");
        let wall = start.elapsed().as_secs_f64();

        // Model the same step at 96 cores of Piz Daint with this code's
        // calibrated cost model.
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
        let model = StepModelConfig {
            partitioner: setup.partitioner,
            balancing: setup.balancing,
            machine: piz_daint(),
            cost: setup.cost_for(Scenario::SquarePatch),
        };
        let timing = model_step(&workload, 96, &model, Some(&work));
        println!(
            "{:18} {:>9.2e} {:>12} {:>10} {:>9.3} {:>10.3}s",
            setup.name,
            report.dt,
            report.stats.sph_interactions,
            report.stats.h_iterations,
            wall,
            timing.total()
        );
    }
    println!(
        "\nnote the paper's ordering at fixed cores (Figs. 1–3): ChaNGa ≫ SPHYNX > SPH-flow \
         on this CFD test, with the mini-app target leaner than all three."
    );
}
