//! A self-contained strong-scaling experiment (the Figs. 1–3 machinery on
//! a problem small enough for a laptop).
//!
//! ```text
//! cargo run --release --example strong_scaling
//! ```
//!
//! Evolves one square-patch simulation and models every step at each core
//! count on both paper platforms, printing the scaling table with the
//! stall the paper ties to particles/core.

use sph_exa_repro::cluster::scaling::render_scaling_table;
use sph_exa_repro::cluster::{
    marenostrum4, piz_daint, scaling_experiment, ScalingConfig, StepModelConfig,
};
use sph_exa_repro::exa::DistributedSimulation;
use sph_exa_repro::parents::{sphflow, Scenario};
use sph_exa_repro::scenarios::{square_patch, SquarePatchConfig};

fn main() {
    let setup = sphflow();
    let nx = 20;
    let cfg = SquarePatchConfig { nx, nz: nx, gamma: setup.sph.gamma, ..Default::default() };
    println!(
        "strong scaling of the square patch, {} particles, SPH-flow configuration",
        nx * nx * nx
    );

    for machine in [piz_daint(), marenostrum4()] {
        let sys = square_patch(&cfg);
        let mut sim = DistributedSimulation::new(sys, setup.sph, 1).expect("valid");
        let model = StepModelConfig {
            partitioner: setup.partitioner,
            balancing: setup.balancing,
            machine,
            cost: setup.cost_for(Scenario::SquarePatch),
        };
        let sweep = ScalingConfig { core_counts: vec![12, 24, 48, 96, 192, 384], steps: 3 };
        let (rows, _) =
            scaling_experiment(&mut sim, &model, &sweep).expect("physics evolution stayed stable");
        println!("\n{}", render_scaling_table(machine.name, &rows));
    }
    println!(
        "the efficiency column collapses once particles/core drops toward ~10³–10⁴ — \
         the stall rule of §5.2 (\"scaling stalls when there are not enough particles/core\")."
    );
}
