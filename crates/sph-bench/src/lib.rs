//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a regenerator binary in
//! `src/bin/`; this library holds what they share: scenario builders at a
//! configurable scale, the code-setup → simulation wiring, and the
//! experiment-scale switch (`SPH_EXA_FULL=1` runs paper scale — 10⁶
//! particles, 20 steps, 1 536 cores — the default is CI-sized with the
//! same shape).

use sph_cluster::{MachineModel, ScalingConfig, ScalingRow, StepModelConfig};
use sph_core::config::SphConfig;
use sph_exa::{DistributedBuilder, DistributedError, DistributedSimulation};
use sph_parents::{CodeSetup, Scenario};
use sph_scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};

/// Experiment scale: paper size or CI size.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Target particle count per test.
    pub particles: usize,
    /// Time-steps to run and average over.
    pub steps: usize,
    /// Largest core count on the x-axis.
    pub max_cores: usize,
}

impl ExperimentScale {
    /// Paper scale: 10⁶ particles, 20 steps, up to 1 536 cores.
    pub fn paper() -> Self {
        ExperimentScale { particles: 1_000_000, steps: 20, max_cores: 1536 }
    }

    /// CI scale: small enough for seconds-level runs, same shape.
    pub fn ci() -> Self {
        ExperimentScale { particles: 20_000, steps: 4, max_cores: 1536 }
    }

    /// `SPH_EXA_FULL=1` selects paper scale; `SPH_EXA_PARTICLES`,
    /// `SPH_EXA_STEPS` override individual knobs.
    pub fn from_env() -> Self {
        // sph-lint: allow(env-determinism) — experiment-scale knob, read
        // once by the bench harness before any physics; the chosen scale
        // is stamped into the result header, never into a trajectory.
        let mut scale = if std::env::var("SPH_EXA_FULL").as_deref() == Ok("1") {
            Self::paper()
        } else {
            Self::ci()
        };
        // sph-lint: allow(env-determinism) — same scale knob as above.
        if let Ok(n) = std::env::var("SPH_EXA_PARTICLES") {
            if let Ok(n) = n.parse() {
                scale.particles = n;
            }
        }
        // sph-lint: allow(env-determinism) — same scale knob as above.
        if let Ok(s) = std::env::var("SPH_EXA_STEPS") {
            if let Ok(s) = s.parse() {
                scale.steps = s;
            }
        }
        scale
    }
}

/// Build the single-rank rotating-square-patch simulation for a code
/// setup at the requested particle count (nx = nz = ∛n, as the paper's
/// 100³). Gravity is off — the square patch is a pure hydrodynamics test.
pub fn build_square_sim(setup: &CodeSetup, particles: usize) -> DistributedSimulation {
    let nx = (particles as f64).cbrt().round().max(8.0) as usize;
    let cfg = SquarePatchConfig { nx, nz: nx, gamma: setup.sph.gamma, ..Default::default() };
    let sys = square_patch(&cfg);
    let sph = SphConfig { gamma: cfg.gamma, ..setup.sph };
    // sph-lint: allow(panic-path) — bench harness: the scenario builder
    // emits a valid system by construction, and the regenerator binaries
    // want a loud crash, not a threaded error, if that ever breaks.
    DistributedBuilder::new(sys).config(sph).build().expect("valid square-patch simulation")
}

/// Build the single-rank Evrard-collapse simulation for a code setup.
/// Panics if the setup has no self-gravity (SPH-flow — Table 5 excludes
/// it from this test).
pub fn build_evrard_sim(setup: &CodeSetup, particles: usize, seed: u64) -> DistributedSimulation {
    let gravity = setup.gravity.unwrap_or_else(|| {
        // sph-lint: allow(panic-path) — documented contract (see doc
        // comment): asking SPH-flow for self-gravity is a programming
        // error in the wiring, mirroring Table 5's exclusion of the code.
        panic!("{} cannot run the Evrard collapse (no self-gravity)", setup.name)
    });
    let cfg = EvrardConfig { n_target: particles, seed, ..Default::default() };
    let sys = evrard_collapse(&cfg);
    DistributedBuilder::new(sys)
        .config(setup.sph)
        .gravity(gravity)
        .build()
        // sph-lint: allow(panic-path) — bench harness: scenario builders
        // emit valid systems by construction; a crash here is a bug, not
        // a state the regenerator binaries should have to handle.
        .expect("valid Evrard simulation")
}

/// Build the simulation for (code, scenario) and the matching step-model
/// configuration for `machine`.
pub fn wire_experiment(
    setup: &CodeSetup,
    scenario: Scenario,
    machine: MachineModel,
    scale: ExperimentScale,
) -> (DistributedSimulation, StepModelConfig) {
    let sim = match scenario {
        Scenario::SquarePatch => build_square_sim(setup, scale.particles),
        Scenario::Evrard => build_evrard_sim(setup, scale.particles, 42),
    };
    let model = StepModelConfig {
        partitioner: setup.partitioner,
        balancing: setup.balancing,
        machine,
        cost: setup.cost_for(scenario),
    };
    (sim, model)
}

/// Run one strong-scaling panel (one line of Figs. 1–3).
/// Fails if the underlying physics evolution fails.
pub fn run_scaling_panel(
    setup: &CodeSetup,
    scenario: Scenario,
    machine: MachineModel,
    scale: ExperimentScale,
) -> Result<Vec<ScalingRow>, DistributedError> {
    let (mut sim, model) = wire_experiment(setup, scenario, machine, scale);
    let mut cfg = ScalingConfig::paper_sweep(scale.max_cores);
    cfg.steps = scale.steps;
    let (rows, _) = sph_cluster::scaling_experiment(&mut sim, &model, &cfg)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_cluster::piz_daint;
    use sph_parents::{sphflow, sphynx};

    #[test]
    fn scale_from_env_defaults_to_ci() {
        // (Environment may carry overrides in dev shells; just check sanity.)
        let s = ExperimentScale::from_env();
        assert!(s.particles >= 1000);
        assert!(s.steps >= 1);
    }

    #[test]
    fn square_sim_builds_for_every_code() {
        for setup in [sphynx(), sph_parents::changa(), sphflow()] {
            let sim = build_square_sim(&setup, 1728);
            assert_eq!(sim.sys.len(), 12 * 12 * 12);
            assert!(sim.gravity.is_none(), "{}: square patch must be hydro-only", setup.name);
        }
    }

    #[test]
    fn evrard_sim_builds_for_gravity_codes() {
        let sim = build_evrard_sim(&sphynx(), 2000, 1);
        assert!(sim.gravity.is_some());
        assert!(sim.sys.len() > 1000);
    }

    #[test]
    #[should_panic]
    fn evrard_rejects_sphflow() {
        let _ = build_evrard_sim(&sphflow(), 2000, 1);
    }

    #[test]
    fn scaling_panel_smoke() {
        let scale = ExperimentScale { particles: 1500, steps: 1, max_cores: 48 };
        let rows =
            run_scaling_panel(&sphflow(), Scenario::SquarePatch, piz_daint(), scale).unwrap();
        assert_eq!(rows.len(), 3); // 12, 24, 48
        assert!(rows[0].mean_step_time > 0.0);
    }
}
