//! Smoke test of the `sph_exa_repro` facade: the re-exported workspace
//! crates must be sufficient to build a simulation through
//! `DistributedBuilder`, run a step, and read finite conservation
//! diagnostics — the minimal "the umbrella crate works" guarantee every
//! example relies on.

use sph_exa_repro::core::diagnostics::Conservation;
use sph_exa_repro::exa::DistributedBuilder;
use sph_exa_repro::math::Vec3;
use sph_exa_repro::scenarios::{square_patch, SquarePatchConfig};

#[test]
fn facade_builds_a_simulation_and_steps_it() {
    let ic = square_patch(&SquarePatchConfig { nx: 8, nz: 8, ..SquarePatchConfig::default() });
    let mut sim = DistributedBuilder::new(ic).build().expect("builder must produce a simulation");

    let before = Conservation::measure(&sim.sys, None);
    assert!(before.total_energy().is_finite());
    assert!(before.total_mass > 0.0);

    let result = sim.step().expect("stable step");
    assert!(result.dt > 0.0 && result.dt.is_finite());
    assert!(result.stats.sph_interactions > 0);

    let after = Conservation::measure(&sim.sys, None);
    assert!(after.total_energy().is_finite(), "energy must stay finite after a step");
    assert!(
        (after.total_mass - before.total_mass).abs() < 1e-12 * before.total_mass,
        "mass is exactly conserved"
    );
    assert!(after.momentum.is_finite(), "momentum must stay finite");
}

#[test]
fn facade_reexports_cover_the_math_substrate() {
    // The doc-example contract from src/lib.rs.
    let v = Vec3::new(1.0, 2.0, 3.0);
    assert_eq!(v.norm_sq(), 14.0);
}
