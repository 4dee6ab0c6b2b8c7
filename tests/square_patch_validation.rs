//! Integration: the rotating square patch (§5.1) runs under every parent
//! configuration and behaves like the Colagrossi test should.

use sph_exa_repro::core::diagnostics::Conservation;
use sph_exa_repro::exa::DistributedBuilder;
use sph_exa_repro::math::Vec3;
use sph_exa_repro::parents::{changa, sphflow, sphynx};
use sph_exa_repro::scenarios::{square_patch, SquarePatchConfig};

fn patch(nx: usize, gamma: f64) -> sph_exa_repro::core::ParticleSystem {
    square_patch(&SquarePatchConfig { nx, nz: nx, gamma, ..Default::default() })
}

#[test]
fn all_three_parent_configs_step_the_square_patch() {
    for setup in [sphynx(), changa(), sphflow()] {
        let sys = patch(12, setup.sph.gamma);
        let mut sim = DistributedBuilder::new(sys)
            .config(setup.sph)
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", setup.name));
        let report = sim.step().expect("stable step");
        assert!(report.dt > 0.0, "{}", setup.name);
        assert!(report.stats.sph_interactions > 0, "{}", setup.name);
        assert!(sim.sys.sanity_check().is_ok(), "{}", setup.name);
    }
}

#[test]
fn angular_momentum_is_conserved_over_many_steps() {
    let setup = sphflow();
    let sys = patch(14, setup.sph.gamma);
    let axis = Vec3::new(0.5, 0.5, 0.0);
    let lz = |s: &sph_exa_repro::core::ParticleSystem| -> f64 {
        (0..s.len())
            .map(|i| {
                let d = s.x[i] - axis;
                s.m[i] * (d.x * s.v[i].y - d.y * s.v[i].x)
            })
            .sum()
    };
    let mut sim = DistributedBuilder::new(sys).config(setup.sph).build().unwrap();
    let lz0 = lz(&sim.sys);
    assert!(lz0.abs() > 1e-3, "the patch must actually rotate");
    sim.run(10).expect("stable steps");
    let lz1 = lz(&sim.sys);
    assert!(((lz1 - lz0) / lz0).abs() < 1e-3, "angular momentum drifted: {lz0} → {lz1}");
}

#[test]
fn rotation_is_recognised_as_pure_shear() {
    // After the first derivative evaluation the velocity-gradient fields
    // must show |∇×v| ≈ 2ω and ∇·v ≈ 0 in the bulk — this is what the
    // Balsara switch keys on to keep the patch inviscid.
    let setup = sphynx();
    let sys = patch(16, setup.sph.gamma);
    let omega = 5.0;
    let mut sim = DistributedBuilder::new(sys).config(setup.sph).build().unwrap();
    sim.evaluate_derivatives().expect("in-process evaluation");
    let mut checked = 0;
    for i in 0..sim.sys.len() {
        let p = sim.sys.x[i];
        if (p.x - 0.5).abs() < 0.2 && (p.y - 0.5).abs() < 0.2 {
            assert!(
                (sim.sys.curl_v[i] - 2.0 * omega).abs() < 0.15 * 2.0 * omega,
                "curl {} at particle {i}",
                sim.sys.curl_v[i]
            );
            assert!(
                sim.sys.div_v[i].abs() < 0.1 * 2.0 * omega,
                "div {} at particle {i}",
                sim.sys.div_v[i]
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} bulk particles checked");
}

#[test]
fn twenty_step_run_stays_physical() {
    // Table 5: "Simulation Length: 20 time-steps" — the acceptance run.
    let setup = sphflow();
    let sys = patch(10, setup.sph.gamma);
    let mut sim = DistributedBuilder::new(sys).config(setup.sph).build().unwrap();
    let c0 = Conservation::measure(&sim.sys, None);
    let reports = sim.run(20).expect("stable steps");
    assert_eq!(reports.len(), 20);
    assert!(sim.sys.sanity_check().is_ok());
    let c1 = Conservation::measure(&sim.sys, None);
    assert!((c1.total_mass - c0.total_mass).abs() < 1e-12, "mass is exactly conserved");
    assert!(c1.energy_drift(&c0) < 0.05, "energy drift {}", c1.energy_drift(&c0));
    // Momentum stays near zero (the patch spins in place).
    let scale = sph_exa_repro::core::diagnostics::momentum_scale(&sim.sys);
    assert!(c1.momentum.norm() < 1e-6 * scale);
}
