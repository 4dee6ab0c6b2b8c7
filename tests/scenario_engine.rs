//! Integration: the scenario engine — registry contract, the runner at
//! any rank count, nranks {2, 4} vs 1 bit identity for *every* registered
//! workload, and the validation-report machinery.
//!
//! Heavy accuracy validation (shock radius vs Sedov, L1 vs the exact
//! Riemann solution, …) runs at full resolution in the release-mode
//! `scenario_suite` binary (CI job `scenario-suite`); these tests pin
//! the *engine contract* at CI-debug-sized resolutions.

use sph_exa_repro::core::diagnostics::state_fingerprint;
use sph_exa_repro::scenarios::{run_scenario, Resolution, RunOptions, ScenarioRegistry};

/// Small enough for debug-mode runs, large enough that every scenario
/// builds a meaningful 3-D particle set.
const TINY: Resolution = Resolution { scale: 0.375 };

fn quick(nranks: usize) -> RunOptions {
    RunOptions {
        resolution: TINY,
        nranks,
        end_time: Some(f64::INFINITY),
        max_steps: 2,
        sample_every: 1,
    }
}

#[test]
fn registry_has_all_six_builtin_scenarios() {
    let reg = ScenarioRegistry::builtin();
    let names = reg.names();
    assert_eq!(
        names,
        vec!["square-patch", "evrard", "sedov", "sod", "gresho", "kelvin-helmholtz"],
        "builtin registry changed — update the catalogue and this test together"
    );
    for sc in reg.iter() {
        assert!(reg.get(sc.name()).is_some());
        assert!(!sc.reference().is_empty());
        assert!(!sc.analytic_check().is_empty());
        assert!(sc.end_time() > 0.0);
        assert!(sc.l1_tolerance() > 0.0);
    }
    assert!(reg.get("no-such-scenario").is_none());
}

#[test]
fn registry_rejects_duplicate_names() {
    let mut reg = ScenarioRegistry::builtin();
    let err = reg
        .register(Box::new(sph_exa_repro::scenarios::SedovScenario))
        .expect_err("duplicate registration must fail");
    assert!(err.contains("sedov"), "{err}");
}

#[test]
fn every_scenario_inits_deterministically_and_validates_its_config() {
    let reg = ScenarioRegistry::builtin();
    for sc in reg.iter() {
        let a = sc.init(TINY);
        let b = sc.init(TINY);
        assert!(a.config.validate().is_ok(), "{}: invalid config", sc.name());
        assert!(a.sys.sanity_check().is_ok(), "{}: insane IC", sc.name());
        assert_eq!(
            state_fingerprint(&a.sys),
            state_fingerprint(&b.sys),
            "{}: init is not deterministic",
            sc.name()
        );
        // Resolution scaling actually changes the particle count.
        let big = sc.init(Resolution { scale: 0.6 });
        assert!(big.sys.len() > a.sys.len(), "{}: resolution knob inert", sc.name());
    }
}

#[test]
fn every_scenario_runs_bit_identically_at_any_rank_count() {
    // The acceptance criterion of the scenario engine: for every
    // registered workload, nranks 2 and 4 produce the bit-identical
    // particle state of the single-rank run.
    let reg = ScenarioRegistry::builtin();
    for sc in reg.iter() {
        let single = run_scenario(sc, &quick(1))
            .unwrap_or_else(|e| panic!("{}: single-rank run failed: {e}", sc.name()));
        assert_eq!(single.steps, 2, "{}", sc.name());
        let want = state_fingerprint(&single.sys);
        for nranks in [2usize, 4] {
            let dist = run_scenario(sc, &quick(nranks))
                .unwrap_or_else(|e| panic!("{}: {nranks}-rank run failed: {e}", sc.name()));
            assert_eq!(
                state_fingerprint(&dist.sys),
                want,
                "{}: {nranks}-rank run diverged from the single-rank run",
                sc.name()
            );
            // Conservation diagnostics agree bit-for-bit too.
            assert_eq!(
                dist.final_conservation.kinetic_energy.to_bits(),
                single.final_conservation.kinetic_energy.to_bits(),
                "{}",
                sc.name()
            );
        }
    }
}

#[test]
fn validation_reports_are_well_formed() {
    let reg = ScenarioRegistry::builtin();
    for sc in reg.iter() {
        let run = run_scenario(sc, &quick(1)).expect("run");
        let report = sc.validate(&run);
        assert_eq!(report.scenario, sc.name());
        assert_eq!(report.n_particles, run.sys.len());
        assert!(report.energy_drift.is_finite(), "{}", sc.name());
        assert!(!report.checks.is_empty(), "{}: no checks registered", sc.name());
        // `passed` is exactly the conjunction of the named checks…
        let want = report.checks.iter().all(|c| c.passed);
        assert_eq!(report.passed, want, "{}", sc.name());
        // …and every norm-reporting scenario gates its norm through an
        // explicit check at the registered tolerance, so the L1 gate
        // has exactly one source of truth.
        if report.norms.is_some() {
            assert!(
                report.checks.iter().any(|c| c.threshold == report.l1_tolerance),
                "{}: reported norms but no check at the registered tolerance",
                sc.name()
            );
        }
        // The JSON serialisation is structurally sound and carries the
        // scenario name and every check.
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains(&format!("\"scenario\":{:?}", sc.name())));
        for c in &report.checks {
            assert!(json.contains(&format!("{:?}", c.name)), "missing check {}", c.name);
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            report.checks.len(),
            "one JSON object per check"
        );
    }
}

#[test]
fn runner_samples_the_tracked_diagnostic() {
    let reg = ScenarioRegistry::builtin();
    // Gresho tracks peak-band v_φ: with sample_every = 1 a 2-step run
    // yields the t = 0 sample plus one per step.
    let sc = reg.get("gresho").unwrap();
    let run = run_scenario(sc, &quick(1)).unwrap();
    assert!(run.samples.len() >= 3, "expected ≥ 3 samples, got {}", run.samples.len());
    assert!(run.samples.windows(2).all(|w| w[1].time > w[0].time));
}

#[test]
fn readme_scenario_catalogue_is_in_sync_with_the_registry() {
    // The README "Scenario catalogue" table is generated from
    // `ScenarioRegistry::catalogue_markdown()`. The comparison is
    // *bidirectional*: the whole table block after the generation
    // marker must equal the generated markdown exactly, so both a
    // missing row (scenario added) and a stale row (scenario removed
    // or renamed) fail.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the workspace root");
    let marker = "<!-- generated by: scenario_suite --list -->";
    let after =
        readme.split_once(marker).unwrap_or_else(|| panic!("README lost the {marker:?} marker")).1;
    let table_in_readme: Vec<&str> = after
        .lines()
        .skip_while(|l| l.trim().is_empty())
        .take_while(|l| l.starts_with('|'))
        .collect();
    let generated: Vec<String> =
        ScenarioRegistry::builtin().catalogue_markdown().lines().map(str::to_string).collect();
    assert_eq!(
        table_in_readme, generated,
        "README scenario catalogue is stale — regenerate with `scenario_suite --list`"
    );
}
