//! Tour of the scenario engine: list the registry, then run one
//! workload end-to-end on one and on two ranks and validate it.
//!
//! ```text
//! cargo run --release --example scenario_tour                # default: sod
//! cargo run --release --example scenario_tour -- gresho      # any registry name
//! cargo run --release --example scenario_tour -- sedov 0.5   # + resolution scale
//! ```

use sph_exa_repro::core::diagnostics::state_fingerprint;
use sph_exa_repro::scenarios::{run_scenario, Resolution, RunOptions, ScenarioRegistry};

fn main() {
    let registry = ScenarioRegistry::builtin();
    println!("registered scenarios:\n{}", registry.catalogue_markdown());

    let name = std::env::args().nth(1).unwrap_or_else(|| "sod".to_string());
    // Tolerances are registered at scale 1.0; smaller scales run faster
    // but may (honestly) miss them.
    let scale: f64 = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(1.0);
    let sc = registry.get(&name).unwrap_or_else(|| {
        eprintln!("unknown scenario {name:?}; pick one of {:?}", registry.names());
        std::process::exit(2);
    });

    let opts = RunOptions { resolution: Resolution { scale }, ..Default::default() };
    println!("running `{}` (scale {scale}) on a single rank…", sc.name());
    let run = run_scenario(sc, &opts).expect("scenario runs");
    let report = sc.validate(&run);
    println!("{}", report.to_json());
    println!(
        "→ {} after {} steps to t = {:.4}: {}",
        report.scenario,
        report.steps,
        report.end_time,
        if report.passed { "PASS" } else { "FAIL" }
    );

    // The same workload on two ranks is bit-identical.
    println!("re-running on 2 ranks…");
    let dist = run_scenario(sc, &RunOptions { nranks: 2, ..opts }).expect("2-rank run");
    assert_eq!(
        state_fingerprint(&run.sys),
        state_fingerprint(&dist.sys),
        "rank counts must agree bit-for-bit"
    );
    println!("single-rank and 2-rank states are bit-identical ✓");
}
