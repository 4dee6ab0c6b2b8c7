//! Fault tolerance end-to-end: checkpoint/restart with bit-exact resume,
//! silent-data-corruption injection and detection, and the Daly-interval
//! arithmetic — the Table 4 "Checkpoint-Restart" and "Error Detection"
//! features in action.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::exa::DistributedSimulation;
use sph_exa_repro::ft::checkpoint::{CheckpointStore, MemoryStore};
use sph_exa_repro::ft::daly::{daly_interval, expected_waste};
use sph_exa_repro::ft::sdc::{ChecksumDetector, SdcDetector, SdcInjector};
use sph_exa_repro::scenarios::{evrard_collapse, EvrardConfig};

fn main() {
    // --- 1. Checkpoint, diverge, restore, verify bit-exact resume -------
    println!("== checkpoint / restart ==");
    let cfg = EvrardConfig { n_target: 2_000, ..Default::default() };
    let config = SphConfig { target_neighbors: 50, ..Default::default() };
    let mut sim = DistributedSimulation::new(evrard_collapse(&cfg), config, 1).expect("valid");
    sim.run(3).expect("stable steps");

    let mut store = MemoryStore::new();
    let bytes = store.save("step-3", &sim.sys).expect("save");
    println!("checkpoint at step 3: {bytes} bytes for {} particles", sim.sys.len());

    // Continue the "original" run.
    sim.run(2).expect("stable steps");
    let original_positions = sim.sys.x.clone();

    // Restore and replay the same two steps. `resume` (not `new`) keeps
    // the checkpointed accelerations valid for the first half-kick, making
    // the replay bit-exact.
    let restored = store.restore("step-3").expect("restore");
    let mut replay =
        DistributedSimulation::resume(restored, config, None, Default::default()).expect("valid");
    replay.run(2).expect("stable steps");
    let max_dev = replay
        .sys
        .x
        .iter()
        .zip(&original_positions)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0, f64::max);
    println!("replayed 2 steps after restore: max position deviation = {max_dev:.3e}");
    assert!(max_dev < 1e-12, "restart must be deterministic");

    // --- 2. Silent data corruption: inject and detect -------------------
    println!("\n== silent data corruption ==");
    let mut detector = ChecksumDetector::new();
    detector.arm(&sim.sys);
    println!("armed checksum detector; verdict now: {:?}", detector.check(&sim.sys));
    let mut injector = SdcInjector::new(2024);
    let what = injector.inject(&mut sim.sys);
    println!("injected a single bit flip at {what}");
    let verdict = detector.check(&sim.sys);
    println!("detector verdict: {verdict:?}");
    assert!(verdict.is_corrupted());

    // Recover from the checkpoint — the full loop.
    sim.sys = store.restore("step-3").expect("re-restore");
    detector.arm(&sim.sys);
    println!("restored from checkpoint; verdict: {:?}", detector.check(&sim.sys));

    // --- 3. Optimal checkpoint interval ---------------------------------
    println!("\n== Daly-optimal checkpoint interval ==");
    let checkpoint_cost = 30.0; // seconds to write
    let recovery_cost = 60.0;
    for mtbf in [3_600.0, 86_400.0] {
        let w = daly_interval(checkpoint_cost, mtbf);
        let waste = expected_waste(w, checkpoint_cost, recovery_cost, mtbf);
        println!(
            "MTBF {:>6.0}s: checkpoint every {:7.0}s of work → expected waste {:.1}%",
            mtbf,
            w,
            waste * 100.0
        );
    }
}
