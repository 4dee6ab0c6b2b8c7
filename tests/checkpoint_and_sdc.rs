//! Integration: the fault-tolerance pipeline end to end — checkpoint,
//! bit-exact resume, corruption detection across module boundaries.

use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::exa::{DistributedBuilder, DistributedSimulation};
use sph_exa_repro::ft::checkpoint::{CheckpointStore, DiskStore, MemoryStore};
use sph_exa_repro::ft::sdc::{ChecksumDetector, SdcDetector, SdcInjector};
use sph_exa_repro::scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};

fn small_config() -> SphConfig {
    SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
}

#[test]
fn restart_is_bit_exact_for_the_square_patch() {
    let cfg = SquarePatchConfig { nx: 10, nz: 10, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let mut original = DistributedSimulation::new(square_patch(&cfg), sph, 1).unwrap();
    original.run(2).expect("stable steps");

    let mut store = MemoryStore::new();
    store.save("mid", &original.sys).unwrap();
    original.run(3).expect("stable steps");

    let mut replay =
        DistributedSimulation::resume(store.restore("mid").unwrap(), sph, None, Default::default())
            .unwrap();
    replay.run(3).expect("stable steps");

    for i in 0..original.sys.len() {
        assert_eq!(original.sys.x[i], replay.sys.x[i], "position {i} diverged");
        assert_eq!(original.sys.v[i], replay.sys.v[i], "velocity {i} diverged");
        assert_eq!(original.sys.u[i], replay.sys.u[i], "energy {i} diverged");
    }
    assert_eq!(original.sys.time, replay.sys.time);
    assert_eq!(original.sys.step_count, replay.sys.step_count);
}

#[test]
fn restart_is_bit_exact_with_gravity() {
    let setup = sph_exa_repro::parents::sphynx();
    let cfg = EvrardConfig { n_target: 1500, ..Default::default() };
    let mut original = DistributedBuilder::new(evrard_collapse(&cfg))
        .config(setup.sph)
        .gravity(setup.gravity.unwrap())
        .build()
        .unwrap();
    original.run(2).expect("stable steps");
    let mut store = MemoryStore::new();
    store.save("mid", &original.sys).unwrap();
    original.run(2).expect("stable steps");

    let mut replay = DistributedSimulation::resume(
        store.restore("mid").unwrap(),
        setup.sph,
        setup.gravity,
        Default::default(),
    )
    .unwrap();
    replay.run(2).expect("stable steps");
    let max_dev =
        original.sys.x.iter().zip(&replay.sys.x).map(|(a, b)| (*a - *b).norm()).fold(0.0, f64::max);
    assert_eq!(max_dev, 0.0, "gravity restart deviated by {max_dev}");
}

#[test]
fn disk_checkpoints_survive_process_boundaries() {
    let dir = std::env::temp_dir().join(format!("sphexa-it-{}", std::process::id()));
    let cfg = SquarePatchConfig { nx: 8, nz: 8, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let mut sim = DistributedSimulation::new(square_patch(&cfg), sph, 1).unwrap();
    sim.run(1).expect("stable steps");
    {
        let mut store = DiskStore::new(&dir).unwrap();
        store.save("persist", &sim.sys).unwrap();
    }
    // A brand-new store instance (≈ a restarted process) finds it.
    let store = DiskStore::new(&dir).unwrap();
    assert_eq!(store.labels(), vec!["persist".to_string()]);
    let restored = store.restore("persist").unwrap();
    assert_eq!(restored.len(), sim.sys.len());
    assert_eq!(restored.time, sim.sys.time);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_corruption_is_always_caught_by_the_checksum() {
    let cfg = SquarePatchConfig { nx: 8, nz: 8, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let mut sim = DistributedSimulation::new(square_patch(&cfg), sph, 1).unwrap();
    sim.run(1).expect("stable steps");
    for seed in 0..20 {
        let mut det = ChecksumDetector::new();
        det.arm(&sim.sys);
        let mut backup = sim.sys.clone();
        let what = SdcInjector::new(seed).inject(&mut sim.sys);
        assert!(det.check(&sim.sys).is_corrupted(), "seed {seed}: missed injection at {what}");
        std::mem::swap(&mut sim.sys, &mut backup); // restore clean state
    }
}

#[test]
fn corrupted_checkpoint_cannot_be_restored_silently() {
    let cfg = SquarePatchConfig { nx: 8, nz: 8, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let sim = DistributedSimulation::new(square_patch(&cfg), sph, 1).unwrap();
    let bytes = sph_exa_repro::ft::codec::encode(&sim.sys);
    // Flip every 997th byte in turn; decode must refuse each time.
    for k in (0..bytes.len()).step_by(997) {
        let mut corrupted = bytes.clone();
        corrupted[k] ^= 0x40;
        assert!(
            sph_exa_repro::ft::codec::decode(&corrupted).is_err(),
            "byte {k}: corruption slipped through"
        );
    }
}
