//! Golden fingerprints of the step driver.
//!
//! Each row pins one short run: the FNV state fingerprint after the last
//! step, the last step's dt (as bits), and the summed SPH pair
//! interactions and neighbour-search nodes visited. The table was
//! captured from the single-rank `Simulation` driver before it was
//! folded into `DistributedSimulation`, so a match proves the unified
//! driver reproduces it bit for bit — including ChaNGa's Individual
//! (block) time-stepping, which runs on a single rank.
//!
//! Every row is checked at nranks = 1 under SPH_THREADS {1, 2}. Global
//! and Adaptive rows are also checked at nranks {2, 4}: the state, dt and
//! pair interactions must match exactly there too. Nodes visited are
//! compared at nranks = 1 only, because each rank scans its own local
//! cell grid (the open-boundary square patch visits a different count).

use sph_bench::{build_evrard_sim, build_square_sim};
use sph_core::config::{SphConfig, TimeStepping};
use sph_core::diagnostics::state_fingerprint;
use sph_exa::{DistributedBuilder, DistributedSimulation};
use sph_parents::{changa, miniapp, sphflow};
use sph_scenarios::{
    evrard_collapse, square_patch, EvrardConfig, Resolution, ScenarioRegistry, SquarePatchConfig,
};
use sph_tree::{GravityConfig, MultipoleOrder};

/// `(name, steps, state fingerprint, last dt bits, sph_interactions,
/// nodes_visited)`.
type Row = (&'static str, usize, u64, u64, u64, u64);

const GOLDEN: &[Row] = &[
    ("square-patch", 2, 0xbd1a5d324d510bf3, 0x3f6130fd510b62fc, 57296, 71632),
    ("evrard", 2, 0x213ac7caefb24665, 0x3faa3d1d7576b333, 472776, 199292),
    ("sedov", 2, 0xed647bca32155b4c, 0x3f4a4c41663e508a, 585792, 530928),
    ("sod", 2, 0x6f7357e5a9724110, 0x3f7d5e35ece9cadd, 39936, 71072),
    ("gresho", 2, 0x2208085278eb9308, 0x3f748589a01923cc, 95680, 163200),
    ("kelvin-helmholtz", 2, 0x01251b205d5fd1df, 0x3f80c19c9222a7aa, 94656, 163200),
    ("square-patch-12", 2, 0xf3d3a6ff695532b8, 0x3f92b92e8c749a00, 1091328, 748640),
    ("evrard-gravity-1500", 2, 0xbcff3020b503d925, 0x3fabe89b34ffdc95, 961738, 406029),
    ("sphflow-square-adaptive", 3, 0x6b7a830b18611f65, 0x3f7145130dd318c7, 839520, 566298),
    ("changa-evrard-individual", 2, 0xbd0e015f9e729ac9, 0x3fc0d88b28c27e72, 655706, 212421),
    ("miniapp-square-individual", 2, 0x24b68eaf966376a0, 0x3f7dfa911e79a95c, 634080, 366058),
];

/// The single-rank simulation of a row, before its first step.
fn build(name: &str) -> DistributedSimulation {
    let built = |sys, config, gravity: Option<GravityConfig>| {
        let mut b = DistributedBuilder::new(sys).config(config);
        if let Some(g) = gravity {
            b = b.gravity(g);
        }
        b.build().expect("golden row builds")
    };
    match name {
        "square-patch-12" => {
            let cfg = SquarePatchConfig { nx: 12, nz: 12, ..SquarePatchConfig::default() };
            built(square_patch(&cfg), SphConfig::default(), None)
        }
        "evrard-gravity-1500" => {
            let cfg = EvrardConfig { n_target: 1500, seed: 7, ..EvrardConfig::default() };
            let gravity = GravityConfig {
                g: 1.0,
                theta: 0.6,
                softening: 1e-2,
                order: MultipoleOrder::Quadrupole,
            };
            built(evrard_collapse(&cfg), SphConfig::default(), Some(gravity))
        }
        "sphflow-square-adaptive" => build_square_sim(&sphflow(), 1000),
        "changa-evrard-individual" => build_evrard_sim(&changa(), 1000, 42),
        "miniapp-square-individual" => build_square_sim(&miniapp(), 1000),
        scenario => {
            let registry = ScenarioRegistry::builtin();
            let sc = registry.get(scenario).expect("builtin scenario");
            let setup = sc.init(Resolution { scale: 0.375 });
            built(setup.sys, setup.config, setup.gravity)
        }
    }
}

/// Run a row at `nranks` (and, if given, `threads` — the pool is process
/// global, so only one test sets it) and return its measured tuple.
fn measure(row: &Row, nranks: usize, threads: Option<usize>) -> Row {
    let sim = build(row.0);
    let mut b = DistributedBuilder::new(sim.sys).config(sim.config).nranks(nranks);
    if let Some(t) = threads {
        b = b.num_threads(t);
    }
    if let Some(g) = sim.gravity {
        b = b.gravity(g);
    }
    let mut sim = b.build().expect("golden row builds");
    let (mut dt, mut interactions, mut nodes) = (0.0f64, 0u64, 0u64);
    for _ in 0..row.1 {
        let r = sim.step().unwrap_or_else(|e| panic!("{}: {e}", row.0));
        dt = r.dt;
        interactions += r.stats.sph_interactions;
        nodes += r.stats.neighbor.nodes_visited;
    }
    (row.0, row.1, state_fingerprint(&sim.sys), dt.to_bits(), interactions, nodes)
}

#[test]
fn single_rank_matches_the_golden_table_at_one_and_two_threads() {
    for threads in [1, 2] {
        for row in GOLDEN {
            assert_eq!(measure(row, 1, Some(threads)), *row, "SPH_THREADS={threads}");
        }
    }
}

#[test]
fn global_and_adaptive_rows_match_at_two_and_four_ranks() {
    for row in GOLDEN {
        let sim = build(row.0);
        if matches!(sim.config.time_stepping, TimeStepping::Individual { .. }) {
            continue;
        }
        for nranks in [2, 4] {
            let got = measure(row, nranks, None);
            let (want, got) = ((row.2, row.3, row.4), (got.2, got.3, got.4));
            assert_eq!(got, want, "{} at nranks={nranks}", row.0);
        }
    }
}
