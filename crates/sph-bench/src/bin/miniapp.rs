//! The SPH-EXA mini-app as a command-line program.
//!
//! The paper's §2 usability bar, quoting Messer et al.: "The building
//! should be kept as simple as a Makefile and the preparation of the run
//! to a handful of command line arguments." This binary is that handful:
//!
//! ```text
//! cargo run --release -p sph-bench --bin miniapp -- \
//!     --test square --code miniapp --particles 20000 --steps 20
//!
//! options:
//!   --test square|evrard       test case (default square)
//!   --code sphynx|changa|sphflow|miniapp   configuration (default miniapp)
//!   --particles N              particle target (default 20000)
//!   --steps N                  time-steps (default 20, Table 5)
//!   --checkpoint-every N       write a checkpoint every N steps (0 = off)
//!   --checkpoint-dir PATH      where to put them (default ./checkpoints)
//!   --resume PATH              resume from a checkpoint file written earlier
//! ```
// CLI surface: wall-clock progress timing only; never feeds a trajectory.
#![allow(clippy::disallowed_methods)]

use sph_bench::{build_evrard_sim, build_square_sim};
use sph_exa::DistributedSimulation;
use sph_ft::checkpoint::{CheckpointStore, DiskStore};
use sph_parents::{changa, miniapp, sphflow, sphynx, CodeSetup};

struct Args {
    test: String,
    code: String,
    particles: usize,
    steps: usize,
    checkpoint_every: usize,
    checkpoint_dir: String,
    resume: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get =
        |flag: &str| argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).cloned();
    Args {
        test: get("--test").unwrap_or_else(|| "square".into()),
        code: get("--code").unwrap_or_else(|| "miniapp".into()),
        particles: get("--particles").and_then(|v| v.parse().ok()).unwrap_or(20_000),
        steps: get("--steps").and_then(|v| v.parse().ok()).unwrap_or(20),
        checkpoint_every: get("--checkpoint-every").and_then(|v| v.parse().ok()).unwrap_or(0),
        checkpoint_dir: get("--checkpoint-dir").unwrap_or_else(|| "checkpoints".into()),
        resume: get("--resume"),
    }
}

fn setup_for(code: &str) -> CodeSetup {
    match code {
        "sphynx" => sphynx(),
        "changa" => changa(),
        "sphflow" | "sph-flow" => sphflow(),
        "miniapp" | "sph-exa" => miniapp(),
        other => {
            eprintln!("unknown --code {other}; expected sphynx|changa|sphflow|miniapp");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    let setup = setup_for(&args.code);

    let mut sim: DistributedSimulation = if let Some(path) = &args.resume {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read checkpoint {path}: {e}");
            std::process::exit(2);
        });
        let sys = sph_ft::codec::decode(&bytes).unwrap_or_else(|e| {
            eprintln!("cannot decode checkpoint {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "resumed {} particles at t = {:.5} (step {})",
            sys.len(),
            sys.time,
            sys.step_count
        );
        // Gravity follows the test case (the square patch is hydro-only;
        // pass --test evrard when resuming an Evrard checkpoint).
        let gravity = setup.gravity.filter(|_| args.test == "evrard");
        DistributedSimulation::resume(sys, setup.sph, gravity, Default::default())
            .expect("valid resume")
    } else {
        match args.test.as_str() {
            "square" => build_square_sim(&setup, args.particles),
            "evrard" => {
                if !setup.supports_evrard() {
                    eprintln!(
                        "{} has no self-gravity; the Evrard test needs it (Table 5)",
                        setup.name
                    );
                    std::process::exit(2);
                }
                build_evrard_sim(&setup, args.particles, 42)
            }
            other => {
                eprintln!("unknown --test {other}; expected square|evrard");
                std::process::exit(2);
            }
        }
    };

    println!(
        "SPH-EXA mini-app: {} / {} test, {} particles, {} steps",
        setup.name,
        args.test,
        sim.sys.len(),
        args.steps
    );

    let mut store = (args.checkpoint_every > 0)
        .then(|| DiskStore::new(&args.checkpoint_dir).expect("checkpoint dir"));
    let wall_start = std::time::Instant::now();
    let c0 = sim.conservation();
    println!("step      dt        time     active   interactions   wall(s)");
    for k in 1..=args.steps {
        let t0 = std::time::Instant::now();
        let r = sim.step().expect("stable step");
        println!(
            "{:4}  {:9.3e}  {:8.5}  {:7.2}  {:>13}  {:8.3}",
            r.step,
            r.dt,
            r.time,
            r.active_fraction,
            r.stats.sph_interactions + r.stats.gravity.total_interactions(),
            t0.elapsed().as_secs_f64()
        );
        if let Some(store) = &mut store {
            if k % args.checkpoint_every == 0 {
                let label = format!("step-{:06}", sim.sys.step_count);
                let bytes = store.save(&label, &sim.sys).expect("checkpoint write");
                println!("      checkpoint '{label}' written ({bytes} bytes)");
            }
        }
    }
    let c1 = sim.conservation();
    println!("\ncompleted in {:.2}s wall-clock", wall_start.elapsed().as_secs_f64());
    println!("energy drift over the run: {:.3e}", c1.energy_drift(&c0));
    println!("{}", sim.aggregate_timers().report());
}
