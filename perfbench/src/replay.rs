//! A faithful replay of one Algorithm-1 macro-step built only from the
//! public layer functions, one span per call, in the order the drivers
//! run them. Its state fingerprint must equal the driver's after the
//! same steps; the benchmark checks that outside the timed region.

use crate::alloc;
use crate::trace::Tracer;
use sph_core::config::{GradientScheme, SphConfig, TimeStepping};
use sph_core::density::compute_density;
use sph_core::eos::IdealGas;
use sph_core::forces::compute_forces;
use sph_core::gradients::{compute_iad_matrices, compute_velocity_gradients};
use sph_core::integrator::{kick, kick_drift, PingPongBuffers};
use sph_core::particles::ParticleSystem;
use sph_core::timestep::{adaptive_dt, global_dt, per_particle_dt};
use sph_core::volume::compute_volume_elements;
use sph_kernels::{Kernel, SUPPORT_RADIUS};
use sph_scenarios::ScenarioSetup;
use sph_tree::gravity::GravitySample;
use sph_tree::{CellGrid, GravityConfig, GravitySolver, Octree, OctreeConfig, TraversalStats};

/// Work counted by the replay, summed over the derivative evaluations it
/// ran. Exact for a given input, so two runs of one seed agree.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub h_iterations: u64,
    pub neighbor_candidates: u64,
    /// Gather-list pairs: the density, IAD and velocity-gradient passes
    /// all walk these lists.
    pub density_pairs: u64,
    pub force_pairs: u64,
    pub gravity_p2p: u64,
    pub gravity_p2m: u64,
}

pub struct Replay {
    pub sys: ParticleSystem,
    config: SphConfig,
    gravity: Option<GravityConfig>,
    kernel: Box<dyn Kernel>,
    eos: IdealGas,
    buffers: PingPongBuffers,
    phi: Vec<f64>,
    all: Vec<u32>,
    dt_prev: f64,
    fresh: bool,
    pub work: Work,
}

impl Replay {
    pub fn new(setup: ScenarioSetup) -> Replay {
        let n = setup.sys.len();
        Replay {
            kernel: setup.config.kernel.build(),
            eos: IdealGas::new(setup.config.gamma),
            buffers: PingPongBuffers::new(n),
            phi: vec![0.0; n],
            all: (0..n as u32).collect(),
            dt_prev: 0.0,
            fresh: false,
            work: Work::default(),
            sys: setup.sys,
            config: setup.config,
            gravity: setup.gravity,
        }
    }

    /// Algorithm 1 steps 1–4 for every particle, each layer call its own
    /// span under `step`.
    fn evaluate(&mut self, tr: &Tracer, step: usize, req: u64) {
        let p = Some(step);
        let sys = &mut self.sys;
        let kernel = self.kernel.as_ref();
        let config = &self.config;
        let all = &self.all;
        let grid = tr.layer("sph-tree.grid_build", alloc::TREE, p, req, |_| {
            CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h())
        });
        let (lists, dstats) = tr.layer("sph-core.density", alloc::CORE, p, req, |_| {
            compute_density(sys, &grid, kernel, config, all)
        });
        tr.layer("sph-core.volume", alloc::CORE, p, req, |_| {
            compute_volume_elements(sys, &lists, kernel, config, all)
        });
        if config.gradients == GradientScheme::Iad {
            tr.layer("sph-core.iad", alloc::CORE, p, req, |_| {
                compute_iad_matrices(sys, &lists, kernel, all)
            });
        }
        tr.layer("sph-core.eos", alloc::CORE, p, req, |_| {
            self.eos.apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs)
        });
        tr.layer("sph-core.velocity_gradients", alloc::CORE, p, req, |_| {
            compute_velocity_gradients(sys, &lists, kernel, config.gradients, all)
        });
        let sym = tr.layer("sph-tree.symmetrize", alloc::TREE, p, req, |_| lists.symmetrized());
        let force_pairs = tr.layer("sph-core.forces", alloc::CORE, p, req, |_| {
            compute_forces(sys, &sym, kernel, config, all)
        });
        self.work.h_iterations += dstats.h_iterations;
        self.work.neighbor_candidates += dstats.neighbor.p2p_interactions;
        self.work.density_pairs += lists.total_neighbors() as u64;
        self.work.force_pairs += force_pairs;

        if let Some(gcfg) = self.gravity {
            let tree = tr.layer("sph-tree.octree_build", alloc::TREE, p, req, |_| {
                Octree::build(&sys.x, &sys.bounds(), OctreeConfig::default())
            });
            let solver = tr.layer("sph-tree.gravity_moments", alloc::TREE, p, req, |_| {
                GravitySolver::new(&tree, &sys.m, gcfg)
            });
            let phi = &mut self.phi;
            let walked = tr.layer("sph-tree.gravity_walk", alloc::TREE, p, req, |_| {
                // Fixed REDUCE_CHUNK chunks + ordered scatter, as the drivers do.
                use rayon::prelude::*;
                let chunks: Vec<(Vec<(usize, GravitySample)>, TraversalStats)> = all
                    .par_chunks(sph_math::REDUCE_CHUNK)
                    .map(|chunk| {
                        let mut stats = TraversalStats::default();
                        let rows = chunk
                            .iter()
                            .map(|&ai| {
                                let i = ai as usize;
                                (i, solver.field_at(sys.x[i], Some(ai), &mut stats))
                            })
                            .collect();
                        (rows, stats)
                    })
                    .collect();
                let mut merged = TraversalStats::default();
                for (rows, stats) in chunks {
                    merged.merge(&stats);
                    for (i, s) in rows {
                        sys.a[i] += s.accel;
                        phi[i] = s.potential;
                    }
                }
                merged
            });
            self.work.gravity_p2p += walked.p2p_interactions;
            self.work.gravity_p2m += walked.p2m_interactions;
        }
        self.fresh = true;
    }

    /// One KDK macro-step (Global or Adaptive stepping), recorded as a
    /// `replay.step` span whose children are the layer calls.
    /// Returns the step's span id.
    pub fn step(&mut self, tr: &Tracer, req: u64) -> Result<usize, String> {
        tr.span("replay.step", None, req, |step| {
            if !self.fresh {
                self.evaluate(tr, step, req);
            }
            let (sys, config, dt_prev) = (&self.sys, &self.config, self.dt_prev);
            let dt = tr.layer("sph-core.timestep", alloc::CORE, Some(step), req, |_| {
                let dts = per_particle_dt(sys, config);
                match config.time_stepping {
                    TimeStepping::Adaptive { growth_limit } => {
                        adaptive_dt(&dts, dt_prev, growth_limit)
                    }
                    _ => global_dt(&dts),
                }
            });
            let dt = dt.map_err(|e| e.to_string())?;
            let (sys, buffers) = (&mut self.sys, &mut self.buffers);
            tr.layer("sph-core.integrate", alloc::CORE, Some(step), req, |_| {
                kick_drift(sys, buffers, dt / 2.0, dt)
            });
            self.evaluate(tr, step, req);
            let (sys, all) = (&mut self.sys, &self.all);
            tr.layer("sph-core.integrate", alloc::CORE, Some(step), req, |_| {
                kick(sys, dt / 2.0, all)
            });
            self.dt_prev = dt;
            self.sys.time += dt;
            self.sys.step_count += 1;
            Ok(step)
        })
    }
}
