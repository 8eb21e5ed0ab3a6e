//! mini-GTCP: a toroidal plasma field solver.
//!
//! GTCP simulates a toroidally confined plasma, splitting the torus into
//! toroidal slices of grid points and outputting "7 properties of the
//! plasma such as pressure and energy flux" per grid point (paper §V-A,
//! Fig. 4). The workflow consumes a three-dimensional array —
//! `toroidal-slices × grid-points × properties` — whose pressure field has
//! non-trivial structure.
//!
//! This module evolves four prognostic fields (density, parallel and
//! perpendicular temperature, potential) with toroidal upwind advection,
//! poloidal diffusion and a drift-wave-flavoured coupling term, then
//! derives three diagnostic fields (parallel/perpendicular pressure and
//! energy flux) at output time — seven labelled properties in total.
//!
//! Ranks own contiguous blocks of toroidal slices and exchange one ghost
//! slice with each ring neighbour per substep — the point-to-point pattern
//! of a real domain-decomposed PIC code.

use sb_comm::Communicator;
use sb_data::decompose::split_1d_part;
use sb_data::{Buffer, Chunk, Region};

use crate::{OutputContract, SimRank};

/// Names of the seven output properties, in output order.
pub const GTCP_PROPERTIES: [&str; 7] = [
    "density",
    "T_par",
    "T_perp",
    "potential",
    "P_par",
    "P_perp",
    "energy_flux",
];

/// The torus's output: every property at every grid point of every slice.
pub const OUTPUT: OutputContract = OutputContract {
    array: "plasma",
    dims: &["toroidal", "gridpoints", "properties"],
    labels: &GTCP_PROPERTIES,
};

/// Index of the perpendicular pressure property — the quantity the paper's
/// GTCP workflow selects and histograms.
pub const P_PERP_INDEX: usize = 5;

/// Number of prognostic (time-stepped) fields.
const N_PROG: usize = 4;
const F_DENSITY: usize = 0;
const F_TPAR: usize = 1;
const F_TPERP: usize = 2;
const F_PHI: usize = 3;

/// Mesh and physics parameters.
#[derive(Debug, Clone)]
pub struct GtcpConfig {
    /// Toroidal slices around the torus.
    pub n_slices: usize,
    /// Grid points per slice (a poloidal ring).
    pub n_points: usize,
    /// Integration timestep.
    pub dt: f64,
    /// Toroidal advection speed (slices per unit time).
    pub advection: f64,
    /// Poloidal diffusivity.
    pub diffusion: f64,
    /// Drift-coupling strength between potential and density.
    pub coupling: f64,
    /// Zonal-flow damping: the rate at which the poloidally uniform (m=0)
    /// component of the potential is sheared away, the stabilizing
    /// mechanism of the paper's GTCP reference (turbulent transport
    /// reduction by zonal flows). 0 disables it.
    pub zonal_damping: f64,
    /// Seed for the initial perturbation.
    pub seed: u64,
}

impl Default for GtcpConfig {
    fn default() -> Self {
        GtcpConfig {
            n_slices: 32,
            n_points: 64,
            dt: 0.01,
            advection: 1.5,
            diffusion: 0.4,
            coupling: 0.25,
            zonal_damping: 0.0,
            seed: 7,
        }
    }
}

impl GtcpConfig {
    /// A configuration sized so one output step is roughly `bytes` large.
    pub fn with_output_bytes(bytes: usize) -> GtcpConfig {
        // bytes = slices * points * 7 * 8; keep points = 2 * slices.
        let cells = (bytes / (7 * 8)).max(8);
        let slices = ((cells as f64 / 2.0).sqrt().ceil() as usize).max(2);
        GtcpConfig {
            n_slices: slices,
            n_points: 2 * slices,
            ..GtcpConfig::default()
        }
    }
}

fn mix(seed: u64, i: u64, salt: u64) -> f64 {
    let mut x = seed ^ (i.wrapping_mul(0x2545_F491_4F6C_DD1D)) ^ (salt << 17);
    x ^= x >> 31;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 29;
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// One rank's block of toroidal slices.
pub struct GtcpSim {
    cfg: GtcpConfig,
    rank: usize,
    nranks: usize,
    /// First global slice this rank owns, and how many.
    slice_start: usize,
    slice_count: usize,
    /// Prognostic fields: `[field][local_slice][point]`, flattened.
    fields: [Vec<f64>; N_PROG],
    /// Scratch for the update.
    scratch: Vec<f64>,
    /// Ghost slices from the ring neighbours: `[field][point]`.
    ghost_prev: [Vec<f64>; N_PROG],
}

impl GtcpSim {
    /// Builds rank `rank`'s block with a deterministic initial perturbation.
    pub fn new(cfg: GtcpConfig, rank: usize, nranks: usize) -> GtcpSim {
        assert!(rank < nranks);
        assert!(
            nranks <= cfg.n_slices,
            "more ranks than toroidal slices ({} > {})",
            nranks,
            cfg.n_slices
        );
        let (slice_start, slice_count) = split_1d_part(cfg.n_slices, nranks, rank);
        let np = cfg.n_points;
        let mut fields: [Vec<f64>; N_PROG] = std::array::from_fn(|_| vec![0.0; slice_count * np]);
        for ls in 0..slice_count {
            let s = slice_start + ls;
            let theta = 2.0 * std::f64::consts::PI * s as f64 / cfg.n_slices as f64;
            for j in 0..np {
                let phi = 2.0 * std::f64::consts::PI * j as f64 / np as f64;
                let cell = (s * np + j) as u64;
                let idx = ls * np + j;
                // Density: background + two interacting modes + noise.
                fields[F_DENSITY][idx] = 1.0
                    + 0.15 * (3.0 * phi + theta).cos()
                    + 0.08 * (5.0 * phi - 2.0 * theta).sin()
                    + 0.02 * mix(cfg.seed, cell, 0);
                // Temperatures: poloidally varying profiles.
                fields[F_TPAR][idx] = 1.2 + 0.2 * phi.cos() + 0.02 * mix(cfg.seed, cell, 1);
                fields[F_TPERP][idx] =
                    0.9 + 0.25 * (2.0 * phi).sin() + 0.02 * mix(cfg.seed, cell, 2);
                // Potential: small seed perturbation.
                fields[F_PHI][idx] = 0.05 * (4.0 * phi + 2.0 * theta).cos();
            }
        }
        GtcpSim {
            scratch: vec![0.0; slice_count * np],
            ghost_prev: std::array::from_fn(|_| vec![0.0; np]),
            cfg,
            rank,
            nranks,
            slice_start,
            slice_count,
            fields,
        }
    }

    /// This rank's `(start, count)` block of toroidal slices.
    pub fn local_slices(&self) -> (usize, usize) {
        (self.slice_start, self.slice_count)
    }

    /// Mean of a prognostic field over this rank's block (for tests).
    pub fn local_mean(&self, field: usize) -> f64 {
        let f = &self.fields[field];
        f.iter().sum::<f64>() / f.len() as f64
    }

    /// Local fluctuation energy: sum over cells of (n - 1)^2 + phi^2, the
    /// quantity zonal flows suppress.
    pub fn local_fluctuation_energy(&self) -> f64 {
        let n = &self.fields[F_DENSITY];
        let phi = &self.fields[F_PHI];
        n.iter()
            .zip(phi)
            .map(|(&d, &p)| (d - 1.0) * (d - 1.0) + p * p)
            .sum()
    }

    /// Exchanges ghost slices around the toroidal ring. Each rank sends its
    /// *last* slice to the next rank, which uses it as the upwind neighbour
    /// of its first slice.
    fn exchange_ghosts(&mut self, comm: &Communicator) {
        let np = self.cfg.n_points;
        if self.nranks == 1 {
            // Periodic wrap within the local block.
            for f in 0..N_PROG {
                let last = (self.slice_count - 1) * np;
                self.ghost_prev[f].copy_from_slice(&self.fields[f][last..last + np]);
            }
            return;
        }
        let next = (self.rank + 1) % self.nranks;
        let prev = (self.rank + self.nranks - 1) % self.nranks;
        for f in 0..N_PROG {
            let last = (self.slice_count - 1) * np;
            let outgoing: Vec<f64> = self.fields[f][last..last + np].to_vec();
            comm.send(next, f as u64, outgoing);
        }
        for (f, ghost) in self.ghost_prev.iter_mut().enumerate() {
            *ghost = comm.recv::<Vec<f64>>(prev, f as u64);
        }
    }

    /// Builds the seven-property output for this rank's slices.
    fn output_values(&self) -> Vec<f64> {
        let np = self.cfg.n_points;
        let nprops = GTCP_PROPERTIES.len();
        let mut out = vec![0.0; self.slice_count * np * nprops];
        for ls in 0..self.slice_count {
            for j in 0..np {
                let idx = ls * np + j;
                let n = self.fields[F_DENSITY][idx];
                let tpar = self.fields[F_TPAR][idx];
                let tperp = self.fields[F_TPERP][idx];
                let phi = self.fields[F_PHI][idx];
                // Poloidal temperature gradient drives the energy flux.
                let jn = (j + 1) % np;
                let grad_t = (self.fields[F_TPERP][ls * np + jn] - tperp) * np as f64
                    / (2.0 * std::f64::consts::PI);
                let base = (ls * np + j) * nprops;
                out[base] = n;
                out[base + 1] = tpar;
                out[base + 2] = tperp;
                out[base + 3] = phi;
                out[base + 4] = n * tpar; // parallel pressure
                out[base + 5] = n * tperp; // perpendicular pressure
                out[base + 6] = -self.cfg.diffusion * grad_t; // energy flux
            }
        }
        out
    }
}

impl SimRank for GtcpSim {
    /// One explicit step: toroidal upwind advection + poloidal diffusion +
    /// drift coupling.
    fn substep(&mut self, comm: &Communicator) {
        let np = self.cfg.n_points;
        let dt = self.cfg.dt;
        // Zonal-flow shear: damp the poloidal-mean (m=0) component of the
        // potential BEFORE the ghost exchange, so neighbours see post-damp
        // values regardless of where rank boundaries fall.
        if self.cfg.zonal_damping > 0.0 {
            let damp = (-self.cfg.zonal_damping * dt).exp();
            for ls in 0..self.slice_count {
                let row = &mut self.fields[F_PHI][ls * np..(ls + 1) * np];
                let mean: f64 = row.iter().sum::<f64>() / np as f64;
                let damped = mean * damp;
                for v in row {
                    *v += damped - mean;
                }
            }
        }
        self.exchange_ghosts(comm);
        let adv = self.cfg.advection;
        let diff = self.cfg.diffusion;
        let dphi2 = {
            let dphi = 2.0 * std::f64::consts::PI / np as f64;
            dphi * dphi
        };
        for f in 0..N_PROG {
            {
                let field = &self.fields[f];
                let ghost = &self.ghost_prev[f];
                let scratch = &mut self.scratch;
                for ls in 0..self.slice_count {
                    for j in 0..np {
                        let idx = ls * np + j;
                        let here = field[idx];
                        // Upwind toroidal neighbour: previous slice (ghost
                        // for the first local slice).
                        let upwind = if ls == 0 {
                            ghost[j]
                        } else {
                            field[(ls - 1) * np + j]
                        };
                        let jl = (j + np - 1) % np;
                        let jr = (j + 1) % np;
                        let lap = (field[ls * np + jl] - 2.0 * here + field[ls * np + jr]) / dphi2;
                        // Drift coupling: density and potential feed each
                        // other; temperatures relax toward the density.
                        let drive = match f {
                            F_DENSITY => self.cfg.coupling * self.fields[F_PHI][idx],
                            F_PHI => -self.cfg.coupling * (self.fields[F_DENSITY][idx] - 1.0),
                            _ => 0.05 * (self.fields[F_DENSITY][idx] - here),
                        };
                        scratch[idx] = here + dt * (-adv * (here - upwind) + diff * lap + drive);
                    }
                }
            }
            std::mem::swap(&mut self.fields[f], &mut self.scratch);
        }
    }

    /// This rank's `slices × points × 7` block of the global output.
    fn output_chunk(&self) -> Chunk {
        Chunk::new(
            OUTPUT.meta(&[self.cfg.n_slices, self.cfg.n_points]),
            Region::new(
                vec![self.slice_start, 0, 0],
                vec![self.slice_count, self.cfg.n_points, GTCP_PROPERTIES.len()],
            ),
            Buffer::F64(self.output_values()),
        )
        .expect("locally constructed chunk is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_comm::launch;

    fn small() -> GtcpConfig {
        GtcpConfig {
            n_slices: 8,
            n_points: 16,
            ..GtcpConfig::default()
        }
    }

    #[test]
    fn blocks_tile_the_torus() {
        let total: usize = (0..3)
            .map(|r| GtcpSim::new(small(), r, 3).local_slices().1)
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn initial_fields_are_structured() {
        let sim = GtcpSim::new(small(), 0, 1);
        // Density near 1, temperatures near their profiles.
        assert!((sim.local_mean(F_DENSITY) - 1.0).abs() < 0.1);
        assert!((sim.local_mean(F_TPAR) - 1.2).abs() < 0.1);
        assert!((sim.local_mean(F_TPERP) - 0.9).abs() < 0.1);
    }

    #[test]
    fn dynamics_stay_finite_and_bounded() {
        launch(1, |comm| {
            let mut sim = GtcpSim::new(small(), 0, 1);
            for _ in 0..500 {
                sim.substep(&comm);
            }
            for f in 0..N_PROG {
                for &v in &sim.fields[f] {
                    assert!(v.is_finite());
                    assert!(v.abs() < 10.0, "field {f} diverged: {v}");
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn parallel_matches_serial() {
        let steps = 30;
        let serial = {
            launch(1, |comm| {
                let mut sim = GtcpSim::new(small(), 0, 1);
                for _ in 0..steps {
                    sim.substep(&comm);
                }
                sim.output_values()
            })
            .unwrap()
            .remove(0)
        };
        for nranks in [2usize, 4] {
            let blocks = launch(nranks, move |comm| {
                let mut sim = GtcpSim::new(small(), comm.rank(), comm.size());
                for _ in 0..steps {
                    sim.substep(&comm);
                }
                (sim.local_slices(), sim.output_values())
            })
            .unwrap();
            let mut stitched = vec![0.0; serial.len()];
            let np = small().n_points;
            let nprops = GTCP_PROPERTIES.len();
            for ((start, count), values) in blocks {
                let from = start * np * nprops;
                stitched[from..from + count * np * nprops].copy_from_slice(&values);
            }
            for (i, (a, b)) in serial.iter().zip(&stitched).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "serial/parallel divergence with {nranks} ranks at {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn output_has_seven_labelled_properties() {
        let sim = GtcpSim::new(small(), 0, 1);
        let chunk = sim.output_chunk();
        assert_eq!(chunk.meta.shape.sizes(), vec![8, 16, 7]);
        assert_eq!(chunk.meta.resolve_label(2, "P_perp").unwrap(), P_PERP_INDEX);
        assert_eq!(chunk.meta.header(2).unwrap().len(), 7);
        // P_perp = density * T_perp at every point.
        let v = &chunk.data;
        for cell in 0..8 * 16 {
            let n = v.get_f64(cell * 7);
            let tperp = v.get_f64(cell * 7 + 2);
            let pperp = v.get_f64(cell * 7 + P_PERP_INDEX);
            assert!((pperp - n * tperp).abs() < 1e-12);
        }
    }

    #[test]
    fn advection_moves_structure_toroidally() {
        // With pure advection (no diffusion/coupling), a pattern should
        // translate around the torus.
        let cfg = GtcpConfig {
            n_slices: 16,
            n_points: 8,
            diffusion: 0.0,
            coupling: 0.0,
            dt: 0.05,
            advection: 1.0,
            zonal_damping: 0.0,
            seed: 1,
        };
        launch(1, |comm| {
            let mut sim = GtcpSim::new(cfg.clone(), 0, 1);
            let before = sim.local_mean(F_DENSITY);
            for _ in 0..100 {
                sim.substep(&comm);
            }
            // Upwind advection preserves the mean exactly (telescoping sum
            // around the periodic ring).
            let after = sim.local_mean(F_DENSITY);
            assert!((before - after).abs() < 1e-9, "{before} vs {after}");
        })
        .unwrap();
    }

    #[test]
    fn zonal_damping_reduces_fluctuation_energy() {
        // With strong drift coupling the system sustains fluctuations;
        // zonal damping must lower the late-time fluctuation energy.
        let base = GtcpConfig {
            n_slices: 8,
            n_points: 16,
            coupling: 0.6,
            diffusion: 0.05,
            ..GtcpConfig::default()
        };
        let energy_after = |zonal: f64| {
            let cfg = GtcpConfig {
                zonal_damping: zonal,
                ..base.clone()
            };
            launch(1, move |comm| {
                let mut sim = GtcpSim::new(cfg.clone(), 0, 1);
                for _ in 0..400 {
                    sim.substep(&comm);
                }
                sim.local_fluctuation_energy()
            })
            .unwrap()
            .remove(0)
        };
        let free = energy_after(0.0);
        let damped = energy_after(2.0);
        assert!(
            damped < free,
            "zonal damping did not suppress fluctuations: {free} -> {damped}"
        );
    }

    #[test]
    fn zonal_dynamics_stay_parallel_consistent() {
        let cfg = GtcpConfig {
            n_slices: 8,
            n_points: 12,
            zonal_damping: 1.0,
            ..GtcpConfig::default()
        };
        let steps = 25;
        let cfg_a = cfg.clone();
        let serial = launch(1, move |comm| {
            let mut sim = GtcpSim::new(cfg_a.clone(), 0, 1);
            for _ in 0..steps {
                sim.substep(&comm);
            }
            sim.output_values()
        })
        .unwrap()
        .remove(0);
        let blocks = launch(4, move |comm| {
            let mut sim = GtcpSim::new(cfg.clone(), comm.rank(), comm.size());
            for _ in 0..steps {
                sim.substep(&comm);
            }
            (sim.local_slices(), sim.output_values())
        })
        .unwrap();
        let mut stitched = vec![0.0; serial.len()];
        let per_slice = 12 * GTCP_PROPERTIES.len();
        for ((start, count), values) in blocks {
            stitched[start * per_slice..(start + count) * per_slice].copy_from_slice(&values);
        }
        for (a, b) in serial.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn config_sizing_hits_byte_target() {
        let cfg = GtcpConfig::with_output_bytes(1 << 20);
        let bytes = cfg.n_slices * cfg.n_points * 7 * 8;
        assert!(bytes >= 1 << 20, "undersized: {bytes}");
        assert!(bytes < (1 << 20) * 3, "wildly oversized: {bytes}");
    }

    #[test]
    #[should_panic(expected = "more ranks than toroidal slices")]
    fn too_many_ranks_is_rejected() {
        let _ = GtcpSim::new(small(), 0, 9);
    }
}
