//! mini-GROMACS: bead-spring polymer chains under Langevin dynamics.
//!
//! The paper's GROMACS workflow consumes "the three-dimensional coordinates
//! of the atoms involved in the simulation at regular intervals" — a
//! two-dimensional `atoms × {x, y, z}` array — and histograms the distance
//! of each atom from the origin, "showing an evolution of the spread of the
//! particles throughout the simulation" (§V-A).
//!
//! This module simulates protein-like bead chains: harmonic bonds along
//! each chain, a purely repulsive (WCA) excluded-volume interaction between
//! beads of the same chain, and Langevin friction + thermal noise. The
//! thermal noise makes the chain cloud diffuse outward over time, so the
//! |x| histogram genuinely spreads — the property the workflow visualizes.
//!
//! Ranks own whole chains (a molecule decomposition); a global allreduce
//! removes centre-of-mass drift every substep, mirroring GROMACS's COM
//! motion removal.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_comm::Communicator;
use sb_data::decompose::split_1d_part;
use sb_data::{Buffer, Chunk, Region};

use crate::{OutputContract, SimRank};

/// The chain system's output: the coordinates of every atom.
pub const OUTPUT: OutputContract = OutputContract {
    array: "coords",
    dims: &["atoms", "coords"],
    labels: &["x", "y", "z"],
};

/// Chain-system and integrator parameters.
#[derive(Debug, Clone)]
pub struct GromacsConfig {
    /// Number of polymer chains.
    pub n_chains: usize,
    /// Beads per chain.
    pub chain_len: usize,
    /// Integration timestep.
    pub dt: f64,
    /// Harmonic bond stiffness.
    pub bond_k: f64,
    /// Equilibrium bond length.
    pub bond_r0: f64,
    /// Angle (chain-stiffness) constant: a bending penalty pushing
    /// consecutive bond vectors toward alignment. 0 gives a fully flexible
    /// chain; large values approach a rigid rod.
    pub angle_k: f64,
    /// Langevin friction coefficient.
    pub friction: f64,
    /// Thermal noise temperature (kT).
    pub temperature: f64,
    /// RNG seed (per-rank streams are derived from it).
    pub seed: u64,
}

impl Default for GromacsConfig {
    fn default() -> Self {
        GromacsConfig {
            n_chains: 32,
            chain_len: 16,
            dt: 0.005,
            bond_k: 100.0,
            bond_r0: 1.0,
            angle_k: 0.0,
            // Weak solvent coupling: with kT/friction this large, thermal
            // diffusion visibly dominates the chain-relaxation transient on
            // the (short) timescales the workflows observe, so the atom
            // cloud genuinely spreads outward within a few hundred substeps.
            friction: 0.1,
            temperature: 1.2,
            seed: 1234,
        }
    }
}

impl GromacsConfig {
    /// Total number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.n_chains * self.chain_len
    }

    /// A configuration sized to roughly `n` atoms, keeping 16-bead chains.
    pub fn with_atom_target(n: usize) -> GromacsConfig {
        let chain_len = 16;
        GromacsConfig {
            n_chains: n.div_ceil(chain_len).max(1),
            chain_len,
            ..GromacsConfig::default()
        }
    }
}

/// One rank's chains.
pub struct GromacsSim {
    cfg: GromacsConfig,
    nranks: usize,
    /// This rank's chain block `(first_chain, n_chains)`.
    chain_start: usize,
    chain_count: usize,
    /// Local bead positions and velocities, chain-major.
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    rng: StdRng,
}

impl GromacsSim {
    /// Builds rank `rank`'s chains, seeded deterministically per rank.
    pub fn new(cfg: GromacsConfig, rank: usize, nranks: usize) -> GromacsSim {
        assert!(rank < nranks);
        let (chain_start, chain_count) = split_1d_part(cfg.n_chains, nranks, rank);
        // Chains start as straight rods arranged on a circle around the
        // origin, all within a compact cloud that then diffuses outward.
        let mut pos = Vec::with_capacity(chain_count * cfg.chain_len);
        for c in chain_start..chain_start + chain_count {
            let angle = 2.0 * std::f64::consts::PI * c as f64 / cfg.n_chains as f64;
            let radius = 2.0 + (c % 5) as f64;
            let ox = radius * angle.cos();
            let oy = radius * angle.sin();
            let oz = ((c % 7) as f64 - 3.0) * 0.5;
            for b in 0..cfg.chain_len {
                pos.push([
                    ox + 0.9 * cfg.bond_r0 * b as f64 * angle.cos(),
                    oy + 0.9 * cfg.bond_r0 * b as f64 * angle.sin(),
                    oz,
                ]);
            }
        }
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(rank as u64).wrapping_mul(0x9E37));
        let n_local = pos.len();
        GromacsSim {
            cfg,
            nranks,
            chain_start,
            chain_count,
            pos,
            vel: vec![[0.0; 3]; n_local],
            rng,
        }
    }

    /// Total atoms in the system.
    pub fn n_atoms(&self) -> usize {
        self.cfg.n_atoms()
    }

    /// This rank's atom block `(start, count)` in the global atom order.
    pub fn local_atoms(&self) -> (usize, usize) {
        (
            self.chain_start * self.cfg.chain_len,
            self.chain_count * self.cfg.chain_len,
        )
    }

    /// Local bead positions.
    pub fn positions(&self) -> &[[f64; 3]] {
        &self.pos
    }

    /// Mean squared end-to-end distance of this rank's chains — the
    /// standard polymer-stiffness observable.
    pub fn local_mean_end_to_end_sq(&self) -> f64 {
        if self.chain_count == 0 {
            return 0.0;
        }
        let len = self.cfg.chain_len;
        let mut acc = 0.0;
        for c in 0..self.chain_count {
            let first = self.pos[c * len];
            let last = self.pos[c * len + len - 1];
            acc += (0..3).map(|d| (last[d] - first[d]).powi(2)).sum::<f64>();
        }
        acc / self.chain_count as f64
    }

    /// Mean distance of this rank's beads from the origin.
    pub fn local_mean_radius(&self) -> f64 {
        let sum: f64 = self
            .pos
            .iter()
            .map(|p| (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt())
            .sum();
        sum / self.pos.len().max(1) as f64
    }

    /// Bond + excluded-volume forces on this rank's beads.
    fn forces(&self) -> Vec<[f64; 3]> {
        let mut f = vec![[0.0f64; 3]; self.pos.len()];
        let k = self.cfg.bond_k;
        let r0 = self.cfg.bond_r0;
        // WCA cutoff at 2^(1/6) σ, σ = 0.9 r0.
        let sigma = 0.9 * r0;
        let wca_rc2 = (2f64.powf(1.0 / 3.0)) * sigma * sigma;
        for c in 0..self.chain_count {
            let base = c * self.cfg.chain_len;
            // Harmonic bonds between consecutive beads.
            for b in 0..self.cfg.chain_len - 1 {
                let i = base + b;
                let j = i + 1;
                let dr = [
                    self.pos[j][0] - self.pos[i][0],
                    self.pos[j][1] - self.pos[i][1],
                    self.pos[j][2] - self.pos[i][2],
                ];
                let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2])
                    .sqrt()
                    .max(1e-9);
                let mag = k * (r - r0) / r;
                for d in 0..3 {
                    f[i][d] += mag * dr[d];
                    f[j][d] -= mag * dr[d];
                }
            }
            // Bending stiffness: for each interior bead, a penalty pulling
            // consecutive bond vectors into alignment (discrete worm-like
            // chain). F_i contributions follow from E = k (1 - cos theta).
            if self.cfg.angle_k > 0.0 {
                let ka = self.cfg.angle_k;
                for b in 1..self.cfg.chain_len - 1 {
                    let (ip, i, inx) = (base + b - 1, base + b, base + b + 1);
                    let u = [
                        self.pos[i][0] - self.pos[ip][0],
                        self.pos[i][1] - self.pos[ip][1],
                        self.pos[i][2] - self.pos[ip][2],
                    ];
                    let v = [
                        self.pos[inx][0] - self.pos[i][0],
                        self.pos[inx][1] - self.pos[i][1],
                        self.pos[inx][2] - self.pos[i][2],
                    ];
                    let lu = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt().max(1e-9);
                    let lv = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-9);
                    let cos = (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) / (lu * lv);
                    // dE/du and dE/dv for E = ka (1 - cos), projected.
                    for d in 0..3 {
                        let du = ka * (v[d] / (lu * lv) - cos * u[d] / (lu * lu));
                        let dv = ka * (u[d] / (lu * lv) - cos * v[d] / (lv * lv));
                        // u depends on (ip, i); v depends on (i, in):
                        // F = -dE/dx with dE/du = -du, dE/dv = -dv.
                        f[ip][d] += -du;
                        f[i][d] += du - dv;
                        f[inx][d] += dv;
                    }
                }
            }
            // Excluded volume between non-bonded beads of the same chain.
            for a in 0..self.cfg.chain_len {
                for b in a + 2..self.cfg.chain_len {
                    let i = base + a;
                    let j = base + b;
                    let dr = [
                        self.pos[i][0] - self.pos[j][0],
                        self.pos[i][1] - self.pos[j][1],
                        self.pos[i][2] - self.pos[j][2],
                    ];
                    let r2 =
                        (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).max(0.25 * sigma * sigma);
                    if r2 < wca_rc2 {
                        let s2 = sigma * sigma / r2;
                        let s6 = s2 * s2 * s2;
                        let coef = 24.0 * s6 * (2.0 * s6 - 1.0) / r2;
                        for d in 0..3 {
                            f[i][d] += coef * dr[d];
                            f[j][d] -= coef * dr[d];
                        }
                    }
                }
            }
        }
        f
    }
}

impl SimRank for GromacsSim {
    /// One Langevin (BAOAB-flavoured Euler) step plus global COM-motion
    /// removal.
    fn substep(&mut self, comm: &Communicator) {
        let dt = self.cfg.dt;
        let gamma = self.cfg.friction;
        let noise = (2.0 * gamma * self.cfg.temperature * dt).sqrt();
        let forces = self.forces();
        for (i, f) in forces.iter().enumerate() {
            #[allow(clippy::needless_range_loop)] // d runs over x/y/z in lockstep
            for d in 0..3 {
                let eta: f64 = self.rng.gen_range(-1.0f64..1.0) * 1.732_050_8; // unit variance
                self.vel[i][d] += dt * (f[d] - gamma * self.vel[i][d]) + noise * eta;
                self.pos[i][d] += dt * self.vel[i][d];
            }
        }
        // Remove global centre-of-mass velocity so the cloud spreads rather
        // than wanders — one allreduce per substep, as in GROMACS.
        let local: [f64; 4] = {
            let mut acc = [0.0; 4];
            for v in &self.vel {
                acc[0] += v[0];
                acc[1] += v[1];
                acc[2] += v[2];
            }
            acc[3] = self.vel.len() as f64;
            acc
        };
        let total = if self.nranks > 1 {
            comm.allreduce(local, |a, b| {
                [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
            })
        } else {
            local
        };
        if total[3] > 0.0 {
            let mean = [
                total[0] / total[3],
                total[1] / total[3],
                total[2] / total[3],
            ];
            for v in &mut self.vel {
                for d in 0..3 {
                    v[d] -= mean[d];
                }
            }
        }
    }

    /// This rank's `atoms × 3` block of the coordinate output.
    fn output_chunk(&self) -> Chunk {
        let (start, count) = self.local_atoms();
        let mut data = Vec::with_capacity(count * 3);
        for p in &self.pos {
            data.extend_from_slice(p);
        }
        Chunk::new(
            OUTPUT.meta(&[self.n_atoms()]),
            Region::new(vec![start, 0], vec![count, 3]),
            Buffer::F64(data),
        )
        .expect("locally constructed chunk is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_comm::launch;

    fn small() -> GromacsConfig {
        GromacsConfig {
            n_chains: 6,
            chain_len: 8,
            ..GromacsConfig::default()
        }
    }

    #[test]
    fn chain_blocks_tile_atoms() {
        let cfg = small();
        let mut covered = 0;
        for r in 0..3 {
            let sim = GromacsSim::new(cfg.clone(), r, 3);
            let (start, count) = sim.local_atoms();
            assert_eq!(start, covered);
            covered += count;
        }
        assert_eq!(covered, cfg.n_atoms());
    }

    #[test]
    fn bonds_hold_chains_together() {
        launch(1, |comm| {
            let mut sim = GromacsSim::new(small(), 0, 1);
            for _ in 0..400 {
                sim.substep(&comm);
            }
            // Every consecutive bead pair stays near the bond length.
            for c in 0..sim.chain_count {
                let base = c * sim.cfg.chain_len;
                for b in 0..sim.cfg.chain_len - 1 {
                    let i = base + b;
                    let j = i + 1;
                    let dr: f64 = (0..3)
                        .map(|d| (sim.pos[i][d] - sim.pos[j][d]).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    assert!(dr.is_finite());
                    assert!(
                        dr > 0.3 && dr < 3.0,
                        "bond {b} of chain {c} broke: length {dr}"
                    );
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn cloud_spreads_over_time() {
        // Mean |r| over a handful of chains is dominated by the chains' own
        // random-walk fluctuations, so this observable needs a decent
        // ensemble (64 chains) and enough diffusion time to make the spread
        // signal decisive rather than a coin flip.
        let cfg = GromacsConfig {
            n_chains: 64,
            chain_len: 8,
            ..GromacsConfig::default()
        };
        launch(1, move |comm| {
            let mut sim = GromacsSim::new(cfg.clone(), 0, 1);
            let r0 = sim.local_mean_radius();
            for _ in 0..2400 {
                sim.substep(&comm);
            }
            let r1 = sim.local_mean_radius();
            assert!(
                r1 > r0 * 1.02,
                "thermal diffusion did not spread the cloud: {r0} -> {r1}"
            );
        })
        .unwrap();
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = || {
            launch(1, |comm| {
                let mut sim = GromacsSim::new(small(), 0, 1);
                for _ in 0..50 {
                    sim.substep(&comm);
                }
                sim.positions().to_vec()
            })
            .unwrap()
            .remove(0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn angle_stiffness_straightens_chains() {
        // Mean squared end-to-end distance must grow with angle_k.
        let run = |angle_k: f64| {
            let cfg = GromacsConfig {
                n_chains: 8,
                chain_len: 12,
                angle_k,
                temperature: 0.8,
                ..GromacsConfig::default()
            };
            launch(1, move |comm| {
                let mut sim = GromacsSim::new(cfg.clone(), 0, 1);
                for _ in 0..600 {
                    sim.substep(&comm);
                }
                sim.local_mean_end_to_end_sq()
            })
            .unwrap()
            .remove(0)
        };
        let floppy = run(0.0);
        let stiff = run(30.0);
        assert!(
            stiff > floppy * 1.3,
            "stiffness did not extend chains: floppy {floppy:.2} vs stiff {stiff:.2}"
        );
    }

    #[test]
    fn stiff_chains_stay_finite() {
        let cfg = GromacsConfig {
            n_chains: 4,
            chain_len: 10,
            angle_k: 50.0,
            ..GromacsConfig::default()
        };
        launch(2, move |comm| {
            let mut sim = GromacsSim::new(cfg.clone(), comm.rank(), comm.size());
            for _ in 0..400 {
                sim.substep(&comm);
            }
            for p in sim.positions() {
                assert!(p.iter().all(|c| c.is_finite()));
            }
        })
        .unwrap();
    }

    #[test]
    fn output_chunk_is_atoms_by_xyz() {
        let sim = GromacsSim::new(small(), 1, 2);
        let chunk = sim.output_chunk();
        assert_eq!(chunk.meta.shape.sizes(), vec![48, 3]);
        assert_eq!(chunk.meta.resolve_label(1, "z").unwrap(), 2);
        let (start, count) = sim.local_atoms();
        assert_eq!(chunk.region.offset(), &[start, 0]);
        assert_eq!(chunk.region.count(), &[count, 3]);
    }

    #[test]
    fn atom_target_sizing() {
        let cfg = GromacsConfig::with_atom_target(1000);
        assert!(cfg.n_atoms() >= 1000);
        assert!(cfg.n_atoms() < 1100);
    }
}
