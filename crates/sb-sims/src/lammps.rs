//! mini-LAMMPS: Lennard-Jones molecular dynamics of a notched plate.
//!
//! The paper's LAMMPS workflow simulates "a disruption (a 'crack') in a
//! thin layer of particles" and outputs five properties per particle —
//! `{ID, Type, vx, vy, vz}` — at coarse intervals. This module reproduces
//! that driver: a single-layer LJ lattice with a notch cut into its top
//! edge is pulled apart by opposing edge velocities; velocity-Verlet
//! integration with a cell-list force evaluation propagates the crack.
//!
//! Parallelization mirrors a simple atom decomposition: every rank owns a
//! contiguous block of particles, computes forces for its block against a
//! cell list over the (allgathered) global positions, and contributes its
//! block of the `particles × 5` output array as a stream chunk.

use sb_comm::Communicator;
use sb_data::decompose::split_1d_part;
use sb_data::{Buffer, Chunk, Region};

use crate::{OutputContract, SimRank};

/// The crack run's output: one row of five quantities per particle.
pub const OUTPUT: OutputContract = OutputContract {
    array: "atoms",
    dims: &["particles", "props"],
    labels: &["ID", "Type", "vx", "vy", "vz"],
};

/// Lattice and integration parameters of the crack run.
#[derive(Debug, Clone)]
pub struct LammpsConfig {
    /// Lattice columns (x).
    pub nx: usize,
    /// Lattice rows (y).
    pub ny: usize,
    /// Integration timestep (LJ units).
    pub dt: f64,
    /// LJ cutoff radius.
    pub cutoff: f64,
    /// Magnitude of the opposing edge pull velocities.
    pub pull_speed: f64,
    /// Fraction of plate height the notch reaches down from the top edge.
    pub notch_depth: f64,
    /// Seed for the small thermal velocity noise.
    pub seed: u64,
    /// Optional Berendsen thermostat target temperature (kT per degree of
    /// freedom); `None` runs microcanonical (NVE), as the crack experiment
    /// does.
    pub thermostat: Option<f64>,
    /// Thermostat coupling time constant (in units of `dt`).
    pub thermostat_tau: f64,
}

impl Default for LammpsConfig {
    fn default() -> Self {
        LammpsConfig {
            nx: 40,
            ny: 40,
            dt: 0.003,
            cutoff: 2.5,
            pull_speed: 0.8,
            notch_depth: 0.35,
            seed: 42,
            thermostat: None,
            thermostat_tau: 10.0,
        }
    }
}

/// Lattice spacing: slightly above the LJ potential minimum (2^(1/6)) so
/// the plate starts under mild tension.
const LATTICE_A: f64 = 1.15;
/// Softening floor for r^2 in the LJ force, preventing overflow when the
/// crack slams particles together.
const R2_MIN: f64 = 0.8;

/// Deterministic xorshift mixer used for the initial thermal noise; keeps
/// construction identical on every rank without sharing an RNG.
fn mix(seed: u64, i: u64, salt: u64) -> f64 {
    let mut x = seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (salt << 32);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    // Map to (-0.5, 0.5).
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// One rank's share of the crack simulation.
pub struct LammpsSim {
    cfg: LammpsConfig,
    nranks: usize,
    /// Global particle count after the notch cut.
    n_global: usize,
    /// This rank's particle index range in the global order.
    local_start: usize,
    local_count: usize,
    /// Global per-particle ids and types (type 2 flags notch-edge atoms).
    ids: Vec<u64>,
    types: Vec<u8>,
    /// Global positions, refreshed by allgather each substep.
    pos: Vec<[f64; 3]>,
    /// Local velocities and forces (previous step's forces for Verlet).
    vel: Vec<[f64; 3]>,
    force: Vec<[f64; 3]>,
}

impl LammpsSim {
    /// Builds rank `rank` of `nranks`'s share. Every rank constructs the
    /// identical global lattice deterministically, then claims its block.
    pub fn new(cfg: LammpsConfig, rank: usize, nranks: usize) -> LammpsSim {
        assert!(rank < nranks);
        let mut pos = Vec::with_capacity(cfg.nx * cfg.ny);
        let mut types = Vec::new();
        let width = cfg.nx as f64 * LATTICE_A;
        let height = cfg.ny as f64 * LATTICE_A;
        let notch_half_width = 1.5 * LATTICE_A;
        let notch_bottom = height * (1.0 - cfg.notch_depth);
        let cx = width / 2.0;
        for iy in 0..cfg.ny {
            for ix in 0..cfg.nx {
                let x = ix as f64 * LATTICE_A;
                let y = iy as f64 * LATTICE_A;
                // Cut the notch: a vertical slot from the top edge.
                if (x - cx).abs() < notch_half_width && y > notch_bottom {
                    continue;
                }
                let near_notch = (x - cx).abs() < notch_half_width + 2.0 * LATTICE_A
                    && y > notch_bottom - 2.0 * LATTICE_A;
                pos.push([x, y, 0.0]);
                types.push(if near_notch { 2 } else { 1 });
            }
        }
        let n_global = pos.len();
        let ids: Vec<u64> = (1..=n_global as u64).collect();
        let (local_start, local_count) = split_1d_part(n_global, nranks, rank);

        // Initial velocities: opposing horizontal pull on the two plate
        // halves plus a small deterministic thermal component.
        let mut vel = Vec::with_capacity(local_count);
        #[allow(clippy::needless_range_loop)] // global index i names the particle
        for i in local_start..local_start + local_count {
            let dir = if pos[i][0] < cx { -1.0 } else { 1.0 };
            vel.push([
                dir * cfg.pull_speed + 0.05 * mix(cfg.seed, i as u64, 1),
                0.05 * mix(cfg.seed, i as u64, 2),
                0.02 * mix(cfg.seed, i as u64, 3),
            ]);
        }

        let mut sim = LammpsSim {
            cfg,
            nranks,
            n_global,
            local_start,
            local_count,
            ids,
            types,
            pos,
            vel,
            force: vec![[0.0; 3]; local_count],
        };
        sim.force = sim.compute_local_forces();
        sim
    }

    /// Particles in the whole plate (after the notch cut).
    pub fn n_global(&self) -> usize {
        self.n_global
    }

    /// This rank's `(start, count)` block of the global particle order.
    pub fn local_range(&self) -> (usize, usize) {
        (self.local_start, self.local_count)
    }

    /// Global positions (every rank holds a synchronized copy).
    pub fn positions(&self) -> &[[f64; 3]] {
        &self.pos
    }

    /// This rank's velocities.
    pub fn velocities(&self) -> &[[f64; 3]] {
        &self.vel
    }

    /// Sum of this rank's momenta (unit mass), for conservation tests.
    pub fn local_momentum(&self) -> [f64; 3] {
        let mut p = [0.0; 3];
        for v in &self.vel {
            for d in 0..3 {
                p[d] += v[d];
            }
        }
        p
    }

    /// This rank's kinetic energy (unit mass).
    pub fn local_kinetic_energy(&self) -> f64 {
        self.vel
            .iter()
            .map(|v| 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum()
    }

    /// Instantaneous kinetic temperature of the whole plate (kT, unit
    /// mass, 3 degrees of freedom per particle), via one allreduce.
    pub fn temperature(&self, comm: &Communicator) -> f64 {
        let local = (self.local_kinetic_energy(), self.local_count as f64);
        let (ke, n) = if self.nranks > 1 {
            comm.allreduce(local, |a, b| (a.0 + b.0, a.1 + b.1))
        } else {
            local
        };
        if n == 0.0 {
            0.0
        } else {
            2.0 * ke / (3.0 * n)
        }
    }

    /// LJ forces on this rank's block, from a cell list over all particles.
    fn compute_local_forces(&self) -> Vec<[f64; 3]> {
        let rc = self.cfg.cutoff;
        let rc2 = rc * rc;

        // Bounding box of current positions, padded so every particle maps
        // to a valid cell even as the plate flies apart.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in &self.pos {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let mut ncells = [0usize; 3];
        for d in 0..3 {
            ncells[d] = (((hi[d] - lo[d]) / rc).floor() as usize + 1).max(1);
        }
        let cell_of = |p: &[f64; 3]| -> usize {
            let mut idx = 0;
            for d in 0..3 {
                let c = (((p[d] - lo[d]) / rc) as usize).min(ncells[d] - 1);
                idx = idx * ncells[d] + c;
            }
            idx
        };
        let total_cells = ncells[0] * ncells[1] * ncells[2];
        // Counting-sort style cell list: heads + linked chains.
        let mut head = vec![u32::MAX; total_cells];
        let mut next = vec![u32::MAX; self.pos.len()];
        for (i, p) in self.pos.iter().enumerate() {
            let c = cell_of(p);
            next[i] = head[c];
            head[c] = i as u32;
        }

        let mut forces = vec![[0.0f64; 3]; self.local_count];
        #[allow(clippy::needless_range_loop)] // li pairs a local slot with global index
        for li in 0..self.local_count {
            let i = self.local_start + li;
            let pi = self.pos[i];
            let ci = [
                (((pi[0] - lo[0]) / rc) as usize).min(ncells[0] - 1),
                (((pi[1] - lo[1]) / rc) as usize).min(ncells[1] - 1),
                (((pi[2] - lo[2]) / rc) as usize).min(ncells[2] - 1),
            ];
            let mut f = [0.0f64; 3];
            for dx in -1i64..=1 {
                let cx = ci[0] as i64 + dx;
                if cx < 0 || cx >= ncells[0] as i64 {
                    continue;
                }
                for dy in -1i64..=1 {
                    let cy = ci[1] as i64 + dy;
                    if cy < 0 || cy >= ncells[1] as i64 {
                        continue;
                    }
                    for dz in -1i64..=1 {
                        let cz = ci[2] as i64 + dz;
                        if cz < 0 || cz >= ncells[2] as i64 {
                            continue;
                        }
                        let cell =
                            (cx as usize * ncells[1] + cy as usize) * ncells[2] + cz as usize;
                        let mut j = head[cell];
                        while j != u32::MAX {
                            let ju = j as usize;
                            if ju != i {
                                let pj = self.pos[ju];
                                let dr = [pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]];
                                let r2 =
                                    (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).max(R2_MIN);
                                if r2 < rc2 {
                                    let inv2 = 1.0 / r2;
                                    let inv6 = inv2 * inv2 * inv2;
                                    // 24 ε (2 (σ/r)^12 − (σ/r)^6) / r^2, ε=σ=1.
                                    let coef = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                                    f[0] += coef * dr[0];
                                    f[1] += coef * dr[1];
                                    f[2] += coef * dr[2];
                                }
                            }
                            j = next[ju];
                        }
                    }
                }
            }
            forces[li] = f;
        }
        forces
    }

    /// Refreshes the global position array from every rank's local block.
    fn sync_positions(&mut self, comm: &Communicator) {
        if self.nranks == 1 {
            return;
        }
        let local: Vec<[f64; 3]> =
            self.pos[self.local_start..self.local_start + self.local_count].to_vec();
        let blocks = comm.allgather_shared(local);
        let mut off = 0;
        for block in blocks.iter() {
            self.pos[off..off + block.len()].copy_from_slice(block);
            off += block.len();
        }
        debug_assert_eq!(off, self.n_global);
    }
}

impl SimRank for LammpsSim {
    /// One velocity-Verlet step.
    fn substep(&mut self, comm: &Communicator) {
        let dt = self.cfg.dt;
        // Drift with current velocities and half-kick of old forces.
        for li in 0..self.local_count {
            let i = self.local_start + li;
            for d in 0..3 {
                self.pos[i][d] += dt * self.vel[li][d] + 0.5 * dt * dt * self.force[li][d];
            }
        }
        self.sync_positions(comm);
        let new_forces = self.compute_local_forces();
        #[allow(clippy::needless_range_loop)] // index-parallel over vel/force arrays
        for li in 0..self.local_count {
            for d in 0..3 {
                self.vel[li][d] += 0.5 * dt * (self.force[li][d] + new_forces[li][d]);
            }
        }
        self.force = new_forces;

        // Optional Berendsen thermostat: rescale velocities toward the
        // target temperature with coupling constant tau (in dt units).
        // Requires a global temperature, hence one extra allreduce.
        if let Some(target) = self.cfg.thermostat {
            let t = self.temperature(comm);
            if t > 0.0 {
                let lambda = (1.0 + (target / t - 1.0) / self.cfg.thermostat_tau)
                    .max(0.0)
                    .sqrt();
                for v in &mut self.vel {
                    for c in v.iter_mut() {
                        *c *= lambda;
                    }
                }
            }
        }
    }

    /// This rank's `local × 5` block of the `particles × {ID, Type, vx, vy,
    /// vz}` output.
    fn output_chunk(&self) -> Chunk {
        let mut data = Vec::with_capacity(self.local_count * 5);
        for li in 0..self.local_count {
            let i = self.local_start + li;
            data.push(self.ids[i] as f64);
            data.push(self.types[i] as f64);
            data.push(self.vel[li][0]);
            data.push(self.vel[li][1]);
            data.push(self.vel[li][2]);
        }
        Chunk::new(
            OUTPUT.meta(&[self.n_global]),
            Region::new(vec![self.local_start, 0], vec![self.local_count, 5]),
            Buffer::F64(data),
        )
        .expect("locally constructed chunk is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_comm::launch;

    fn small() -> LammpsConfig {
        LammpsConfig {
            nx: 12,
            ny: 12,
            ..LammpsConfig::default()
        }
    }

    #[test]
    fn lattice_has_a_notch() {
        let sim = LammpsSim::new(small(), 0, 1);
        assert!(sim.n_global() < 144, "notch removed no particles");
        assert!(sim.n_global() > 100, "notch removed too many particles");
        // Some particles are flagged as notch-adjacent type 2.
        assert!(sim.types.contains(&2));
        assert!(sim.types.contains(&1));
        // IDs are 1-based and unique.
        assert_eq!(sim.ids.first(), Some(&1));
        assert_eq!(sim.ids.last(), Some(&(sim.n_global() as u64)));
    }

    #[test]
    fn construction_is_identical_across_ranks() {
        let a = LammpsSim::new(small(), 0, 3);
        let b = LammpsSim::new(small(), 2, 3);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.types, b.types);
        assert_eq!(a.n_global(), b.n_global());
        // Blocks tile the particle range.
        let (s0, c0) = a.local_range();
        assert_eq!(s0, 0);
        let (s2, c2) = b.local_range();
        assert_eq!(s2 + c2, a.n_global());
        assert!(c0 >= c2);
    }

    #[test]
    fn serial_momentum_is_approximately_conserved() {
        // No external forces after t=0: total momentum is invariant under
        // velocity Verlet up to floating-point roundoff.
        launch(1, |comm| {
            let mut sim = LammpsSim::new(small(), 0, 1);
            let p0 = sim.local_momentum();
            for _ in 0..50 {
                sim.substep(&comm);
            }
            let p1 = sim.local_momentum();
            for d in 0..3 {
                assert!(
                    (p1[d] - p0[d]).abs() < 1e-6 * sim.n_global() as f64,
                    "momentum drifted: {p0:?} -> {p1:?}"
                );
            }
        })
        .unwrap();
    }

    #[test]
    fn dynamics_stay_finite_and_energetic() {
        launch(1, |comm| {
            let mut sim = LammpsSim::new(small(), 0, 1);
            for _ in 0..100 {
                sim.substep(&comm);
            }
            assert!(sim.local_kinetic_energy().is_finite());
            assert!(sim.local_kinetic_energy() > 0.0);
            for p in sim.positions() {
                assert!(p.iter().all(|c| c.is_finite()), "position blew up: {p:?}");
            }
        })
        .unwrap();
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let steps = 20;
        let serial = {
            launch(1, |comm| {
                let mut sim = LammpsSim::new(small(), 0, 1);
                for _ in 0..steps {
                    sim.substep(&comm);
                }
                sim.positions().to_vec()
            })
            .unwrap()
            .remove(0)
        };
        for nranks in [2usize, 3] {
            let parallel = launch(nranks, move |comm| {
                let mut sim = LammpsSim::new(small(), comm.rank(), comm.size());
                for _ in 0..steps {
                    sim.substep(&comm);
                }
                sim.positions().to_vec()
            })
            .unwrap()
            .remove(0);
            for (a, b) in serial.iter().zip(&parallel) {
                for d in 0..3 {
                    assert!(
                        (a[d] - b[d]).abs() < 1e-9,
                        "serial/parallel divergence with {nranks} ranks: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn output_chunk_shape_and_labels() {
        let sim = LammpsSim::new(small(), 1, 2);
        let chunk = sim.output_chunk();
        assert_eq!(chunk.meta.shape.ndims(), 2);
        assert_eq!(chunk.meta.shape.size(1), 5);
        assert_eq!(chunk.meta.resolve_label(1, "vx").unwrap(), 2);
        let (start, count) = sim.local_range();
        assert_eq!(chunk.region.offset(), &[start, 0]);
        assert_eq!(chunk.region.count(), &[count, 5]);
        // First column of the chunk carries the 1-based global IDs.
        assert_eq!(chunk.data.get_f64(0), (start + 1) as f64);
    }

    #[test]
    fn thermostat_drives_temperature_to_target() {
        let cfg = LammpsConfig {
            nx: 10,
            ny: 10,
            pull_speed: 0.0, // no crack: a quiet lattice heated to kT = 0.5
            thermostat: Some(0.5),
            thermostat_tau: 5.0,
            ..LammpsConfig::default()
        };
        launch(1, move |comm| {
            let mut sim = LammpsSim::new(cfg.clone(), 0, 1);
            let t0 = sim.temperature(&comm);
            assert!(t0 < 0.1, "starts cold: {t0}");
            for _ in 0..300 {
                sim.substep(&comm);
            }
            let t1 = sim.temperature(&comm);
            assert!(
                (t1 - 0.5).abs() < 0.2,
                "thermostat failed to reach target: {t0} -> {t1}"
            );
        })
        .unwrap();
    }

    #[test]
    fn thermostatted_parallel_matches_serial() {
        let cfg = LammpsConfig {
            nx: 10,
            ny: 10,
            thermostat: Some(0.3),
            ..LammpsConfig::default()
        };
        let steps = 15;
        let cfg_a = cfg.clone();
        let serial = launch(1, move |comm| {
            let mut sim = LammpsSim::new(cfg_a.clone(), 0, 1);
            for _ in 0..steps {
                sim.substep(&comm);
            }
            sim.positions().to_vec()
        })
        .unwrap()
        .remove(0);
        let parallel = launch(3, move |comm| {
            let mut sim = LammpsSim::new(cfg.clone(), comm.rank(), comm.size());
            for _ in 0..steps {
                sim.substep(&comm);
            }
            sim.positions().to_vec()
        })
        .unwrap()
        .remove(0);
        for (a, b) in serial.iter().zip(&parallel) {
            for d in 0..3 {
                assert!((a[d] - b[d]).abs() < 1e-9, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn crack_actually_opens() {
        // Under the pull, the horizontal spread of the plate must grow.
        launch(1, |comm| {
            let mut sim = LammpsSim::new(small(), 0, 1);
            let width = |s: &LammpsSim| {
                let xs: Vec<f64> = s.positions().iter().map(|p| p[0]).collect();
                xs.iter().cloned().fold(f64::MIN, f64::max)
                    - xs.iter().cloned().fold(f64::MAX, f64::min)
            };
            let w0 = width(&sim);
            for _ in 0..200 {
                sim.substep(&comm);
            }
            let w1 = width(&sim);
            assert!(w1 > w0 * 1.05, "plate did not separate: {w0} -> {w1}");
        })
        .unwrap();
    }
}
