//! # sb-sims — miniature simulation drivers
//!
//! The paper drives its three workflows with LAMMPS (a notched-plate
//! "crack" run), GTCP (a particle-in-cell tokamak code) and GROMACS
//! (biomolecular dynamics). Those codes are hundreds of thousands of lines
//! of C/C++/Fortran and need real clusters; what the *workflows* consume is
//! only each code's per-timestep output array, its self-describing shape,
//! and a physically plausible evolution of the values.
//!
//! This crate therefore implements three small-but-real simulations that
//! produce exactly those outputs from actual dynamics:
//!
//! * [`lammps`] — a Lennard-Jones velocity-Verlet MD of a notched thin
//!   plate pulled apart ("crack"), emitting `particles × {ID, Type, vx, vy,
//!   vz}`;
//! * [`gtcp`] — a toroidal drift-advection/diffusion solver over
//!   `toroidal-slices × grid-points × 7 plasma properties`;
//! * [`gromacs`] — bead-spring polymer chains under Langevin dynamics,
//!   emitting `atoms × {x, y, z}`.
//!
//! Each simulation is rank-parallel over an `sb-comm` communicator and
//! implements [`SimRank`]: fine substeps, plus its per-rank output as an
//! [`sb_data::Chunk`]. The crate knows nothing of streams. The workflow's
//! simulation component (`smartblock::workflows::Simulation`) runs the
//! paper's §V-A schedule on the same step loop as every other component:
//! one published step per coarse I/O interval of substeps — the moral
//! equivalent of the "roughly 70 lines" of ADIOS output code the paper adds
//! to each simulation. Each code states its output array once, as an
//! [`OutputContract`] (`lammps::OUTPUT`, `gtcp::OUTPUT`, `gromacs::OUTPUT`):
//! its `output_chunk` builds every published meta from it, and the
//! simulation component declares its signature from it.

use sb_comm::Communicator;
use sb_data::{Chunk, DType, Shape, VariableMeta};

pub mod gromacs;
pub mod gtcp;
pub mod lammps;

pub use gromacs::{GromacsConfig, GromacsSim};
pub use gtcp::{GtcpConfig, GtcpSim};
pub use lammps::{LammpsConfig, LammpsSim};

/// One rank's view of a running simulation.
///
/// Implementations advance local state in `substep` (communicating with
/// their peers as the physics requires) and expose the local portion of the
/// output array as a self-describing chunk. A simulation is deterministic
/// from its configuration: the same substeps from the same seed give the
/// same output.
pub trait SimRank {
    /// Advances the local state by one fine-grained simulation step.
    fn substep(&mut self, comm: &Communicator);

    /// This rank's chunk of the output variable for the current state.
    fn output_chunk(&self) -> Chunk;
}

/// The one `f64` array a code publishes each step: its name, its dimension
/// names (outermost first) and the quantity labels of its last dimension,
/// whose extent is their count. Only the leading extents depend on the
/// run's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputContract {
    /// The array's name.
    pub array: &'static str,
    /// Dimension names, outermost first.
    pub dims: &'static [&'static str],
    /// Quantity labels of the last dimension.
    pub labels: &'static [&'static str],
}

impl OutputContract {
    /// Element type of every simulation's output.
    pub const DTYPE: DType = DType::F64;

    /// Index of the labelled (last) dimension.
    pub fn labelled_dim(&self) -> usize {
        self.dims.len() - 1
    }

    /// The global meta of the array whose leading extents (every dimension
    /// but the labelled one) are `leading`.
    pub fn meta(&self, leading: &[usize]) -> VariableMeta {
        assert_eq!(
            leading.len(),
            self.labelled_dim(),
            "one extent per leading dimension"
        );
        let extents = leading.iter().copied().chain([self.labels.len()]);
        let dims: Vec<(&str, usize)> = self.dims.iter().copied().zip(extents).collect();
        let mut meta = VariableMeta::new(self.array, Shape::of(&dims), Self::DTYPE);
        meta.labels.insert(
            self.labelled_dim(),
            self.labels.iter().map(|l| l.to_string()).collect(),
        );
        meta
    }
}
