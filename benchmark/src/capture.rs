//! Input generation: real `sb-sims` output captured once, in memory, from
//! `--seed`, plus the serial reference histogram of every captured frame.
//!
//! The seed feeds the simulator configs here and nowhere else; the program
//! under test only ever sees the frames.

use std::time::Instant;

use sb_data::decompose::slab_partition;
use sb_data::{Chunk, DataResult, Region, Variable};
use sb_sims::{GromacsConfig, GromacsSim, LammpsConfig, LammpsSim, SimRank};
use smartblock::histogram::bin_counts;
use smartblock::magnitude::vector_magnitudes;
use smartblock::select::select_rows;

/// Bins of every histogram the benchmark pipelines compute.
pub const BINS: usize = 32;
/// The velocity columns the LAMMPS pipeline's Select keeps.
pub const LAMMPS_KEEP: [&str; 3] = ["vx", "vy", "vz"];

/// Which mini code produced the frames, and so which paper pipeline
/// consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    /// `particles x {ID, Type, vx, vy, vz}` -> Select -> Magnitude -> Histogram.
    Lammps,
    /// `atoms x {x, y, z}` -> Magnitude -> Histogram.
    Gromacs,
}

impl Code {
    /// The stream name the paper's launch scripts give the simulation output.
    pub fn source_stream(self) -> &'static str {
        match self {
            Code::Lammps => "dump.custom.fp",
            Code::Gromacs => "gromacs.fp",
        }
    }

    pub fn array(self) -> &'static str {
        match self {
            Code::Lammps => "atoms",
            Code::Gromacs => "coords",
        }
    }
}

/// The histogram a correct pipeline must emit for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub min: f64,
    pub max: f64,
    pub counts: Vec<u64>,
}

impl Reference {
    /// Bit-for-bit agreement with a histogram read off the output stream
    /// (`==` would call a NaN minimum unequal to itself and -0.0 equal to 0.0).
    pub fn matches(&self, seen: &Reference) -> bool {
        self.min.to_bits() == seen.min.to_bits()
            && self.max.to_bits() == seen.max.to_bits()
            && self.counts == seen.counts
    }
}

/// Captured frames of one simulation and their reference histograms.
pub struct Capture {
    pub code: Code,
    /// Whole-array frames, one chunk each, in capture order.
    pub frames: Vec<Chunk>,
    pub reference: Vec<Reference>,
    /// Wall time of simulating and capturing (reference time excluded).
    pub gen_s: f64,
}

impl Capture {
    pub fn bytes_per_step(&self) -> u64 {
        self.frames[0].byte_len() as u64
    }

    /// Each frame cut into `writers` row slabs: the chunks an M-rank source
    /// puts, indexed `[frame][rank]`. One writer shares the captured
    /// allocation; several copy their slab once, here, outside any timing.
    pub fn writer_chunks(&self, writers: usize) -> Vec<Vec<Chunk>> {
        self.frames
            .iter()
            .map(|frame| {
                if writers == 1 {
                    return vec![frame.clone()];
                }
                let var = variable_of(frame);
                (0..writers)
                    .map(|rank| {
                        let region = slab_partition(&frame.meta.shape, 0, writers, rank);
                        let part = var
                            .extract(&region)
                            .expect("a slab of the frame's own shape");
                        Chunk::new(frame.meta.clone(), region, part.data)
                            .expect("slab chunk is consistent with the frame's metadata")
                    })
                    .collect()
            })
            .collect()
    }
}

/// A whole-array chunk seen as the variable the kernels take.
pub fn variable_of(frame: &Chunk) -> Variable {
    debug_assert_eq!(frame.region, Region::whole(&frame.meta.shape));
    Variable {
        name: frame.meta.name.clone(),
        shape: frame.meta.shape.clone(),
        data: frame.data.clone(),
        labels: frame.meta.labels.clone(),
        attrs: frame.meta.attrs.clone(),
    }
}

/// Column indices of [`LAMMPS_KEEP`], resolved by name as Select does.
pub fn lammps_keep_indices(var: &Variable) -> DataResult<Vec<usize>> {
    LAMMPS_KEEP
        .iter()
        .map(|name| var.resolve_label(1, name))
        .collect()
}

/// The serial reference: the same three public kernels the components
/// call, applied to the whole frame on one thread. One rank's min/max fold
/// is exactly what Histogram's allreduce yields, so every backend must
/// reproduce these bits.
pub fn reference_histogram(code: Code, frame: &Chunk) -> DataResult<Reference> {
    let var = variable_of(frame);
    let mags = match code {
        Code::Lammps => {
            let selected = select_rows(&var, 1, &lammps_keep_indices(&var)?)?;
            vector_magnitudes(&selected)?
        }
        Code::Gromacs => vector_magnitudes(&var)?,
    };
    let (min, max) = mags
        .iter()
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    let (counts, _nan) = bin_counts(&mags, min, max, BINS);
    Ok(Reference { min, max, counts })
}

/// What to simulate and how many frames to keep.
#[derive(Debug, Clone, Copy)]
pub struct CaptureSpec {
    pub code: Code,
    /// Lattice side for LAMMPS (`nx = ny`), chain count for GROMACS
    /// (16 beads each).
    pub size: usize,
    pub frames: usize,
    /// Substeps before the first frame, so GROMACS' straight-rod start and
    /// LAMMPS' lattice start have dissolved into real dynamics.
    pub warm_substeps: u64,
    /// Substeps between frames.
    pub substeps: u64,
}

const GROMACS_CHAIN_LEN: usize = 16;

/// Runs the simulation single-rank on a rank thread of its own and keeps
/// `spec.frames` output chunks plus their reference histograms.
pub fn capture(spec: CaptureSpec, seed: u64) -> Capture {
    let start = Instant::now();
    let frames = sb_comm::launch_named("capture", 1, |comm| {
        let mut sim: Box<dyn SimRank> = match spec.code {
            Code::Lammps => Box::new(LammpsSim::new(lammps_config(spec.size, seed), 0, 1)),
            Code::Gromacs => Box::new(GromacsSim::new(gromacs_config(spec.size, seed), 0, 1)),
        };
        for _ in 0..spec.warm_substeps {
            sim.substep(&comm);
        }
        (0..spec.frames)
            .map(|_| {
                for _ in 0..spec.substeps {
                    sim.substep(&comm);
                }
                sim.output_chunk()
            })
            .collect::<Vec<Chunk>>()
    })
    .expect("capture rank thread")
    .remove(0);
    let gen_s = start.elapsed().as_secs_f64();
    let reference = frames
        .iter()
        .map(|f| reference_histogram(spec.code, f).expect("reference kernels accept sim output"))
        .collect();
    Capture {
        code: spec.code,
        frames,
        reference,
        gen_s,
    }
}

pub fn lammps_config(nx: usize, seed: u64) -> LammpsConfig {
    LammpsConfig {
        nx,
        ny: nx,
        seed,
        ..LammpsConfig::default()
    }
}

pub fn gromacs_config(chains: usize, seed: u64) -> GromacsConfig {
    GromacsConfig {
        n_chains: chains,
        chain_len: GROMACS_CHAIN_LEN,
        seed,
        ..GromacsConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(code: Code) -> CaptureSpec {
        CaptureSpec {
            code,
            size: 12,
            frames: 2,
            warm_substeps: 1,
            substeps: 1,
        }
    }

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for code in [Code::Lammps, Code::Gromacs] {
            let a = capture(tiny(code), 7);
            let b = capture(tiny(code), 7);
            let c = capture(tiny(code), 8);
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.reference, b.reference);
            assert_ne!(a.frames, c.frames, "{code:?}");
            assert_eq!(
                a.reference[0].counts.iter().sum::<u64>() as usize,
                a.frames[0].meta.shape.size(0)
            );
        }
    }

    #[test]
    fn writer_slabs_tile_the_frame() {
        let cap = capture(tiny(Code::Gromacs), 1);
        let parts = cap.writer_chunks(2);
        assert_eq!(parts.len(), 2);
        let bytes: usize = parts[0].iter().map(Chunk::byte_len).sum();
        assert_eq!(bytes as u64, cap.bytes_per_step());
        assert_eq!(
            parts[0][1].region.offset()[0],
            parts[0][0].region.count()[0]
        );
        assert!(sb_data::SharedBuffer::shares_allocation(
            &cap.writer_chunks(1)[0][0].data,
            &cap.frames[0].data
        ));
    }
}
