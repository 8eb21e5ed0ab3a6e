//! The Magnitude component: per-row vector magnitudes (paper §III-D).
//!
//! Magnitude operates on a two-dimensional array where one dimension spans
//! the data points (particles, atoms) and the other spans the components of
//! one vector per point; it outputs the one-dimensional array of vector
//! magnitudes. Because the contract is always 2-d, the component takes only
//! stream/array names as parameters.

use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::{Buffer, Chunk, DataError, DataResult, Region, Variable};
use sb_stream::StreamHub;

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// Computes the Euclidean magnitude of each row vector of a 2-d array.
///
/// This is the pure kernel of the Magnitude component. Each row's squares
/// are summed left to right, whatever the width; non-`f64` input is widened
/// once up front.
pub fn vector_magnitudes(var: &Variable) -> DataResult<Vec<f64>> {
    if var.shape.ndims() != 2 {
        return Err(DataError::RegionOutOfBounds {
            detail: format!(
                "magnitude expects a 2-d array, got rank {}",
                var.shape.ndims()
            ),
        });
    }
    let data = var.data.to_f64_cow();
    // Vectors are short (2 or 3 components in every paper workflow): at a
    // width the compiler knows, a row is straight-line code and several
    // rows share one square root.
    Ok(match var.shape.size(1) {
        0 => vec![0.0; var.shape.size(0)],
        1 => fixed_width_magnitudes::<1>(&data),
        2 => fixed_width_magnitudes::<2>(&data),
        3 => fixed_width_magnitudes::<3>(&data),
        4 => fixed_width_magnitudes::<4>(&data),
        m => data.chunks_exact(m).map(magnitude).collect(),
    })
}

fn fixed_width_magnitudes<const M: usize>(data: &[f64]) -> Vec<f64> {
    let (rows, _) = data.as_chunks::<M>();
    rows.iter().map(|row| magnitude(row)).collect()
}

#[inline(always)]
fn magnitude(row: &[f64]) -> f64 {
    row.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The Magnitude workflow component.
#[derive(Debug, Clone)]
pub struct Magnitude {
    /// Input stream/array names (must be a 2-d array).
    pub input: StreamArray,
    /// Output stream/array names (a 1-d array of magnitudes).
    pub output: StreamArray,
}

impl Magnitude {
    /// Builds a Magnitude between the given endpoints.
    pub fn new<I: Into<StreamArray>, O: Into<StreamArray>>(input: I, output: O) -> Magnitude {
        Magnitude {
            input: input.into(),
            output: output.into(),
        }
    }
}

impl Component for Magnitude {
    fn label(&self) -> String {
        "magnitude".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{
            unary_transfer, ArraySpec, PartitionRule, ReadSpec, Signature, SpecError,
        };
        Signature::with_boxed_transfer(
            vec![ReadSpec::new(
                &self.input.stream,
                &self.input.array,
                PartitionRule::Along(0),
            )],
            unary_transfer(
                self.input.array.clone(),
                self.output.array.clone(),
                |spec| {
                    if spec.ndims() != 2 {
                        return Err(SpecError::RankMismatch {
                            expected: 2,
                            got: spec.ndims(),
                        });
                    }
                    Ok(ArraySpec::new(
                        vec![spec.dims[0].clone()],
                        sb_data::DType::F64,
                    ))
                },
            ),
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, comm, hub, |io| {
            // The points dimension is partitioned; every rank reads whole rows.
            let region = io.region(0).expect("a 2-d read always partitions");
            let var = io.inputs[0].get(&self.input.array, region)?;
            let bytes_in = var.byte_len() as u64;

            let kernel_start = Instant::now();
            let mags = vector_magnitudes(&var)?;
            let compute = kernel_start.elapsed();

            let chunk = Chunk::new(
                io.out_meta(0, &self.output.array)?.clone(),
                Region::new(vec![region.offset()[0]], vec![region.count()[0]]),
                Buffer::F64(mags),
            )?;
            io.put(0, chunk);
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_data::Shape;

    #[test]
    fn kernel_computes_row_magnitudes() {
        let v = Variable::new(
            "vel",
            Shape::of(&[("particles", 3), ("comp", 3)]),
            Buffer::F64(vec![3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 2.0]),
        )
        .unwrap();
        assert_eq!(vector_magnitudes(&v).unwrap(), vec![5.0, 0.0, 3.0]);
    }

    #[test]
    fn kernel_widens_non_f64_input() {
        let v = Variable::new(
            "vel",
            Shape::of(&[("p", 2), ("c", 2)]),
            Buffer::I32(vec![3, 4, 6, 8]),
        )
        .unwrap();
        assert_eq!(vector_magnitudes(&v).unwrap(), vec![5.0, 10.0]);
    }

    #[test]
    fn kernel_rejects_non_2d() {
        let v = Variable::new("x", Shape::linear("n", 3), Buffer::F64(vec![0.0; 3])).unwrap();
        assert!(vector_magnitudes(&v).is_err());
    }

    #[test]
    fn kernel_handles_empty_rows() {
        let v =
            Variable::new("vel", Shape::of(&[("p", 0), ("c", 3)]), Buffer::F64(vec![])).unwrap();
        assert_eq!(vector_magnitudes(&v).unwrap(), Vec::<f64>::new());
    }
}
