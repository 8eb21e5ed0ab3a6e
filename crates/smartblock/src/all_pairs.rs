//! The All-Pairs component: a data-*increasing* analytic.
//!
//! All the paper's components shrink (or preserve) their input; its future
//! work singles out "analytical procedures that lead to an increase in data
//! size, such as all-pairs calculations" as the next thing the SmartBlock
//! approach should express (§VI). This component computes all pairwise
//! Euclidean distances of a 2-d `points × coords` input, emitting the
//! condensed upper-triangular distance vector of length `n·(n−1)/2` —
//! quadratically larger than the input.
//!
//! Each rank owns a contiguous range of `i` rows; because the condensed
//! vector is `i`-major, every rank's output is a contiguous region, so the
//! data-increasing analytic still composes with MxN redistribution.

use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::decompose::split_1d_part;
use sb_data::{Buffer, Chunk, DType, DataError, DataResult, Region, Shape, Variable, VariableMeta};
use sb_stream::{StreamHub, WriterOptions};

use crate::component::{run_steps, Component, Ports, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// Offset of row `i`'s first pair in the condensed `i`-major distance
/// vector of an `n`-point set: pairs `(i, j)` with `j > i`.
pub fn condensed_offset(n: usize, i: usize) -> usize {
    // sum_{k < i} (n - 1 - k) = i*(2n - i - 1)/2
    if i == 0 {
        return 0;
    }
    i * (2 * n - i - 1) / 2
}

/// Total length of the condensed distance vector for `n` points.
pub fn condensed_len(n: usize) -> usize {
    n.saturating_sub(1) * n / 2
}

/// Distances from each point in `rows` (global indices `i0..i0+rows`) to
/// every later point, reading coordinates from the full `points` set.
///
/// This is the pure kernel of the All-Pairs component.
pub fn pairwise_distances(points: &Variable, i0: usize, rows: usize) -> DataResult<Vec<f64>> {
    if points.shape.ndims() != 2 {
        return Err(DataError::RegionOutOfBounds {
            detail: format!(
                "all-pairs expects a 2-d points array, got rank {}",
                points.shape.ndims()
            ),
        });
    }
    let n = points.shape.size(0);
    let d = points.shape.size(1);
    if i0 + rows > n {
        return Err(DataError::RegionOutOfBounds {
            detail: format!("row range {i0}+{rows} exceeds {n} points"),
        });
    }
    let data = points.data.to_f64_vec();
    let mut out = Vec::with_capacity(condensed_offset(n, i0 + rows) - condensed_offset(n, i0));
    for i in i0..i0 + rows {
        let pi = &data[i * d..(i + 1) * d];
        for j in i + 1..n {
            let pj = &data[j * d..(j + 1) * d];
            let dist2: f64 = pi.iter().zip(pj).map(|(a, b)| (a - b) * (a - b)).sum();
            out.push(dist2.sqrt());
        }
    }
    Ok(out)
}

/// The All-Pairs workflow component.
#[derive(Debug, Clone)]
pub struct AllPairs {
    /// Input stream/array names (2-d `points × coords`).
    pub input: StreamArray,
    /// Output stream/array names (1-d condensed distances).
    pub output: StreamArray,
    /// Output buffering policy.
    pub writer_options: WriterOptions,
    /// Reader-group name on the input stream.
    pub reader_group: String,
}

impl AllPairs {
    /// Builds an All-Pairs between the given endpoints.
    pub fn new<I: Into<StreamArray>, O: Into<StreamArray>>(input: I, output: O) -> AllPairs {
        AllPairs {
            input: input.into(),
            output: output.into(),
            writer_options: WriterOptions::default(),
            reader_group: "default".into(),
        }
    }

    /// Subscribes under a named reader group (multi-subscriber streams).
    pub fn with_reader_group(mut self, group: impl Into<String>) -> AllPairs {
        self.reader_group = group.into();
        self
    }
}

impl Component for AllPairs {
    fn label(&self) -> String {
        "all-pairs".into()
    }

    fn input_streams(&self) -> Vec<String> {
        vec![self.input.stream.clone()]
    }

    fn input_subscriptions(&self) -> Vec<(String, String)> {
        vec![(self.input.stream.clone(), self.reader_group.clone())]
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{unary_transfer, ArraySpec, DimSpec, Extent, Signature, SpecError};
        // Every rank reads the whole array (pair distances cross any
        // partition boundary), so there is no partitioned read to declare.
        Signature::with_boxed_transfer(
            Vec::new(),
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
                    let pairs = match spec.dims[0].extent {
                        Extent::Fixed(n) => Extent::Fixed(n.saturating_sub(1) * n / 2),
                        Extent::Dynamic => Extent::Dynamic,
                    };
                    Ok(ArraySpec::new(
                        vec![DimSpec {
                            name: "pairs".into(),
                            extent: pairs,
                        }],
                        sb_data::DType::F64,
                    ))
                },
            ),
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(
            Ports {
                label: "all-pairs",
                inputs: &[(&self.input.stream, &self.reader_group)],
                outputs: &[(&self.output.stream, self.writer_options)],
            },
            comm,
            hub,
            |io| {
                let comm = io.comm;
                let meta = io.meta(0, &self.input.array)?;
                // Every rank needs all points to compute its pair rows.
                let var = io.inputs[0].get(&self.input.array, &Region::whole(&meta.shape))?;
                let bytes_in = var.byte_len() as u64;
                let n = meta.shape.size(0);
                let (i0, rows) = split_1d_part(n, comm.size(), comm.rank());

                let kernel_start = Instant::now();
                let dists = pairwise_distances(&var, i0, rows)?;
                let compute = kernel_start.elapsed();

                let out_meta = VariableMeta::new(
                    self.output.array.clone(),
                    Shape::linear("pairs", condensed_len(n)),
                    DType::F64,
                );
                let off = condensed_offset(n, i0);
                let chunk = Chunk::new(
                    out_meta,
                    Region::new(vec![off], vec![dists.len()]),
                    Buffer::F64(dists),
                )?;
                io.put(0, chunk);
                Ok(StepEnd::Publish { bytes_in, compute })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Variable {
        // Unit square corners.
        Variable::new(
            "pts",
            Shape::of(&[("points", 4), ("coords", 2)]),
            Buffer::F64(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
        )
        .unwrap()
    }

    #[test]
    fn condensed_indexing() {
        assert_eq!(condensed_len(4), 6);
        assert_eq!(condensed_offset(4, 0), 0);
        assert_eq!(condensed_offset(4, 1), 3);
        assert_eq!(condensed_offset(4, 2), 5);
        assert_eq!(condensed_offset(4, 3), 6);
        assert_eq!(condensed_len(0), 0);
        assert_eq!(condensed_len(1), 0);
    }

    #[test]
    fn distances_of_a_unit_square() {
        let v = square();
        let all = pairwise_distances(&v, 0, 4).unwrap();
        let r2 = std::f64::consts::SQRT_2;
        assert_eq!(all.len(), 6);
        let expect = [1.0, 1.0, r2, r2, 1.0, 1.0];
        for (a, b) in all.iter().zip(expect) {
            assert!((a - b).abs() < 1e-12, "{all:?}");
        }
    }

    #[test]
    fn row_ranges_compose_to_the_whole() {
        let v = square();
        let all = pairwise_distances(&v, 0, 4).unwrap();
        let mut stitched = Vec::new();
        stitched.extend(pairwise_distances(&v, 0, 2).unwrap());
        stitched.extend(pairwise_distances(&v, 2, 2).unwrap());
        assert_eq!(all, stitched);
    }

    #[test]
    fn kernel_rejects_bad_input() {
        let v = Variable::new("x", Shape::linear("n", 3), Buffer::F64(vec![0.0; 3])).unwrap();
        assert!(pairwise_distances(&v, 0, 1).is_err());
        assert!(pairwise_distances(&square(), 3, 2).is_err());
    }

    #[test]
    fn output_grows_quadratically() {
        // 100 points of 3 coords: input 300 values, output 4950 values.
        assert!(condensed_len(100) > 300 * 10);
    }
}
