//! The Transpose component: arbitrary axis permutation.
//!
//! Dim-Reduce (paper §III-F) exists because "programming languages
//! understand multi-dimensional data as being in a specific order in
//! memory"; Transpose is the other half of that story — when a downstream
//! component wants the *same* dimensions in a different order (gridpoints
//! major instead of slices major, coordinates-of-atoms instead of
//! atoms-of-coordinates), the data must physically move. The output keeps
//! every dimension, name, and header, re-ordered by a permutation given on
//! the launch line.

use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::decompose::slab_partition;
use sb_data::{Buffer, Chunk, DataError, DataResult, Dim, Region, Shape, Variable, VariableMeta};
use sb_stream::{StreamHub, WriterOptions};

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// Validates that `perm` is a permutation of `0..ndims`.
pub fn check_permutation(perm: &[usize], ndims: usize) -> DataResult<()> {
    if perm.len() != ndims {
        return Err(DataError::RegionOutOfBounds {
            detail: format!("permutation rank {} != array rank {ndims}", perm.len()),
        });
    }
    let mut seen = vec![false; ndims];
    for &p in perm {
        if p >= ndims || seen[p] {
            return Err(DataError::RegionOutOfBounds {
                detail: format!("{perm:?} is not a permutation of 0..{ndims}"),
            });
        }
        seen[p] = true;
    }
    Ok(())
}

/// Permutes the axes of `var`: output dimension `i` is input dimension
/// `perm[i]`. Labels and dimension names travel with their axes.
///
/// This is the pure kernel of the Transpose component.
pub fn permute_axes(var: &Variable, perm: &[usize]) -> DataResult<Variable> {
    let ndims = var.shape.ndims();
    check_permutation(perm, ndims)?;
    let out_dims: Vec<Dim> = perm.iter().map(|&p| var.shape.dims()[p].clone()).collect();
    let out_shape = Shape::new(out_dims);

    // contrib[input_dim] = stride of that dim's index in the output.
    let out_strides = out_shape.strides();
    let mut contrib = vec![0usize; ndims];
    for (out_d, &in_d) in perm.iter().enumerate() {
        contrib[in_d] = out_strides[out_d];
    }

    let sizes = var.shape.sizes();
    let total = var.shape.total_len();
    if ndims == 0 {
        // Rank-0: nothing to permute.
        let mut result = Variable::new(var.name.clone(), out_shape, var.data.clone())?;
        result.attrs = var.attrs.clone();
        return Ok(result);
    }
    let mut out = Buffer::zeros(var.dtype(), total);
    if total > 0 {
        let last = ndims - 1;
        let run = sizes[last];
        let run_contiguous = contrib[last] == 1;
        let mut idx = vec![0usize; last];
        let mut in_off = 0usize;
        'outer: loop {
            let out_base: usize = idx.iter().zip(&contrib[..last]).map(|(&i, &c)| i * c).sum();
            if run_contiguous {
                out.copy_from(out_base, &var.data, in_off, run)?;
            } else {
                for k in 0..run {
                    out.copy_from(out_base + k * contrib[last], &var.data, in_off + k, 1)?;
                }
            }
            in_off += run;
            let mut d = last;
            loop {
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < sizes[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        debug_assert_eq!(in_off, total);
    }

    let mut result = Variable::new(var.name.clone(), out_shape, out)?;
    for (out_d, &in_d) in perm.iter().enumerate() {
        if let Some(names) = var.labels.get(&in_d) {
            result
                .set_labels(out_d, names.clone())
                .expect("label extent matches the moved dim");
        }
    }
    result.attrs = var.attrs.clone();
    Ok(result)
}

/// The Transpose workflow component.
#[derive(Debug, Clone)]
pub struct Transpose {
    /// Input stream/array names.
    pub input: StreamArray,
    /// The axis permutation: output dim `i` = input dim `perm[i]`.
    pub perm: Vec<usize>,
    /// Output stream/array names.
    pub output: StreamArray,
    /// Output buffering policy.
    pub writer_options: WriterOptions,
    /// Reader-group name on the input stream.
    pub reader_group: String,
}

impl Transpose {
    /// Builds a Transpose with the given permutation.
    pub fn new<I, O>(input: I, perm: Vec<usize>, output: O) -> Transpose
    where
        I: Into<StreamArray>,
        O: Into<StreamArray>,
    {
        Transpose {
            input: input.into(),
            perm,
            output: output.into(),
            writer_options: WriterOptions::default(),
            reader_group: "default".into(),
        }
    }

    /// Subscribes under a named reader group (multi-subscriber streams).
    pub fn with_reader_group(mut self, group: impl Into<String>) -> Transpose {
        self.reader_group = group.into();
        self
    }
}

impl Component for Transpose {
    fn label(&self) -> String {
        "transpose".into()
    }

    fn input_subscriptions(&self) -> Vec<(String, String)> {
        vec![(self.input.stream.clone(), self.reader_group.clone())]
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{
            unary_transfer, ArraySpec, PartitionRule, ReadSpec, Signature, SpecError,
        };
        use std::collections::BTreeMap;
        let perm = self.perm.clone();
        let reads = match self.perm.first() {
            Some(&p) => vec![ReadSpec::new(
                &self.input.stream,
                &self.input.array,
                PartitionRule::Along(p),
            )],
            None => Vec::new(),
        };
        Signature::with_boxed_transfer(
            reads,
            unary_transfer(
                self.input.array.clone(),
                self.output.array.clone(),
                move |spec| {
                    // Mirrors `check_permutation`.
                    if perm.len() != spec.ndims() {
                        return Err(SpecError::InvalidAxes {
                            detail: format!(
                                "permutation {:?} does not cover a {}-d array",
                                perm,
                                spec.ndims()
                            ),
                        });
                    }
                    let mut seen = vec![false; perm.len()];
                    for &p in &perm {
                        if p >= perm.len() || seen[p] {
                            return Err(SpecError::InvalidAxes {
                                detail: format!("{perm:?} is not a permutation of the axes"),
                            });
                        }
                        seen[p] = true;
                    }
                    let dims = perm.iter().map(|&p| spec.dims[p].clone()).collect();
                    let mut labels = BTreeMap::new();
                    for (i, &p) in perm.iter().enumerate() {
                        if let Some(names) = spec.labels.get(&p) {
                            labels.insert(i, names.clone());
                        }
                    }
                    let mut out = ArraySpec::new(dims, spec.dtype);
                    out.labels = labels;
                    Ok(out)
                },
            ),
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, self.writer_options, comm, hub, |io| {
            let comm = io.comm;
            let meta = io.meta(0, &self.input.array)?;
            check_permutation(&self.perm, meta.shape.ndims())?;
            if meta.shape.ndims() == 0 {
                // Rank-0 input: pass the scalar through on rank 0.
                let var = io.inputs[0].get(&self.input.array, &Region::new(vec![], vec![]))?;
                let out_meta =
                    VariableMeta::new(self.output.array.clone(), meta.shape.clone(), meta.dtype);
                if comm.rank() == 0 {
                    let scalar = Region::new(vec![], vec![]);
                    io.put(0, Chunk::new(out_meta, scalar, var.data.clone())?);
                }
                return Ok(StepEnd::Publish {
                    bytes_in: var.byte_len() as u64,
                    compute: std::time::Duration::ZERO,
                });
            }

            // Partition along the input dim that becomes output dim 0,
            // so every rank's output is a leading contiguous slab.
            let pdim = self.perm[0];
            let region = slab_partition(&meta.shape, pdim, comm.size(), comm.rank());
            let (off, count) = (region.offset()[pdim], region.count()[pdim]);
            let var = io.inputs[0].get(&self.input.array, &region)?;
            let bytes_in = var.byte_len() as u64;

            let kernel_start = Instant::now();
            let mut local = permute_axes(&var, &self.perm)?;
            local.name = self.output.array.clone();
            let compute = kernel_start.elapsed();

            // Global output metadata with permuted dims and labels.
            let out_dims: Vec<Dim> = self
                .perm
                .iter()
                .map(|&p| meta.shape.dims()[p].clone())
                .collect();
            let mut out_meta =
                VariableMeta::new(self.output.array.clone(), Shape::new(out_dims), meta.dtype);
            for (out_d, &in_d) in self.perm.iter().enumerate() {
                if let Some(names) = meta.labels.get(&in_d) {
                    out_meta.labels.insert(out_d, names.clone());
                }
            }
            out_meta.attrs = meta.attrs.clone();

            let mut out_offset = vec![0; self.perm.len()];
            let mut out_counts = out_meta.shape.sizes();
            out_offset[0] = off;
            out_counts[0] = count;
            let chunk = Chunk::new(out_meta, Region::new(out_offset, out_counts), local.data)?;
            io.put(0, chunk);
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Variable {
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        Variable::new(
            "t",
            Shape::of(&[("a", 2), ("b", 3), ("c", 4)]),
            Buffer::from(data),
        )
        .unwrap()
        .with_labels(2, &["w", "x", "y", "z"])
        .unwrap()
    }

    #[test]
    fn permutation_validation() {
        assert!(check_permutation(&[0, 1, 2], 3).is_ok());
        assert!(check_permutation(&[2, 0, 1], 3).is_ok());
        assert!(check_permutation(&[0, 1], 3).is_err());
        assert!(check_permutation(&[0, 0, 1], 3).is_err());
        assert!(check_permutation(&[0, 1, 3], 3).is_err());
    }

    #[test]
    fn identity_permutation_is_identity() {
        let v = cube();
        let out = permute_axes(&v, &[0, 1, 2]).unwrap();
        assert_eq!(out.data, v.data);
        assert_eq!(out.shape, v.shape);
        assert_eq!(out.header(2).unwrap().len(), 4);
    }

    #[test]
    fn transpose_2d_matrix() {
        let data: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let v = Variable::new("m", Shape::of(&[("r", 2), ("c", 3)]), Buffer::from(data)).unwrap();
        let t = permute_axes(&v, &[1, 0]).unwrap();
        assert_eq!(t.shape, Shape::of(&[("c", 3), ("r", 2)]));
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(t.get(&[c, r]), v.get(&[r, c]));
            }
        }
    }

    #[test]
    fn full_reversal_in_3d() {
        let v = cube();
        let t = permute_axes(&v, &[2, 1, 0]).unwrap();
        assert_eq!(t.shape.sizes(), vec![4, 3, 2]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    assert_eq!(t.get(&[c, b, a]), v.get(&[a, b, c]));
                }
            }
        }
        // Labels follow their axis: dim 2 labels end up on dim 0.
        assert_eq!(t.header(0).unwrap().len(), 4);
        assert!(t.header(2).is_none());
    }

    #[test]
    fn double_transpose_is_identity() {
        let v = cube();
        for perm in [[1usize, 2, 0], [2, 0, 1], [0, 2, 1]] {
            let t = permute_axes(&v, &perm).unwrap();
            // Compute the inverse permutation.
            let mut inv = [0usize; 3];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            let back = permute_axes(&t, &inv).unwrap();
            assert_eq!(back.data, v.data, "perm {perm:?}");
            assert_eq!(back.shape, v.shape);
        }
    }

    #[test]
    fn empty_array_transposes() {
        let v = Variable::new("e", Shape::of(&[("a", 0), ("b", 3)]), Buffer::F64(vec![])).unwrap();
        let t = permute_axes(&v, &[1, 0]).unwrap();
        assert_eq!(t.shape.sizes(), vec![3, 0]);
    }
}
