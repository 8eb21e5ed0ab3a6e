//! The static data-contract vocabulary: array/stream specs, partition
//! rules, step-cadence contracts, and component signatures.
//!
//! These types are the analysis-time mirror of the runtime's
//! self-describing data model (`sb_data::VariableMeta`): every component
//! declares *statically* what it reads, how it partitions it, how specs
//! flow through it, and at what step rate it produces output. The passes
//! in `crate::analysis::passes` consume these declarations.

use std::collections::BTreeMap;
use std::fmt;

use sb_data::DType;

/// A statically known or data-dependent dimension length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// The extent is fixed by configuration (e.g. a simulation grid size).
    Fixed(usize),
    /// The extent depends on the data (e.g. atoms surviving a threshold).
    Dynamic,
}

impl Extent {
    /// The product of two extents; dynamic absorbs everything.
    pub fn times(self, other: Extent) -> Extent {
        match (self, other) {
            (Extent::Fixed(a), Extent::Fixed(b)) => Extent::Fixed(a * b),
            _ => Extent::Dynamic,
        }
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Extent::Fixed(n) => write!(f, "{n}"),
            Extent::Dynamic => write!(f, "?"),
        }
    }
}

/// One dimension of an [`ArraySpec`]: a name and an extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimSpec {
    /// Dimension name (mirrors `sb_data::Dim`).
    pub name: String,
    /// Statically known or dynamic length.
    pub extent: Extent,
}

impl DimSpec {
    /// A dimension with a configuration-fixed extent.
    pub fn fixed(name: impl Into<String>, extent: usize) -> DimSpec {
        DimSpec {
            name: name.into(),
            extent: Extent::Fixed(extent),
        }
    }

    /// A dimension whose extent only the data determines.
    pub fn dynamic(name: impl Into<String>) -> DimSpec {
        DimSpec {
            name: name.into(),
            extent: Extent::Dynamic,
        }
    }
}

impl fmt::Display for DimSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.extent)
    }
}

/// The static description of one array: dimensions, element type and
/// per-dimension quantity labels — the analysis-time mirror of
/// `sb_data::VariableMeta`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    /// Dimensions, outermost first.
    pub dims: Vec<DimSpec>,
    /// Element type.
    pub dtype: DType,
    /// Per-dimension labels (dimension index → names along it).
    pub labels: BTreeMap<usize, Vec<String>>,
}

impl ArraySpec {
    /// A spec with the given dimensions and no labels.
    pub fn new(dims: Vec<DimSpec>, dtype: DType) -> ArraySpec {
        ArraySpec {
            dims,
            dtype,
            labels: BTreeMap::new(),
        }
    }

    /// Attaches labels along `dim` (builder style).
    pub fn with_dim_labels<S: Into<String>>(
        mut self,
        dim: usize,
        labels: impl IntoIterator<Item = S>,
    ) -> ArraySpec {
        self.labels
            .insert(dim, labels.into_iter().map(Into::into).collect());
        self
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Errors with [`SpecError::AxisOutOfBounds`] unless `dim` exists.
    pub fn check_dim(&self, dim: usize) -> Result<(), SpecError> {
        if dim < self.dims.len() {
            Ok(())
        } else {
            Err(SpecError::AxisOutOfBounds {
                axis: dim,
                ndims: self.dims.len(),
            })
        }
    }

    /// Total element count, if every extent is fixed.
    pub fn total_elements(&self) -> Option<usize> {
        self.dims.iter().try_fold(1usize, |acc, d| match d.extent {
            Extent::Fixed(n) => Some(acc * n),
            Extent::Dynamic => None,
        })
    }

    /// Statically known payload size of one step of this array, in bytes.
    pub fn payload_bytes(&self) -> Option<u64> {
        self.total_elements()
            .map(|n| n as u64 * self.dtype.elem_bytes() as u64)
    }
}

impl fmt::Display for ArraySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "] {}", self.dtype.name())
    }
}

/// What the analysis knows about one stream's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamSpec {
    /// Nothing is declared (closure components, file replays, multi-writer
    /// streams): downstream checks that need facts stay silent.
    Opaque,
    /// The full array map the writer declares (array name → spec).
    Known(BTreeMap<String, ArraySpec>),
}

impl StreamSpec {
    /// A known stream carrying exactly one array.
    pub fn known_one(array: impl Into<String>, spec: ArraySpec) -> StreamSpec {
        let mut map = BTreeMap::new();
        map.insert(array.into(), spec);
        StreamSpec::Known(map)
    }

    /// Looks up `name`: `Ok(None)` on an opaque stream, an
    /// [`SpecError::UnknownArray`] when the stream is known but lacks it.
    pub fn array(&self, name: &str) -> Result<Option<&ArraySpec>, SpecError> {
        match self {
            StreamSpec::Opaque => Ok(None),
            StreamSpec::Known(map) => match map.get(name) {
                Some(spec) => Ok(Some(spec)),
                None => Err(SpecError::UnknownArray {
                    array: name.to_string(),
                    available: map.keys().cloned().collect(),
                }),
            },
        }
    }
}

/// A contract violation a transfer function can detect statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The stream is declared but does not carry the requested array.
    UnknownArray {
        /// The missing array name.
        array: String,
        /// Arrays the stream does carry.
        available: Vec<String>,
    },
    /// A label (quantity name) is not present along the dimension.
    UnknownLabel {
        /// The labelled dimension.
        dim: usize,
        /// The missing label.
        label: String,
        /// Labels the dimension does carry.
        available: Vec<String>,
    },
    /// A dimension index exceeds the array's rank.
    AxisOutOfBounds {
        /// The out-of-range axis.
        axis: usize,
        /// The array's rank.
        ndims: usize,
    },
    /// The array's rank does not match the component's contract.
    RankMismatch {
        /// Rank the component requires.
        expected: usize,
        /// Rank the array has.
        got: usize,
    },
    /// Two inputs that must agree element-wise provably disagree.
    ShapeMismatch {
        /// Rendered left spec.
        left: String,
        /// Rendered right spec.
        right: String,
    },
    /// An axis list is malformed (bad permutation, self-referential
    /// dim-reduce, ...).
    InvalidAxes {
        /// What is wrong with it.
        detail: String,
    },
    /// More histogram bins than the input can ever have elements: most
    /// bins are guaranteed empty.
    DegenerateBins {
        /// Requested bin count.
        bins: usize,
        /// Statically known element count.
        elements: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownArray { array, available } => {
                write!(
                    f,
                    "array {array:?} is not produced on this stream (available: {available:?})"
                )
            }
            SpecError::UnknownLabel {
                dim,
                label,
                available,
            } => write!(
                f,
                "dimension {dim} carries no quantity named {label:?} (available: {available:?})"
            ),
            SpecError::AxisOutOfBounds { axis, ndims } => {
                write!(f, "axis {axis} is out of bounds for a {ndims}-d array")
            }
            SpecError::RankMismatch { expected, got } => {
                write!(f, "expected a {expected}-d array, got {got}-d")
            }
            SpecError::ShapeMismatch { left, right } => {
                write!(f, "input shapes disagree: {left} vs {right}")
            }
            SpecError::InvalidAxes { detail } => write!(f, "{detail}"),
            SpecError::DegenerateBins { bins, elements } => write!(
                f,
                "{bins} bins over at most {elements} elements leaves most bins empty"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// How a component partitions one input array among its ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionRule {
    /// Slab decomposition along a fixed dimension.
    Along(usize),
    /// The first dimension that is *not* the given one (the rule Select
    /// and Reduce use so the operated-on dimension stays whole per rank).
    FirstExcept(usize),
}

impl PartitionRule {
    /// The concrete dimension for an array of rank `ndims`, if any.
    pub fn resolve(&self, ndims: usize) -> Option<usize> {
        match *self {
            PartitionRule::Along(d) => (d < ndims).then_some(d),
            PartitionRule::FirstExcept(x) => (0..ndims).find(|&d| d != x),
        }
    }
}

/// One `(stream, array)` pair a component reads, with its partition rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSpec {
    /// Stream the array arrives on.
    pub stream: String,
    /// Array name within the stream.
    pub array: String,
    /// How the array is split among the component's ranks.
    pub partition: PartitionRule,
}

impl ReadSpec {
    /// Builds a read declaration.
    pub fn new(
        stream: impl Into<String>,
        array: impl Into<String>,
        partition: PartitionRule,
    ) -> ReadSpec {
        ReadSpec {
            stream: stream.into(),
            array: array.into(),
            partition,
        }
    }
}

/// Maps input stream specs (parallel to
/// [`Component::input_streams`](crate::Component::input_streams)) to
/// output stream specs (parallel to
/// [`Component::output_streams`](crate::Component::output_streams)).
pub type TransferFn =
    Box<dyn Fn(&[StreamSpec]) -> Result<Vec<StreamSpec>, SpecError> + Send + Sync>;

/// How many steps a component publishes on its output streams — the
/// step-rate half of a component's contract, propagated by the cadence
/// pass to find joins of provably different step rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepContract {
    /// Nothing is declared (closure components, file replays): cadence
    /// checks involving this component's outputs stay silent.
    Unknown,
    /// A source that produces exactly this many steps (a simulation with a
    /// configured `steps` count).
    Produces(u64),
    /// A transform that publishes one step per input step (every paper
    /// component).
    SameAsInput,
    /// A decimating transform that publishes one step per `n` input steps
    /// (`temporal-mean stride=n`).
    Decimates(u64),
}

/// A component's static contract: what it reads, how specs flow through
/// it, its output step rate, and whether it carries state across steps.
pub struct Signature {
    /// Declared input reads (used for over-decomposition checks).
    pub reads: Vec<ReadSpec>,
    /// Spec transfer function; `None` means the component is opaque and
    /// its outputs propagate as [`StreamSpec::Opaque`].
    pub transfer: Option<TransferFn>,
    /// Output step rate relative to the input (or absolute, for sources).
    pub steps: StepContract,
    /// True when the component carries state *across* steps (a temporal
    /// window): a supervisor restart silently loses that state, because
    /// upstream cannot replay already-committed steps.
    pub stateful: bool,
}

impl Signature {
    /// The default signature: nothing declared, outputs opaque.
    pub fn opaque() -> Signature {
        Signature {
            reads: Vec::new(),
            transfer: None,
            steps: StepContract::Unknown,
            stateful: false,
        }
    }

    /// A signature from reads and a transfer closure. The step contract
    /// defaults to [`StepContract::SameAsInput`] (one output step per
    /// input step), which the cadence pass ignores for components with no
    /// inputs — sources should declare [`StepContract::Produces`] via
    /// [`Signature::with_steps`].
    pub fn new<F>(reads: Vec<ReadSpec>, transfer: F) -> Signature
    where
        F: Fn(&[StreamSpec]) -> Result<Vec<StreamSpec>, SpecError> + Send + Sync + 'static,
    {
        Signature::with_boxed_transfer(reads, Box::new(transfer))
    }

    /// [`Signature::new`] for an already-boxed [`TransferFn`] (e.g. one
    /// built by [`unary_transfer`]).
    pub fn with_boxed_transfer(reads: Vec<ReadSpec>, transfer: TransferFn) -> Signature {
        Signature {
            reads,
            transfer: Some(transfer),
            steps: StepContract::SameAsInput,
            stateful: false,
        }
    }

    /// Overrides the step contract (builder style).
    pub fn with_steps(mut self, steps: StepContract) -> Signature {
        self.steps = steps;
        self
    }

    /// Marks the component as carrying cross-step state (builder style).
    pub fn with_stateful(mut self, stateful: bool) -> Signature {
        self.stateful = stateful;
        self
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signature")
            .field("reads", &self.reads)
            .field("transfer", &self.transfer.as_ref().map(|_| "<fn>"))
            .field("steps", &self.steps)
            .field("stateful", &self.stateful)
            .finish()
    }
}

/// A transfer function for the common one-input/one-output transform:
/// looks up `input_array` on the first input stream, applies `f` to its
/// spec, and publishes the result as `output_array`. Opaque inputs
/// propagate as opaque outputs.
pub fn unary_transfer<F>(input_array: String, output_array: String, f: F) -> TransferFn
where
    F: Fn(&ArraySpec) -> Result<ArraySpec, SpecError> + Send + Sync + 'static,
{
    Box::new(move |ins| match ins.first() {
        Some(stream) => match stream.array(&input_array)? {
            Some(spec) => Ok(vec![StreamSpec::known_one(output_array.clone(), f(spec)?)]),
            None => Ok(vec![StreamSpec::Opaque]),
        },
        None => Ok(vec![StreamSpec::Opaque]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_multiply_with_dynamic_absorbing() {
        assert_eq!(Extent::Fixed(3).times(Extent::Fixed(4)), Extent::Fixed(12));
        assert_eq!(Extent::Fixed(3).times(Extent::Dynamic), Extent::Dynamic);
        assert_eq!(Extent::Dynamic.times(Extent::Fixed(4)), Extent::Dynamic);
    }

    #[test]
    fn array_spec_renders_readably() {
        let spec = ArraySpec::new(
            vec![DimSpec::dynamic("particles"), DimSpec::fixed("props", 5)],
            DType::F64,
        );
        assert_eq!(spec.to_string(), "[particles=?, props=5] f64");
        assert_eq!(spec.total_elements(), None);
        assert_eq!(spec.payload_bytes(), None);
        let fixed = ArraySpec::new(vec![DimSpec::fixed("n", 6)], DType::U64);
        assert_eq!(fixed.total_elements(), Some(6));
        assert_eq!(fixed.payload_bytes(), Some(48));
    }

    #[test]
    fn stream_spec_lookup_distinguishes_opaque_from_missing() {
        assert_eq!(StreamSpec::Opaque.array("x"), Ok(None));
        let known = StreamSpec::known_one("x", ArraySpec::new(vec![], DType::F64));
        assert!(known.array("x").unwrap().is_some());
        assert!(matches!(
            known.array("y"),
            Err(SpecError::UnknownArray { array, available })
                if array == "y" && available == vec!["x".to_string()]
        ));
    }

    #[test]
    fn partition_rules_resolve_against_rank() {
        assert_eq!(PartitionRule::Along(1).resolve(3), Some(1));
        assert_eq!(PartitionRule::Along(3).resolve(3), None);
        assert_eq!(PartitionRule::FirstExcept(0).resolve(3), Some(1));
        assert_eq!(PartitionRule::FirstExcept(2).resolve(3), Some(0));
        assert_eq!(PartitionRule::FirstExcept(0).resolve(1), None);
    }

    #[test]
    fn signature_builders_set_the_new_contract_fields() {
        let sig = Signature::opaque();
        assert_eq!(sig.steps, StepContract::Unknown);
        assert!(!sig.stateful);
        let sig = Signature::new(Vec::new(), |_| Ok(Vec::new()))
            .with_steps(StepContract::Produces(7))
            .with_stateful(true);
        assert_eq!(sig.steps, StepContract::Produces(7));
        assert!(sig.stateful);
    }
}
