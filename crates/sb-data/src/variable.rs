//! A self-describing global array: shape, payload, quantity headers, and
//! free-form attributes.

use std::collections::BTreeMap;

use crate::buffer::{Buffer, DType, SharedBuffer};
use crate::dims::Shape;
use crate::error::{DataError, DataResult};
use crate::region::{copy_region, Region};

/// A free-form metadata attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A text attribute.
    Text(String),
    /// An integer attribute.
    Int(i64),
    /// A floating-point attribute.
    Float(f64),
}

/// A fully materialized, self-describing array.
///
/// Carries everything a downstream SmartBlock component needs to operate
/// without recompilation: named dimensions, the element type, optional
/// per-dimension *headers* (quantity labels, §III-C of the paper), and
/// attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Array name within its stream.
    pub name: String,
    /// Named, row-major dimensions.
    pub shape: Shape,
    /// The linear payload; `data.len() == shape.total_len()`. Arc-backed so
    /// forwarding a variable through the stream shares the allocation.
    pub data: SharedBuffer,
    /// Quantity headers: `labels[&dim]` names the rows of dimension `dim`.
    pub labels: BTreeMap<usize, Vec<String>>,
    /// Free-form attributes.
    pub attrs: BTreeMap<String, AttrValue>,
}

impl Variable {
    /// Builds a variable, validating payload length against the shape.
    ///
    /// Accepts an owned [`Buffer`] (wrapped without copying) or an existing
    /// [`SharedBuffer`] (shared by reference count).
    pub fn new(
        name: impl Into<String>,
        shape: Shape,
        data: impl Into<SharedBuffer>,
    ) -> DataResult<Variable> {
        let data = data.into();
        if data.len() != shape.total_len() {
            return Err(DataError::ShapeMismatch {
                data_len: data.len(),
                shape_len: shape.total_len(),
            });
        }
        Ok(Variable {
            name: name.into(),
            shape,
            data,
            labels: BTreeMap::new(),
            attrs: BTreeMap::new(),
        })
    }

    /// Attaches a quantity header to dimension `dim` (builder style).
    ///
    /// The header length must equal the dimension's extent: every row gets a
    /// name.
    pub fn with_labels(mut self, dim: usize, names: &[&str]) -> DataResult<Variable> {
        self.set_labels(dim, names.iter().map(|s| s.to_string()).collect())?;
        Ok(self)
    }

    /// Attaches a quantity header to dimension `dim`.
    pub fn set_labels(&mut self, dim: usize, names: Vec<String>) -> DataResult<()> {
        self.shape.check_dim(dim)?;
        if names.len() != self.shape.size(dim) {
            return Err(DataError::ShapeMismatch {
                data_len: names.len(),
                shape_len: self.shape.size(dim),
            });
        }
        self.labels.insert(dim, names);
        Ok(())
    }

    /// Attaches an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: AttrValue) -> Variable {
        self.attrs.insert(key.into(), value);
        self
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// The header of dimension `dim`, if one was attached.
    pub fn header(&self, dim: usize) -> Option<&[String]> {
        self.labels.get(&dim).map(|v| v.as_slice())
    }

    /// Resolves quantity `label` to its row index within dimension `dim`.
    pub fn resolve_label(&self, dim: usize, label: &str) -> DataResult<usize> {
        let header = self
            .labels
            .get(&dim)
            .ok_or(DataError::MissingHeader { dim })?;
        header
            .iter()
            .position(|n| n == label)
            .ok_or_else(|| DataError::NoSuchLabel {
                label: label.to_string(),
                dim,
            })
    }

    /// Element at the multi-index `idx`, widened to `f64`.
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data.get_f64(self.shape.linear_index(idx))
    }

    /// Extracts `region` as a new variable covering only that box.
    pub fn extract(&self, region: &Region) -> DataResult<Variable> {
        region.validate(&self.shape)?;
        let whole = Region::whole(&self.shape);
        let mut out = Buffer::zeros(self.dtype(), region.len());
        copy_region(&self.data, &whole, &mut out, region, region)?;
        let shape = region.local_shape(&self.shape);
        // Headers survive extraction only for dimensions taken whole; a
        // partial slice of a labelled dimension keeps the covered labels.
        let mut labels = BTreeMap::new();
        for (&dim, names) in &self.labels {
            let lo = region.offset()[dim];
            let hi = region.end(dim);
            labels.insert(dim, names[lo..hi].to_vec());
        }
        Ok(Variable {
            name: self.name.clone(),
            shape,
            data: out.into(),
            labels,
            attrs: self.attrs.clone(),
        })
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particles() -> Variable {
        // 3 particles x 5 properties, mirroring the LAMMPS output layout.
        let data: Vec<f64> = (0..15).map(|i| i as f64).collect();
        Variable::new(
            "atoms",
            Shape::of(&[("particles", 3), ("props", 5)]),
            Buffer::from(data),
        )
        .unwrap()
        .with_labels(1, &["ID", "Type", "vx", "vy", "vz"])
        .unwrap()
        .with_attr("units", AttrValue::Text("lj".into()))
    }

    #[test]
    fn construction_validates_length() {
        let bad = Variable::new(
            "x",
            Shape::of(&[("a", 2), ("b", 2)]),
            Buffer::F64(vec![1.0; 3]),
        );
        assert!(matches!(bad, Err(DataError::ShapeMismatch { .. })));
    }

    #[test]
    fn labels_resolve_by_name() {
        let v = particles();
        assert_eq!(v.resolve_label(1, "vx").unwrap(), 2);
        assert_eq!(v.resolve_label(1, "vz").unwrap(), 4);
        assert!(matches!(
            v.resolve_label(1, "pressure"),
            Err(DataError::NoSuchLabel { .. })
        ));
        assert!(matches!(
            v.resolve_label(0, "vx"),
            Err(DataError::MissingHeader { dim: 0 })
        ));
    }

    #[test]
    fn label_length_must_match_extent() {
        let v = Variable::new("x", Shape::of(&[("a", 3)]), Buffer::F64(vec![0.0; 3])).unwrap();
        assert!(v.with_labels(0, &["one", "two"]).is_err());
    }

    #[test]
    fn get_indexes_row_major() {
        let v = particles();
        assert_eq!(v.get(&[0, 0]), 0.0);
        assert_eq!(v.get(&[1, 2]), 7.0);
        assert_eq!(v.get(&[2, 4]), 14.0);
    }

    #[test]
    fn extract_subregion_with_labels() {
        let v = particles();
        // Keep particles 1..3, properties 2..5 (the velocity columns).
        let r = Region::new(vec![1, 2], vec![2, 3]);
        let sub = v.extract(&r).unwrap();
        assert_eq!(sub.shape, Shape::of(&[("particles", 2), ("props", 3)]));
        assert_eq!(sub.get(&[0, 0]), 7.0);
        assert_eq!(sub.get(&[1, 2]), 14.0);
        assert_eq!(
            sub.header(1).unwrap(),
            &["vx".to_string(), "vy".into(), "vz".into()]
        );
        assert_eq!(sub.attrs["units"], AttrValue::Text("lj".into()));
    }

    #[test]
    fn extract_rejects_oversized_region() {
        let v = particles();
        let r = Region::new(vec![0, 0], vec![4, 5]);
        assert!(v.extract(&r).is_err());
    }
}
