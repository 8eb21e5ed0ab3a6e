//! # sb-data — a self-describing multi-dimensional data model
//!
//! The SmartBlock paper builds on ADIOS: simulation output is packed into
//! linear buffers, described by named dimensions in a small XML group
//! configuration, annotated with per-dimension *quantity labels* ("headers"),
//! and read back through bounding-box selections. Downstream components use
//! this self-description to discover, at run time, the number of dimensions,
//! their sizes and names, and the labelled quantities inside them.
//!
//! This crate provides that data model from scratch:
//!
//! * [`DType`]/[`Buffer`] — typed linear storage with safe element access
//!   and lossless round-trips through `f64` compute kernels;
//! * [`Shape`]/[`Dim`] — named dimensions with row-major stride arithmetic;
//! * [`Region`] — bounding boxes with intersection/containment algebra and
//!   block copies between differently-shaped buffers (the MxN primitive);
//! * [`Variable`]/[`Chunk`] — a global self-describing array and a writer's
//!   local portion of one;
//! * [`decompose`] — the even block decompositions components use to split
//!   incoming data among their ranks;
//! * [`config`] — the ADIOS-XML-style output group description;
//! * [`container`] — a versioned binary container for steps written to disk
//!   by the file components;
//! * [`wire`] — the chunk frame codec shared by streaming transports (the
//!   TCP backend frames steps with it), including the protocol-v2 meta
//!   interning tables;
//! * [`compress`] — the dependency-free LZ77 block codec v2 frames can
//!   apply per chunk payload;
//! * [`signal`] — the scalar signal board reactive workflow triggers
//!   observe (latest `(component, signal)` values plus a synchronous hook).

pub mod buffer;
pub mod chunk;
pub mod compress;
pub mod config;
pub mod container;
pub mod decompose;
pub mod dims;
pub mod error;
pub mod region;
pub mod signal;
pub mod variable;
pub mod wire;

pub use buffer::{AllocationId, Buffer, DType, SharedBuffer};
pub use chunk::{Chunk, VariableMeta};
pub use config::{GroupConfig, VarConfig};
pub use dims::{Dim, Shape};
pub use error::{DataError, DataResult};
pub use region::Region;
pub use variable::{AttrValue, Variable};
