//! The Fork component: one input stream replicated onto several output
//! streams — the paper's §VI future-work enabler for DAG-shaped workflows
//! ("leverage ADIOS' ability to have several 'write groups' so as to allow
//! for the development of a Fork component").
//!
//! Fork copies *every* variable of each step to every output stream; each
//! rank forwards its partition, so downstream components still enjoy full
//! MxN re-partitioning freedom.

use std::sync::Arc;
use std::time::Duration;

use sb_comm::Communicator;
use sb_data::Chunk;
use sb_stream::StreamHub;

use crate::analysis::PartitionRule;
use crate::component::{run_steps, Component, StepEnd};
use crate::error::ComponentResult;

/// The Fork workflow component. It declares no reads and keeps a
/// hand-written step: it forwards every array of the step, whatever the
/// stream carries.
#[derive(Debug, Clone)]
pub struct Fork {
    /// Input stream name (all arrays are forwarded).
    pub input: String,
    /// Output stream names; each receives a full copy of every step.
    pub outputs: Vec<String>,
}

impl Fork {
    /// Builds a Fork from `input` onto `outputs`.
    pub fn new<I, O>(input: I, outputs: O) -> Fork
    where
        I: Into<String>,
        O: IntoIterator,
        O::Item: Into<String>,
    {
        let outputs: Vec<String> = outputs.into_iter().map(Into::into).collect();
        assert!(!outputs.is_empty(), "fork needs at least one output stream");
        Fork {
            input: input.into(),
            outputs,
        }
    }
}

impl Component for Fork {
    fn label(&self) -> String {
        "fork".into()
    }

    fn input_streams(&self) -> Vec<String> {
        vec![self.input.clone()]
    }

    fn output_streams(&self) -> Vec<String> {
        self.outputs.clone()
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{Signature, StreamSpec};
        // Fork replicates whole steps (no partitioning of its own), so it
        // declares no reads; every output carries the input's spec.
        let n = self.outputs.len();
        Signature::new(Vec::new(), move |ins| {
            let spec = ins.first().cloned().unwrap_or(StreamSpec::Opaque);
            Ok(vec![spec; n])
        })
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        // A fork feeding a join needs a buffered writer policy: under
        // rendezvous the join is a cyclic wait even though every output is
        // staged before any is committed.
        run_steps(self, comm, hub, |io| {
            // Read this rank's partition of every variable once, then
            // stage it on every output.
            let (size, rank) = (io.comm.size(), io.comm.rank());
            let reader = &io.inputs[0];
            let mut bytes_in = 0u64;
            for name in reader.variables() {
                let meta = io.meta(0, &name)?.clone();
                let Some(region) = PartitionRule::Along(0).region(&meta.shape, size, rank) else {
                    continue;
                };
                let var = reader.get(&name, &region)?;
                bytes_in += var.byte_len() as u64;
                let chunk = Chunk::new(meta, region, var.data)?;
                for output in 0..self.outputs.len() {
                    io.put(output, chunk.clone());
                }
            }
            Ok(StepEnd::Publish {
                bytes_in,
                compute: Duration::ZERO,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let f = Fork::new("in.fp", ["a.fp", "b.fp"]);
        assert_eq!(f.outputs.len(), 2);
        assert_eq!(f.label(), "fork");
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn empty_outputs_rejected() {
        let _ = Fork::new("in.fp", Vec::<String>::new());
    }
}
