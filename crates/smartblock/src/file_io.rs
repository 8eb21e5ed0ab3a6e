//! File endpoint components: storage-decoupled workflows (paper §VI).
//!
//! "Introducing new components that write and read from storage as part of
//! a workflow can break that dependency" — the dependency being that all
//! components of an in situ workflow must run simultaneously. [`FileWrite`]
//! drains a stream into the versioned `sb-data` container format;
//! [`FileRead`] replays a container file as a stream. A workflow can
//! therefore be split into phases that run at different times.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::container::{ContainerReader, ContainerWriter};
use sb_data::{Chunk, VariableMeta};
use sb_stream::StreamHub;

use crate::analysis::PartitionRule;
use crate::component::{run_steps, workflow_label, Component, StepEnd};
use crate::error::{ComponentError, ComponentResult, StepResult};

/// Drains an input stream to a container file (an endpoint component).
///
/// Rank 0 gathers each step's full variables through bounding-box reads and
/// appends them to the file; other ranks pace the stream. The output of a
/// workflow stage is thus a single self-contained artifact.
#[derive(Debug, Clone)]
pub struct FileWrite {
    /// Input stream name (all arrays are persisted).
    pub input: String,
    /// Container file path.
    pub path: PathBuf,
}

impl FileWrite {
    /// Builds a FileWrite draining `input` into `path`.
    pub fn new(input: impl Into<String>, path: impl Into<PathBuf>) -> FileWrite {
        FileWrite {
            input: input.into(),
            path: path.into(),
        }
    }
}

impl Component for FileWrite {
    fn label(&self) -> String {
        "file-write".into()
    }

    fn input_streams(&self) -> Vec<String> {
        vec![self.input.clone()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let label = workflow_label(self);
        let mut writer = if comm.rank() == 0 {
            let open = (|| -> StepResult<_> {
                let file =
                    std::fs::File::create(&self.path).map_err(|e| sb_data::DataError::Io {
                        detail: format!("cannot create {:?}: {e}", self.path),
                    })?;
                Ok(ContainerWriter::new(std::io::BufWriter::new(file))?)
            })();
            match open {
                Ok(w) => Some(w),
                Err(e) => return Err(ComponentError::from_step(&label, 0, e)),
            }
        } else {
            None
        };
        let stats = run_steps(self, comm, hub, |io| {
            let mut bytes_in = 0u64;
            let start = Instant::now();
            if let Some(w) = writer.as_mut() {
                let reader = &io.inputs[0];
                let mut vars = Vec::new();
                for name in reader.variables() {
                    let var = reader.get_whole(&name)?;
                    bytes_in += var.byte_len() as u64;
                    vars.push(var);
                }
                w.write_step(io.step, &vars)?;
            }
            Ok(StepEnd::Publish {
                bytes_in,
                compute: start.elapsed(),
            })
        })?;
        if let Some(w) = writer {
            let flush = (|| -> StepResult<()> {
                let mut sink = w.finish()?;
                use std::io::Write;
                sink.flush().map_err(|e| sb_data::DataError::Io {
                    detail: format!("flushing {:?}: {e}", self.path),
                })?;
                Ok(())
            })();
            if let Err(e) = flush {
                return Err(ComponentError::from_step(&label, stats.steps, e));
            }
        }
        Ok(stats)
    }
}

/// Replays a container file as a stream (a source component).
///
/// Every rank opens the file independently (no communication) and
/// contributes its slab of each variable along dimension 0 (a scalar from
/// rank 0 alone), so downstream
/// components see exactly the stream shape an in situ producer would have
/// given them — self-description, labels and attributes included.
#[derive(Debug, Clone)]
pub struct FileRead {
    /// Container file path.
    pub path: PathBuf,
    /// Output stream name.
    pub output: String,
}

impl FileRead {
    /// Builds a FileRead replaying `path` onto `output`.
    pub fn new(path: impl Into<PathBuf>, output: impl Into<String>) -> FileRead {
        FileRead {
            path: path.into(),
            output: output.into(),
        }
    }
}

impl Component for FileRead {
    fn label(&self) -> String {
        "file-read".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.clone()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let open = (|| -> StepResult<_> {
            let file = std::fs::File::open(&self.path).map_err(|e| sb_data::DataError::Io {
                detail: format!("cannot open {:?}: {e}", self.path),
            })?;
            Ok(ContainerReader::new(std::io::BufReader::new(file))?)
        })();
        let mut container = match open {
            Ok(c) => c,
            Err(e) => return Err(ComponentError::from_step(&workflow_label(self), 0, e)),
        };
        run_steps(self, comm, hub, |io| {
            let start = Instant::now();
            let Some((_, vars)) = container.next_step()? else {
                return Ok(StepEnd::Done);
            };
            let (size, rank) = (io.comm.size(), io.comm.rank());
            for var in vars {
                let Some(region) = PartitionRule::Along(0).region(&var.shape, size, rank) else {
                    continue;
                };
                let meta = VariableMeta::describing(&var);
                let local = var.extract(&region)?;
                io.put(0, Chunk::new(meta, region, local.data)?);
            }
            Ok(StepEnd::Publish {
                bytes_in: 0,
                compute: start.elapsed(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let w = FileWrite::new("s.fp", "/tmp/x.sbc");
        assert_eq!(w.label(), "file-write");
        assert_eq!(w.input, "s.fp");
        let r = FileRead::new("/tmp/x.sbc", "replay.fp");
        assert_eq!(r.label(), "file-read");
        assert_eq!(r.output, "replay.fp");
    }
}
