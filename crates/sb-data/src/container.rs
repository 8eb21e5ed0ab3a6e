//! A versioned binary container for steps written to storage.
//!
//! The paper's future work (§VI) calls for components that "write and read
//! from storage as part of a workflow" to break the all-running-at-once
//! dependency. The FileWrite/FileRead SmartBlock components serialize steps
//! with this format:
//!
//! ```text
//! file  := magic "SBC1" | u32 version
//!          { "STEP" | u64 payload_len | payload }*
//! payload := u64 step_id | u32 nvars | var*
//! var   := meta | u64 nelems | raw little-endian payload
//! ```
//!
//! `meta` is the wire grammar of [`crate::wire`], encoded and decoded by the
//! same [`encode_meta`]/[`decode_meta`], so a step has one description
//! whether it goes to a file or a stream, and a file is parsed with the
//! wire decoder's guarantees against hostile input. All integers are
//! little-endian. Each step is length-prefixed so a reader can skip or
//! detect truncation cleanly.

use std::io::{Read, Write};

use crate::buffer::Buffer;
use crate::chunk::VariableMeta;
use crate::cursor::{fits, get_u32, get_u64, put_u32, put_u64, take, truncated};
use crate::error::{DataError, DataResult};
use crate::region::Region;
use crate::variable::Variable;
use crate::wire::{bounded, decode_meta, encode_meta, validated_payload_bytes};

const MAGIC: &[u8; 4] = b"SBC1";
const STEP_MARKER: &[u8; 4] = b"STEP";
const VERSION: u32 = 1;

/// Smallest encoded variable: an empty name, the dtype, zero dimensions,
/// zero headers, zero attributes and the element count.
const MIN_VAR_BYTES: usize = 4 + 1 + 2 + 4 + 4 + 8;

/// Streaming writer of steps to any `Write` sink.
pub struct ContainerWriter<W: Write> {
    sink: W,
    steps_written: u64,
}

impl<W: Write> ContainerWriter<W> {
    /// Creates a writer and emits the file header.
    pub fn new(mut sink: W) -> DataResult<ContainerWriter<W>> {
        sink.write_all(MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        Ok(ContainerWriter {
            sink,
            steps_written: 0,
        })
    }

    /// Appends one step holding `vars`.
    pub fn write_step(&mut self, step_id: u64, vars: &[Variable]) -> DataResult<()> {
        let mut payload =
            Vec::with_capacity(64 + vars.iter().map(|v| v.byte_len() + 128).sum::<usize>());
        put_u64(&mut payload, step_id);
        put_u32(&mut payload, fits(vars.len(), "variable count")?);
        for v in vars {
            encode_meta(&mut payload, &VariableMeta::describing(v))?;
            put_u64(&mut payload, v.data.len() as u64);
            v.data.append_le_bytes(&mut payload);
        }
        self.sink.write_all(STEP_MARKER)?;
        self.sink.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.sink.write_all(&payload)?;
        self.steps_written += 1;
        Ok(())
    }

    /// Number of steps written so far.
    pub fn steps_written(&self) -> u64 {
        self.steps_written
    }

    /// Flushes and returns the underlying sink.
    pub fn finish(mut self) -> DataResult<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streaming reader of steps from any `Read` source.
pub struct ContainerReader<R: Read> {
    source: R,
}

impl<R: Read> ContainerReader<R> {
    /// Creates a reader and validates the file header.
    pub fn new(mut source: R) -> DataResult<ContainerReader<R>> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(DataError::Container {
                detail: format!("bad magic {magic:?}"),
            });
        }
        let mut ver = [0u8; 4];
        source.read_exact(&mut ver)?;
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(DataError::Container {
                detail: format!("unsupported version {version}"),
            });
        }
        Ok(ContainerReader { source })
    }

    /// Reads the next step, or `None` at a clean end of file.
    pub fn next_step(&mut self) -> DataResult<Option<(u64, Vec<Variable>)>> {
        let mut marker = [0u8; 4];
        match self.source.read_exact(&mut marker) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        if &marker != STEP_MARKER {
            return Err(DataError::Container {
                detail: format!("bad step marker {marker:?}"),
            });
        }
        let mut len_bytes = [0u8; 8];
        self.source.read_exact(&mut len_bytes)?;
        let len = u64::from_le_bytes(len_bytes);
        // Grow the payload as bytes actually arrive instead of trusting the
        // length header with one allocation: a corrupt or hostile header
        // then fails with "truncated" rather than an OOM abort.
        let mut payload = Vec::new();
        std::io::Read::take(&mut self.source, len).read_to_end(&mut payload)?;
        if (payload.len() as u64) < len {
            return Err(truncated("step payload"));
        }
        let mut buf: &[u8] = &payload;

        let step_id = get_u64(&mut buf, "step id")?;
        let nvars = get_u32(&mut buf, "variable count")? as usize;
        let mut vars = Vec::with_capacity(bounded(nvars, buf.len(), MIN_VAR_BYTES));
        for _ in 0..nvars {
            let meta = decode_meta(&mut buf)?;
            let nelems = get_u64(&mut buf, "element count")? as usize;
            // A variable is a chunk covering its whole shape, and is
            // checked like one: a shape whose volume overflows is an error.
            let nbytes = validated_payload_bytes(&meta, &Region::whole(&meta.shape), nelems)?;
            let data =
                Buffer::from_le_bytes(meta.dtype, nelems, take(&mut buf, nbytes, "payload")?)?;
            let mut var = Variable::new(meta.name, meta.shape, data)?;
            var.labels = meta.labels;
            var.attrs = meta.attrs;
            vars.push(var);
        }
        Ok(Some((step_id, vars)))
    }

    /// Drains all remaining steps into a vector.
    pub fn read_all(&mut self) -> DataResult<Vec<(u64, Vec<Variable>)>> {
        let mut out = Vec::new();
        while let Some(step) = self.next_step()? {
            out.push(step);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Shape;
    use crate::variable::AttrValue;
    use std::io::Cursor;

    fn sample_var() -> Variable {
        Variable::new(
            "atoms",
            Shape::of(&[("particles", 2), ("props", 3)]),
            Buffer::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        .unwrap()
        .with_labels(1, &["vx", "vy", "vz"])
        .unwrap()
        .with_attr("units", AttrValue::Text("lj".into()))
        .with_attr("step_interval", AttrValue::Int(100))
        .with_attr("dt", AttrValue::Float(0.005))
    }

    #[test]
    fn round_trip_multiple_steps() {
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        let v = sample_var();
        let ids = Variable::new(
            "ids",
            Shape::linear("particles", 2),
            Buffer::U64(vec![7, 9]),
        )
        .unwrap();
        w.write_step(0, &[v.clone(), ids.clone()]).unwrap();
        w.write_step(5, std::slice::from_ref(&v)).unwrap();
        assert_eq!(w.steps_written(), 2);
        let bytes = w.finish().unwrap();

        let mut r = ContainerReader::new(Cursor::new(bytes)).unwrap();
        let all = r.read_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 0);
        assert_eq!(all[0].1, vec![v.clone(), ids]);
        assert_eq!(all[1].0, 5);
        assert_eq!(all[1].1, vec![v]);
    }

    #[test]
    fn empty_container_yields_no_steps() {
        let w = ContainerWriter::new(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ContainerReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.next_step().unwrap().is_none());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(ContainerReader::new(Cursor::new(b"NOPE\x01\x00\x00\x00".to_vec())).is_err());
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        assert!(ContainerReader::new(Cursor::new(bytes)).is_err());
    }

    #[test]
    fn detects_truncated_step() {
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.write_step(0, &[sample_var()]).unwrap();
        let bytes = w.finish().unwrap();
        // Cut the file mid-payload.
        let cut = &bytes[..bytes.len() - 10];
        let mut r = ContainerReader::new(Cursor::new(cut.to_vec())).unwrap();
        assert!(r.next_step().is_err());
    }

    #[test]
    fn float_attrs_round_trip_exactly() {
        let v = Variable::new("x", Shape::linear("n", 1), Buffer::F64(vec![0.0]))
            .unwrap()
            .with_attr("tiny", AttrValue::Float(1e-300))
            .with_attr("third", AttrValue::Float(1.0 / 3.0));
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.write_step(1, std::slice::from_ref(&v)).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ContainerReader::new(Cursor::new(bytes)).unwrap();
        let (_, vars) = r.next_step().unwrap().unwrap();
        assert_eq!(vars[0].attrs, v.attrs);
    }

    #[test]
    fn byte_layout_is_pinned() {
        // `sample_var()` as step 7, byte for byte: the container's framing
        // around one wire `meta`. Any change here breaks every file already
        // written.
        const GOLDEN: &[&str] = &[
            "53424331 01000000",                                      // magic, version 1
            "53544550 cf00000000000000",                              // "STEP", 207 payload bytes
            "0700000000000000 01000000",                              // step 7, one variable
            "05000000 61746f6d73 01",                                 // "atoms", f64
            "0200 09000000 7061727469636c6573 0200000000000000",      // 2 dims: particles 2
            "05000000 70726f7073 0300000000000000",                   // props 3
            "01000000 0100 03000000",                                 // 1 header: dim 1, 3 labels
            "02000000 7678 02000000 7679 02000000 767a",              // vx vy vz
            "03000000",                                               // 3 attrs, key order
            "02000000 6474 02 05000000 302e303035",                   // dt = float "0.005"
            "0d000000 737465705f696e74657276616c 01 03000000 313030", // step_interval = int "100"
            "05000000 756e697473 00 02000000 6c6a",                   // units = text "lj"
            "0600000000000000",                                       // 6 elements
            "000000000000f03f 0000000000000040 0000000000000840",
            "0000000000001040 0000000000001440 0000000000001840",
        ];
        let golden: Vec<u8> = GOLDEN
            .concat()
            .split_whitespace()
            .collect::<String>()
            .as_bytes()
            .chunks(2)
            .map(|h| u8::from_str_radix(std::str::from_utf8(h).unwrap(), 16).unwrap())
            .collect();
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.write_step(7, &[sample_var()]).unwrap();
        assert_eq!(w.finish().unwrap(), golden);
    }
}
