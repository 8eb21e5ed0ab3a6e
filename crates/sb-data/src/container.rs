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
//! var   := str name | u8 dtype | u16 ndims | { str dim_name | u64 size }*
//!          | u32 nheaders | { u16 dim | u32 n | str* }*
//!          | u32 nattrs | { str key | u8 kind | str value }*
//!          | u64 nelems | raw little-endian payload
//! str   := u32 byte_len | utf-8 bytes
//! ```
//!
//! All integers are little-endian. Each step is length-prefixed so a reader
//! can skip or detect truncation cleanly.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use bytes::{Buf, BufMut};

use crate::buffer::{Buffer, DType};
use crate::dims::{Dim, Shape};
use crate::error::{DataError, DataResult};
use crate::variable::{AttrValue, Variable};
use crate::wire::{get_str, put_str, truncated};

const MAGIC: &[u8; 4] = b"SBC1";
const STEP_MARKER: &[u8; 4] = b"STEP";
const VERSION: u32 = 1;

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
        payload.put_u64_le(step_id);
        payload.put_u32_le(vars.len() as u32);
        for v in vars {
            put_str(&mut payload, &v.name)?;
            payload.put_u8(v.dtype().tag());
            payload.put_u16_le(v.shape.ndims() as u16);
            for d in v.shape.dims() {
                put_str(&mut payload, &d.name)?;
                payload.put_u64_le(d.size as u64);
            }
            payload.put_u32_le(v.labels.len() as u32);
            for (&dim, names) in &v.labels {
                payload.put_u16_le(dim as u16);
                payload.put_u32_le(names.len() as u32);
                for n in names {
                    put_str(&mut payload, n)?;
                }
            }
            payload.put_u32_le(v.attrs.len() as u32);
            for (k, a) in &v.attrs {
                put_str(&mut payload, k)?;
                let (kind, text) = match a {
                    AttrValue::Text(s) => (0u8, s.clone()),
                    AttrValue::Int(i) => (1u8, i.to_string()),
                    AttrValue::Float(x) => (2u8, format!("{x:?}")),
                };
                payload.put_u8(kind);
                put_str(&mut payload, &text)?;
            }
            payload.put_u64_le(v.data.len() as u64);
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

        if buf.remaining() < 12 {
            return Err(truncated("step header"));
        }
        let step_id = buf.get_u64_le();
        let nvars = buf.get_u32_le() as usize;
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let name = get_str(&mut buf)?;
            if buf.remaining() < 3 {
                return Err(truncated("variable header"));
            }
            let dtype = DType::from_tag(buf.get_u8())?;
            let ndims = buf.get_u16_le() as usize;
            let mut dims = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                let dname = get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(truncated("dimension size"));
                }
                dims.push(Dim::new(dname, buf.get_u64_le() as usize));
            }
            let shape = Shape::new(dims);
            if buf.remaining() < 4 {
                return Err(truncated("header count"));
            }
            let nheaders = buf.get_u32_le() as usize;
            let mut labels = BTreeMap::new();
            for _ in 0..nheaders {
                if buf.remaining() < 6 {
                    return Err(truncated("header entry"));
                }
                let dim = buf.get_u16_le() as usize;
                let n = buf.get_u32_le() as usize;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(get_str(&mut buf)?);
                }
                labels.insert(dim, names);
            }
            if buf.remaining() < 4 {
                return Err(truncated("attr count"));
            }
            let nattrs = buf.get_u32_le() as usize;
            let mut attrs = BTreeMap::new();
            for _ in 0..nattrs {
                let key = get_str(&mut buf)?;
                if buf.remaining() < 1 {
                    return Err(truncated("attr kind"));
                }
                let kind = buf.get_u8();
                let text = get_str(&mut buf)?;
                let value = match kind {
                    0 => AttrValue::Text(text),
                    1 => AttrValue::Int(text.parse().map_err(|_| DataError::Container {
                        detail: format!("bad int attr {text:?}"),
                    })?),
                    2 => AttrValue::Float(text.parse().map_err(|_| DataError::Container {
                        detail: format!("bad float attr {text:?}"),
                    })?),
                    k => {
                        return Err(DataError::Container {
                            detail: format!("unknown attr kind {k}"),
                        })
                    }
                };
                attrs.insert(key, value);
            }
            if buf.remaining() < 8 {
                return Err(truncated("element count"));
            }
            let nelems = buf.get_u64_le() as usize;
            if nelems != shape.total_len() {
                return Err(DataError::Container {
                    detail: format!(
                        "variable {name:?}: payload count {nelems} != shape {}",
                        shape.total_len()
                    ),
                });
            }
            let nbytes = nelems * dtype.elem_bytes();
            if buf.remaining() < nbytes {
                return Err(truncated("payload"));
            }
            let data = Buffer::from_le_bytes(dtype, nelems, &buf[..nbytes])?;
            buf.advance(nbytes);
            let mut var = Variable::new(name, shape, data)?;
            var.labels = labels;
            var.attrs = attrs;
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
}
