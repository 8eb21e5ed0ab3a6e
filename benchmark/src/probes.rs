//! Single-threaded layer probes: each times one public function of one
//! layer on the captured frames, so a layer's cost is known apart from the
//! pipeline's scheduling. A probe result is the median over the frames of
//! the cost of one whole step (every writer chunk of the frame).

use std::hint::black_box;
use std::time::Instant;

use sb_data::compress::{lz_compress, lz_decompress};
use sb_data::decompose::slab_partition;
use sb_data::wire::{
    decode_chunk_interned, encode_chunk_interned, Compression, MetaDefs, MetaInternTable,
};
use sb_data::Chunk;
use sb_stream::{StepStatus, StreamHub, WriterOptions};
use smartblock::histogram::bin_counts;
use smartblock::magnitude::vector_magnitudes;
use smartblock::select::select_rows;

use crate::capture::{lammps_keep_indices, variable_of, Capture, Code, BINS};
use crate::pipeline::Shape;
use crate::stats::median;

/// Per-step costs of the layers a step crosses, in nanoseconds unless named
/// otherwise.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `sb-data::wire`: `encode_chunk_interned`, uncompressed.
    pub encode_ns: f64,
    /// `sb-data::wire`: `decode_chunk_interned` of the same bytes.
    pub decode_ns: f64,
    /// Encoded size of one step, bytes.
    pub frame_bytes: f64,
    /// `sb-data::compress`: `lz_compress` of the step's raw payload.
    pub lz_compress_ns: f64,
    pub lz_decompress_ns: f64,
    /// Raw bytes over compressed bytes on the real frames.
    pub lz_ratio: f64,
    /// `sb-data::region`/`buffer` through `StreamReader::get`: the source
    /// stream's consumer ranks each reading their box on an in-proc hub.
    pub assemble_ns: f64,
    /// Kernels; `select_rows` is 0 where the pipeline has no Select.
    pub select_rows_ns: f64,
    pub vector_magnitudes_ns: f64,
    pub bin_counts_ns: f64,
}

fn ns_of(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// Runs every probe over `cap`'s frames, chunked as `shape`'s source writes
/// them and read as `shape`'s first component reads them. A first pass is
/// thrown away: on a cold allocator every multi-megabyte buffer is fresh
/// pages, and the page faults would be billed to whichever layer touches
/// them first.
pub fn run(cap: &Capture, shape: &Shape) -> Probes {
    let _cold = pass(cap, shape);
    pass(cap, shape)
}

fn pass(cap: &Capture, shape: &Shape) -> Probes {
    let steps = cap.writer_chunks(shape.source_ranks);
    let consumer_ranks = match shape.code {
        Code::Lammps => shape.select_ranks,
        Code::Gromacs => shape.magnitude_ranks,
    };
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut frame_bytes = Vec::new();
    let mut compress = Vec::new();
    let mut decompress = Vec::new();
    let mut ratio = Vec::new();
    for chunks in &steps {
        let (e, d, bytes) = wire_probe(chunks);
        encode.push(e);
        decode.push(d);
        frame_bytes.push(bytes);
        let (c, x, r) = lz_probe(chunks);
        compress.push(c);
        decompress.push(x);
        ratio.push(r);
    }
    let assemble = assemble_probe(cap.code, &steps, consumer_ranks);
    let mut select = Vec::new();
    let mut magnitude = Vec::new();
    let mut bins = Vec::new();
    for frame in &cap.frames {
        let (s, m, b) = kernel_probe(cap.code, frame);
        select.push(s);
        magnitude.push(m);
        bins.push(b);
    }
    Probes {
        encode_ns: median(&encode),
        decode_ns: median(&decode),
        frame_bytes: median(&frame_bytes),
        lz_compress_ns: median(&compress),
        lz_decompress_ns: median(&decompress),
        lz_ratio: median(&ratio),
        assemble_ns: median(&assemble),
        select_rows_ns: median(&select),
        vector_magnitudes_ns: median(&magnitude),
        bin_counts_ns: median(&bins),
    }
}

/// Encode then decode one step's chunks as a v2 connection would: metadata
/// interned once, defs applied before the first chunk.
fn wire_probe(chunks: &[Chunk]) -> (f64, f64, f64) {
    let mut table = MetaInternTable::new();
    let ids: Vec<u32> = chunks
        .iter()
        .map(|c| table.intern(&c.meta).expect("captured metadata interns"))
        .collect();
    let mut def_bytes = Vec::new();
    let ndefs = table.append_defs_since(0, &mut def_bytes);
    let mut defs = MetaDefs::new();
    let mut cursor = &def_bytes[..];
    for _ in 0..ndefs {
        defs.decode_def(&mut cursor)
            .expect("own definitions decode");
    }

    let mut buf = Vec::new();
    let encode = ns_of(|| {
        for (chunk, id) in chunks.iter().zip(&ids) {
            encode_chunk_interned(&mut buf, chunk, *id, Compression::None)
                .expect("captured chunks encode");
        }
    });
    let decode = ns_of(|| {
        let mut cursor = &buf[..];
        for _ in chunks {
            black_box(decode_chunk_interned(&mut cursor, &defs).expect("own encoding decodes"));
        }
    });
    (encode, decode, buf.len() as f64)
}

fn lz_probe(chunks: &[Chunk]) -> (f64, f64, f64) {
    let raws: Vec<Vec<u8>> = chunks.iter().map(|c| c.data.to_le_bytes()).collect();
    let mut packed = Vec::new();
    let compress = ns_of(|| {
        for raw in &raws {
            packed.push(lz_compress(raw));
        }
    });
    let decompress = ns_of(|| {
        for (p, raw) in packed.iter().zip(&raws) {
            black_box(lz_decompress(p, raw.len()).expect("own compression decompresses"));
        }
    });
    let raw_len: usize = raws.iter().map(Vec::len).sum();
    let packed_len: usize = packed.iter().map(Vec::len).sum();
    (
        compress,
        decompress,
        raw_len as f64 / packed_len.max(1) as f64,
    )
}

/// One step written by the source's ranks and read back as the consumer's
/// ranks read it, all on this thread; only the `get` calls are timed.
fn assemble_probe(code: Code, steps: &[Vec<Chunk>], readers: usize) -> Vec<f64> {
    let hub = StreamHub::new();
    let writers = steps[0].len();
    let mut ws: Vec<_> = (0..writers)
        .map(|r| hub.open_writer("probe.fp", r, writers, WriterOptions::default()))
        .collect();
    let mut rs: Vec<_> = (0..readers)
        .map(|r| hub.open_reader("probe.fp", r, readers))
        .collect();
    let shape = steps[0][0].meta.shape.clone();
    let mut out = Vec::new();
    for chunks in steps {
        for w in &mut ws {
            w.begin_step().expect("probe stream has room");
        }
        for (w, chunk) in ws.iter_mut().zip(chunks) {
            w.put(chunk.clone());
            w.end_step().expect("probe step commits");
        }
        let mut ns = 0.0;
        for (rank, r) in rs.iter_mut().enumerate() {
            assert!(matches!(r.begin_step(), Ok(StepStatus::Ready(_))));
            let region = slab_partition(&shape, 0, readers, rank);
            ns += ns_of(|| {
                black_box(r.get(code.array(), &region).expect("probe box assembles"));
            });
            r.end_step();
        }
        out.push(ns);
    }
    for w in &mut ws {
        w.close();
    }
    out
}

fn kernel_probe(code: Code, frame: &Chunk) -> (f64, f64, f64) {
    let var = variable_of(frame);
    let mut select_ns = 0.0;
    let input = match code {
        Code::Lammps => {
            let keep =
                lammps_keep_indices(&var).expect("captured frames carry the velocity labels");
            let mut selected = None;
            select_ns =
                ns_of(|| selected = Some(select_rows(&var, 1, &keep).expect("select kernel")));
            selected.expect("select ran")
        }
        Code::Gromacs => var,
    };
    let mut mags = Vec::new();
    let magnitude_ns = ns_of(|| mags = vector_magnitudes(&input).expect("magnitude kernel"));
    let (min, max) = mags
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    let bins_ns = ns_of(|| {
        black_box(bin_counts(&mags, min, max, BINS));
    });
    (select_ns, magnitude_ns, bins_ns)
}
