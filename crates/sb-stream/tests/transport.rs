//! Transport behaviour tests: the four FlexPath properties the paper's
//! components rely on, exercised with real thread-ranks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sb_comm::LaunchHandle;
use sb_data::decompose::{slab_partition, split_1d_part};
use sb_data::{Buffer, Chunk, DType, Region, Shape, Variable, VariableMeta};
use sb_stream::{StepStatus, StreamError, StreamHub, WriterOptions};

/// A 2-d test variable whose element (i, j) equals `1000*i + j`, making
/// reassembly failures pinpointable.
fn tagged_variable(name: &str, rows: usize, cols: usize) -> Variable {
    let data: Vec<f64> = (0..rows * cols)
        .map(|lin| ((lin / cols) * 1000 + lin % cols) as f64)
        .collect();
    Variable::new(
        name,
        Shape::of(&[("rows", rows), ("cols", cols)]),
        Buffer::from(data),
    )
    .unwrap()
}

#[test]
fn single_writer_single_reader_three_steps() {
    let hub = StreamHub::new();
    let hub_w = Arc::clone(&hub);
    let hub_r = Arc::clone(&hub);

    let writer = std::thread::spawn(move || {
        let mut w = hub_w.open_writer("lmp.fp", 0, 1, WriterOptions::default());
        for step in 0..3u64 {
            w.begin_step().unwrap();
            let mut var = tagged_variable("atoms", 4, 5);
            var.set_labels(
                1,
                vec![
                    "ID".into(),
                    "Type".into(),
                    "vx".into(),
                    "vy".into(),
                    "vz".into(),
                ],
            )
            .unwrap();
            var.attrs
                .insert("step".into(), sb_data::AttrValue::Int(step as i64));
            w.put_whole(var);
            w.end_step().unwrap();
        }
        w.close();
    });

    let reader = std::thread::spawn(move || {
        let mut r = hub_r.open_reader("lmp.fp", 0, 1);
        let mut steps = 0u64;
        while let StepStatus::Ready(s) = r.begin_step().unwrap() {
            assert_eq!(s, steps);
            assert_eq!(r.variables(), vec!["atoms".to_string()]);
            let meta = r.meta("atoms").unwrap();
            assert_eq!(meta.shape.ndims(), 2);
            assert_eq!(meta.shape.sizes(), vec![4, 5]);
            assert_eq!(meta.resolve_label(1, "vx").unwrap(), 2);
            let v = r.get_whole("atoms").unwrap();
            assert_eq!(v.get(&[3, 4]), 3004.0);
            assert_eq!(v.attrs["step"], sb_data::AttrValue::Int(steps as i64));
            r.end_step();
            steps += 1;
        }
        assert_eq!(steps, 3);
    });

    writer.join().unwrap();
    reader.join().unwrap();
}

#[test]
fn mxn_redistribution_reassembles_exactly() {
    // 4 writer ranks each own a row-block of a 37x8 array; 3 reader ranks
    // each read their own (different) row-block. Every reader box straddles
    // writer boundaries.
    let rows = 37;
    let cols = 8;
    let hub = StreamHub::new();
    let source = tagged_variable("field", rows, cols);
    let shape = source.shape.clone();

    let hub_w = Arc::clone(&hub);
    let src_w = source.clone();
    let writers = LaunchHandle::spawn("writers", 4, move |comm| {
        let mut w = hub_w.open_writer(
            "field.fp",
            comm.rank(),
            comm.size(),
            WriterOptions::default(),
        );
        let region = slab_partition(&src_w.shape, 0, comm.size(), comm.rank());
        let local = src_w.extract(&region).unwrap();
        let meta = VariableMeta::new("field", src_w.shape.clone(), DType::F64);
        w.begin_step().unwrap();
        w.put(Chunk::new(meta, region, local.data).unwrap());
        w.end_step().unwrap();
        w.close();
    })
    .unwrap();

    let hub_r = Arc::clone(&hub);
    let shape_r = shape.clone();
    let readers = LaunchHandle::spawn("readers", 3, move |comm| {
        let mut r = hub_r.open_reader("field.fp", comm.rank(), comm.size());
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        let region = slab_partition(&shape_r, 0, comm.size(), comm.rank());
        let v = r.get("field", &region).unwrap();
        r.end_step();
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
        (region, v)
    })
    .unwrap();

    writers.join().unwrap();
    let parts = readers.join().unwrap();
    // Stitch the three reader boxes back together and compare to source.
    let mut rebuilt = Buffer::zeros(DType::F64, shape.total_len());
    let whole = Region::whole(&shape);
    for (region, v) in parts {
        sb_data::region::copy_region(&v.data, &region, &mut rebuilt, &whole, &region).unwrap();
    }
    assert_eq!(rebuilt, source.data);
}

#[test]
fn launch_order_does_not_matter() {
    // Reader attaches long before any writer exists, and vice versa.
    for writer_first in [true, false] {
        let hub = StreamHub::new();
        let hub_w = Arc::clone(&hub);
        let hub_r = Arc::clone(&hub);
        let (first_delay, second_delay) = if writer_first {
            (Duration::ZERO, Duration::from_millis(100))
        } else {
            (Duration::from_millis(100), Duration::ZERO)
        };

        let writer = std::thread::spawn(move || {
            std::thread::sleep(first_delay);
            let mut w = hub_w.open_writer("s.fp", 0, 1, WriterOptions::default());
            w.begin_step().unwrap();
            w.put_whole(tagged_variable("x", 2, 2));
            w.end_step().unwrap();
            w.close();
        });
        let reader = std::thread::spawn(move || {
            std::thread::sleep(second_delay);
            let mut r = hub_r.open_reader("s.fp", 0, 1);
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
            let v = r.get_whole("x").unwrap();
            assert_eq!(v.get(&[1, 1]), 1001.0);
            r.end_step();
            assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
        });
        writer.join().unwrap();
        reader.join().unwrap();
    }
}

#[test]
fn bounded_queue_applies_backpressure() {
    let hub = StreamHub::new();
    let committed = Arc::new(AtomicU64::new(0));
    let hub_w = Arc::clone(&hub);
    let committed_w = Arc::clone(&committed);

    let writer = std::thread::spawn(move || {
        let mut w = hub_w.open_writer("bp.fp", 0, 1, WriterOptions::buffered(2));
        for _ in 0..6 {
            w.begin_step().unwrap();
            w.put_whole(tagged_variable("x", 2, 2));
            w.end_step().unwrap();
            committed_w.fetch_add(1, Ordering::SeqCst);
        }
        w.close();
    });

    // Give the writer time to run ahead; with capacity 2 it must stall
    // after buffering two steps (begin of step 2 blocks).
    std::thread::sleep(Duration::from_millis(200));
    let ahead = committed.load(Ordering::SeqCst);
    assert!(
        ahead <= 2,
        "writer ran {ahead} steps ahead despite capacity 2"
    );

    let mut r = hub.open_reader("bp.fp", 0, 1);
    let mut steps = 0;
    while let StepStatus::Ready(_) = r.begin_step().unwrap() {
        r.get_whole("x").unwrap();
        r.end_step();
        steps += 1;
    }
    assert_eq!(steps, 6);
    writer.join().unwrap();
}

#[test]
fn rendezvous_blocks_until_consumed() {
    let hub = StreamHub::new();
    let finished = Arc::new(AtomicU64::new(0));
    let hub_w = Arc::clone(&hub);
    let finished_w = Arc::clone(&finished);

    let writer = std::thread::spawn(move || {
        let mut w = hub_w.open_writer("rv.fp", 0, 1, WriterOptions::rendezvous());
        w.begin_step().unwrap();
        w.put_whole(tagged_variable("x", 2, 2));
        w.end_step().unwrap(); // must block until the reader consumes the step
        finished_w.store(1, Ordering::SeqCst);
        w.close();
    });

    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        finished.load(Ordering::SeqCst),
        0,
        "rendezvous end_step returned before any reader consumed the step"
    );

    let mut r = hub.open_reader("rv.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
    r.end_step();
    writer.join().unwrap();
    assert_eq!(finished.load(Ordering::SeqCst), 1);
}

#[test]
fn immediate_close_yields_end_of_stream() {
    let hub = StreamHub::new();
    {
        let mut w = hub.open_writer("empty.fp", 0, 1, WriterOptions::default());
        w.close();
    }
    let mut r = hub.open_reader("empty.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
}

#[test]
fn writer_drop_closes_the_stream() {
    let hub = StreamHub::new();
    {
        let mut w = hub.open_writer("dropped.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(tagged_variable("x", 1, 1));
        w.end_step().unwrap();
        // No explicit close: Drop must close.
    }
    let mut r = hub.open_reader("dropped.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
    r.end_step();
    assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
}

#[test]
fn get_errors_are_reported() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("err.fp", 0, 1, WriterOptions::default());
    // Writer only covers rows 0..2 of a declared 4-row array.
    let meta = VariableMeta::new(
        "partial",
        Shape::of(&[("rows", 4), ("cols", 2)]),
        DType::F64,
    );
    w.begin_step().unwrap();
    w.put(
        Chunk::new(
            meta,
            Region::new(vec![0, 0], vec![2, 2]),
            Buffer::F64(vec![0.0; 4]),
        )
        .unwrap(),
    );
    w.end_step().unwrap();

    let mut r = hub.open_reader("err.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
    // Unknown variable.
    assert!(r.get("nope", &Region::new(vec![0, 0], vec![1, 1])).is_err());
    // Region outside the global shape.
    assert!(r
        .get("partial", &Region::new(vec![0, 0], vec![5, 2]))
        .is_err());
    // Region inside the shape but not covered by any writer chunk.
    assert!(r.get_whole("partial").is_err());
    // Covered region succeeds.
    assert!(r
        .get("partial", &Region::new(vec![0, 0], vec![2, 2]))
        .is_ok());
    r.end_step();
    w.close();
}

#[test]
fn multiple_variables_per_step() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("multi.fp", 0, 1, WriterOptions::default());
    w.begin_step().unwrap();
    w.put_whole(tagged_variable("a", 2, 3));
    w.put_whole(
        Variable::new("ids", Shape::linear("n", 4), Buffer::U64(vec![1, 2, 3, 4])).unwrap(),
    );
    w.end_step().unwrap();
    w.close();

    let mut r = hub.open_reader("multi.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
    assert_eq!(r.variables(), vec!["a".to_string(), "ids".to_string()]);
    assert_eq!(r.meta("ids").unwrap().dtype, DType::U64);
    let ids = r.get_whole("ids").unwrap();
    assert_eq!(ids.data, Buffer::U64(vec![1, 2, 3, 4]));
    r.end_step();
}

#[test]
fn labels_are_sliced_to_the_read_box() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("lbl.fp", 0, 1, WriterOptions::default());
    let var = tagged_variable("atoms", 3, 5)
        .with_labels(1, &["ID", "Type", "vx", "vy", "vz"])
        .unwrap();
    w.begin_step().unwrap();
    w.put_whole(var);
    w.end_step().unwrap();
    w.close();

    let mut r = hub.open_reader("lbl.fp", 0, 1);
    r.begin_step().unwrap();
    let v = r
        .get("atoms", &Region::new(vec![0, 2], vec![3, 3]))
        .unwrap();
    assert_eq!(
        v.header(1).unwrap(),
        &["vx".to_string(), "vy".into(), "vz".into()]
    );
    r.end_step();
}

#[test]
fn many_writer_ranks_split_along_one_dim() {
    // 5 writers each contribute a 1-d slice computed with split_1d_part,
    // exercising empty chunks (len 12 over 5 parts leaves none empty, so
    // use len 3 over 5 to get two empty writers).
    let hub = StreamHub::new();
    let hub_w = Arc::clone(&hub);
    let writers = LaunchHandle::spawn("w", 5, move |comm| {
        let mut w = hub_w.open_writer(
            "thin.fp",
            comm.rank(),
            comm.size(),
            WriterOptions::default(),
        );
        let (off, count) = split_1d_part(3, comm.size(), comm.rank());
        let meta = VariableMeta::new("v", Shape::linear("n", 3), DType::F64);
        w.begin_step().unwrap();
        if count > 0 {
            let data: Vec<f64> = (off..off + count).map(|i| i as f64 * 10.0).collect();
            w.put(
                Chunk::new(
                    meta,
                    Region::new(vec![off], vec![count]),
                    Buffer::from(data),
                )
                .unwrap(),
            );
        }
        w.end_step().unwrap();
        w.close();
    })
    .unwrap();

    let mut r = hub.open_reader("thin.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
    let v = r.get_whole("v").unwrap();
    assert_eq!(v.data, Buffer::F64(vec![0.0, 10.0, 20.0]));
    r.end_step();
    writers.join().unwrap();
}

#[test]
fn metrics_count_bytes_and_steps() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("m.fp", 0, 1, WriterOptions::default());
    for _ in 0..2 {
        w.begin_step().unwrap();
        w.put_whole(tagged_variable("x", 2, 2)); // 4 f64 = 32 bytes
        w.end_step().unwrap();
    }
    w.close();
    let mut r = hub.open_reader("m.fp", 0, 1);
    while let StepStatus::Ready(_) = r.begin_step().unwrap() {
        r.get_whole("x").unwrap();
        r.end_step();
    }
    let m = hub.metrics("m.fp").unwrap();
    assert_eq!(m.bytes_written, 64);
    assert_eq!(m.bytes_read, 64);
    assert_eq!(m.steps_committed, 2);
    assert_eq!(m.steps_consumed, 2);
    assert!(hub.metrics("absent").is_none());
    assert_eq!(hub.stream_names(), vec!["m.fp".to_string()]);
    assert_eq!(hub.all_metrics().len(), 1);
}

#[test]
fn deadlock_returns_typed_timeout() {
    let hub = StreamHub::with_timeout(Duration::from_millis(100));
    let mut r = hub.open_reader("never.fp", 0, 1);
    // No writer will ever appear: the blocked read must surface as a typed
    // error (never a panic) carrying the stream name and a state snapshot.
    let err = r.begin_step().unwrap_err();
    match &err {
        StreamError::Timeout { stream, .. } => assert_eq!(stream, "never.fp"),
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(err.to_string().contains("timed out"));
}

#[test]
fn whole_read_shares_the_writers_allocation() {
    // The exact-cover fast path: one writer chunk covering the whole array
    // is served to every reader group by Arc clone — same allocation, no
    // copies, no zero-fill.
    let hub = StreamHub::new();
    hub.set_reader_groups("zc.fp", 2);
    let shape = Shape::of(&[("rows", 16), ("cols", 8)]);
    let payload = sb_data::SharedBuffer::from(Buffer::F64(
        (0..shape.total_len()).map(|i| i as f64).collect(),
    ));
    let mut w = hub.open_writer("zc.fp", 0, 1, WriterOptions::default());
    w.begin_step().unwrap();
    let meta = VariableMeta::new("field", shape.clone(), DType::F64);
    w.put(Chunk::new(meta, Region::whole(&shape), payload.clone()).unwrap());
    w.end_step().unwrap();
    w.close();

    for group in ["a", "b"] {
        let mut r = hub.open_reader_grouped("zc.fp", group, 0, 1);
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        let v = r.get_whole("field").unwrap();
        assert!(
            sb_data::SharedBuffer::shares_allocation(&payload, &v.data),
            "group {group}: whole-read returned a copy instead of sharing the writer's buffer"
        );
        assert_eq!(v.get(&[3, 4]), 28.0);
        r.end_step();
    }

    let m = hub.metrics("zc.fp").unwrap();
    assert_eq!(m.copies_elided, 2, "one elision per reader group");
    assert_eq!(m.bytes_copied, 0, "payload bytes copied on the fast path");
    assert_eq!(
        m.bytes_read,
        2 * 16 * 8 * 8,
        "bytes served are still counted"
    );
}

#[test]
fn tiling_slab_reads_skip_the_zero_fill() {
    // Two writer row-blocks tile the reader's whole-array request: the box
    // is assembled by appending the two runs, never zero-filling first.
    let rows = 10;
    let cols = 4;
    let source = tagged_variable("field", rows, cols);
    let hub = StreamHub::new();
    let hub_w = Arc::clone(&hub);
    let src_w = source.clone();
    LaunchHandle::spawn("writers", 2, move |comm| {
        let mut w = hub_w.open_writer(
            "slab.fp",
            comm.rank(),
            comm.size(),
            WriterOptions::default(),
        );
        let region = slab_partition(&src_w.shape, 0, comm.size(), comm.rank());
        let local = src_w.extract(&region).unwrap();
        let meta = VariableMeta::new("field", src_w.shape.clone(), DType::F64);
        w.begin_step().unwrap();
        w.put(Chunk::new(meta, region, local.data).unwrap());
        w.end_step().unwrap();
        w.close();
    })
    .unwrap()
    .join()
    .unwrap();

    let mut r = hub.open_reader("slab.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
    let v = r.get_whole("field").unwrap();
    assert_eq!(v.data, source.data);

    // A row subrange straddling both chunks is also slab-assembled.
    let band = Region::new(vec![3, 0], vec![4, cols]);
    let b = r.get("field", &band).unwrap();
    assert_eq!(b.get(&[0, 0]), 3000.0);
    assert_eq!(b.get(&[3, 3]), 6003.0);
    r.end_step();

    let m = hub.metrics("slab.fp").unwrap();
    assert_eq!(m.zero_fills_elided, 2, "both reads should tile from slabs");
    assert_eq!(
        m.copies_elided, 0,
        "no single chunk exactly covers either box"
    );
    assert_eq!(m.bytes_copied, (rows * cols + 4 * cols) as u64 * 8);
}

#[test]
fn strided_column_read_still_assembles_correctly() {
    // A column band is NOT a row slab (strided in memory): it must fall
    // back to the general path and still produce exact data.
    let hub = StreamHub::new();
    let mut w = hub.open_writer("col.fp", 0, 1, WriterOptions::default());
    w.begin_step().unwrap();
    w.put_whole(tagged_variable("x", 5, 7));
    w.end_step().unwrap();
    w.close();

    let mut r = hub.open_reader("col.fp", 0, 1);
    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
    let band = Region::new(vec![0, 2], vec![5, 3]);
    let v = r.get("x", &band).unwrap();
    for i in 0..5 {
        for j in 0..3 {
            assert_eq!(v.get(&[i, j]), (i * 1000 + j + 2) as f64);
        }
    }
    r.end_step();

    let m = hub.metrics("col.fp").unwrap();
    assert_eq!(m.copies_elided, 0);
    assert_eq!(m.zero_fills_elided, 0);
    assert_eq!(m.bytes_copied, 5 * 3 * 8);
}
