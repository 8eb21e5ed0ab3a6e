//! Multiple reader groups on one stream: the pub/sub fan-out that backs
//! DAG-shaped workflows without data duplication.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sb_data::{Buffer, Shape, Variable};
use sb_stream::tcp::TcpBroker;
use sb_stream::{StepStatus, StreamHub, WriterOptions};

fn step_variable(step: u64, n: usize) -> Variable {
    let data: Vec<f64> = (0..n).map(|i| (i as u64 * 100 + step) as f64).collect();
    Variable::new("x", Shape::linear("n", n), Buffer::from(data)).unwrap()
}

#[test]
fn two_groups_each_see_every_step() {
    let hub = StreamHub::new();
    hub.set_reader_groups("multi.fp", 2);
    let hub_w = Arc::clone(&hub);
    let writer = std::thread::spawn(move || {
        let mut w = hub_w.open_writer("multi.fp", 0, 1, WriterOptions::default());
        for step in 0..4u64 {
            w.begin_step().unwrap();
            w.put_whole(step_variable(step, 6));
            w.end_step().unwrap();
        }
        w.close();
    });

    let mut consumers = Vec::new();
    for group in ["analysis", "viz"] {
        let hub_r = Arc::clone(&hub);
        consumers.push(std::thread::spawn(move || {
            let mut r = hub_r.open_reader_grouped("multi.fp", group, 0, 1);
            assert_eq!(r.group(), group);
            let mut seen = Vec::new();
            while let StepStatus::Ready(step) = r.begin_step().unwrap() {
                let v = r.get_whole("x").unwrap();
                assert_eq!(v.data.get_f64(0), step as f64);
                seen.push(step);
                r.end_step();
            }
            seen
        }));
    }
    writer.join().unwrap();
    for c in consumers {
        assert_eq!(c.join().unwrap(), vec![0, 1, 2, 3]);
    }
}

#[test]
fn groups_can_have_different_rank_counts() {
    let hub = StreamHub::new();
    hub.set_reader_groups("g.fp", 2);
    let hub_w = Arc::clone(&hub);
    let writer = std::thread::spawn(move || {
        let mut w = hub_w.open_writer("g.fp", 0, 1, WriterOptions::default());
        for step in 0..3u64 {
            w.begin_step().unwrap();
            w.put_whole(step_variable(step, 12));
            w.end_step().unwrap();
        }
        w.close();
    });

    let mut handles = Vec::new();
    for (group, nranks) in [("three", 3usize), ("two", 2usize)] {
        let hub_g = Arc::clone(&hub);
        handles.push(
            sb_comm::LaunchHandle::spawn(group, nranks, move |comm| {
                let mut r = hub_g.open_reader_grouped("g.fp", group, comm.rank(), comm.size());
                let mut steps = 0u64;
                while let StepStatus::Ready(_) = r.begin_step().unwrap() {
                    let (off, count) =
                        sb_data::decompose::split_1d_part(12, comm.size(), comm.rank());
                    let v = r
                        .get("x", &sb_data::Region::new(vec![off], vec![count]))
                        .unwrap();
                    assert_eq!(v.data.len(), count);
                    r.end_step();
                    steps += 1;
                }
                steps
            })
            .unwrap(),
        );
    }
    writer.join().unwrap();
    for h in handles {
        assert!(h.join().unwrap().iter().all(|&s| s == 3));
    }
}

#[test]
fn slow_group_applies_backpressure_for_all() {
    // Queue capacity 2: the writer may run at most 2 steps ahead of the
    // *slowest* group even while a fast group keeps up.
    let hub = StreamHub::new();
    hub.set_reader_groups("bp.fp", 2);
    let committed = Arc::new(AtomicU64::new(0));
    let hub_w = Arc::clone(&hub);
    let committed_w = Arc::clone(&committed);
    let writer = std::thread::spawn(move || {
        let mut w = hub_w.open_writer("bp.fp", 0, 1, WriterOptions::buffered(2));
        for step in 0..5u64 {
            w.begin_step().unwrap();
            w.put_whole(step_variable(step, 4));
            w.end_step().unwrap();
            committed_w.fetch_add(1, Ordering::SeqCst);
        }
        w.close();
    });

    // Fast group drains immediately; slow group holds its first step.
    let hub_fast = Arc::clone(&hub);
    let fast = std::thread::spawn(move || {
        let mut r = hub_fast.open_reader_grouped("bp.fp", "fast", 0, 1);
        let mut steps = 0;
        while let StepStatus::Ready(_) = r.begin_step().unwrap() {
            r.end_step();
            steps += 1;
        }
        steps
    });
    let hub_slow = Arc::clone(&hub);
    let slow = std::thread::spawn(move || {
        let mut r = hub_slow.open_reader_grouped("bp.fp", "slow", 0, 1);
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        // Hold the step long enough for the writer to hit the cap.
        std::thread::sleep(Duration::from_millis(300));
        let ahead = r.stream_committed();
        r.end_step();
        let mut steps = 1;
        while let StepStatus::Ready(_) = r.begin_step().unwrap() {
            r.end_step();
            steps += 1;
        }
        (ahead, steps)
    });

    writer.join().unwrap();
    assert_eq!(fast.join().unwrap(), 5);
    let (ahead_while_held, steps) = slow.join().unwrap();
    assert_eq!(steps, 5);
    assert!(
        ahead_while_held <= 2,
        "writer committed {ahead_while_held} steps while the slow group held step 0 (cap 2)"
    );
}

#[test]
fn expected_groups_retain_steps_until_every_group_releases() {
    // Declaring two reader groups must hold every step until both groups
    // have subscribed AND released it — the first branch of
    // `front_fully_consumed`. Group "early" consumes the whole stream
    // before "late" even attaches; nothing may be dropped.
    let hub = StreamHub::new();
    hub.set_reader_groups("retain.fp", 2);
    let mut w = hub.open_writer("retain.fp", 0, 1, WriterOptions::buffered(8));
    for step in 0..3u64 {
        w.begin_step().unwrap();
        w.put_whole(step_variable(step, 4));
        w.end_step().unwrap();
    }
    w.close();

    let mut early = hub.open_reader_grouped("retain.fp", "early", 0, 1);
    for step in 0..3u64 {
        assert_eq!(early.begin_step().unwrap(), StepStatus::Ready(step));
        early.end_step();
    }
    assert_eq!(early.begin_step().unwrap(), StepStatus::EndOfStream);
    // Every step was released by "early", yet none may be popped: the
    // second declared group has not seen them.
    let m = hub.metrics("retain.fp").unwrap();
    assert_eq!(m.steps_committed, 3);
    assert_eq!(m.steps_consumed, 0, "steps dropped before group 2 attached");

    // The second group attaches after the fact and still sees everything.
    let mut late = hub.open_reader_grouped("retain.fp", "late", 0, 1);
    for step in 0..3u64 {
        assert_eq!(late.begin_step().unwrap(), StepStatus::Ready(step));
        let v = late.get_whole("x").unwrap();
        assert_eq!(v.data.get_f64(0), step as f64);
        late.end_step();
    }
    assert_eq!(late.begin_step().unwrap(), StepStatus::EndOfStream);
    assert_eq!(hub.metrics("retain.fp").unwrap().steps_consumed, 3);
}

#[test]
fn a_remote_writer_hello_carries_its_hubs_reader_group_count() {
    // The writer's hub declares two groups; its hello carries the count to
    // the broker, which then holds each step until both groups released
    // it, though the first group drains the stream before the second
    // attaches. The broker's own hub declares nothing.
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let writer_hub = StreamHub::connect(&broker.url()).unwrap();
    writer_hub.set_reader_groups("held.fp", 2);
    let mut w = writer_hub.open_writer("held.fp", 0, 1, WriterOptions::buffered(8));
    for step in 0..3u64 {
        w.begin_step().unwrap();
        w.put_whole(step_variable(step, 4));
        w.end_step().unwrap();
    }
    w.close();

    let reader_hub = StreamHub::connect(&broker.url()).unwrap();
    let mut first = reader_hub.open_reader_grouped("held.fp", "first", 0, 1);
    for step in 0..3u64 {
        assert_eq!(first.begin_step().unwrap(), StepStatus::Ready(step));
        first.end_step();
    }
    assert_eq!(first.begin_step().unwrap(), StepStatus::EndOfStream);
    let consumed = || broker.hub().metrics("held.fp").unwrap().steps_consumed;
    assert_eq!(
        consumed(),
        0,
        "the broker dropped steps the second group never saw"
    );

    let mut second = broker.hub().open_reader_grouped("held.fp", "second", 0, 1);
    for step in 0..3u64 {
        assert_eq!(second.begin_step().unwrap(), StepStatus::Ready(step));
        assert_eq!(second.get_whole("x").unwrap().data.get_f64(0), step as f64);
        second.end_step();
    }
    assert_eq!(second.begin_step().unwrap(), StepStatus::EndOfStream);
    assert_eq!(consumed(), 3);
}

#[test]
fn front_pops_only_when_every_subscribed_group_releases() {
    // The per-group release branch of `front_fully_consumed`: once two
    // groups subscribe, one releasing a step is not enough to pop it.
    let hub = StreamHub::new();
    hub.set_reader_groups("joint.fp", 2);
    let mut w = hub.open_writer("joint.fp", 0, 1, WriterOptions::buffered(8));
    let mut a = hub.open_reader_grouped("joint.fp", "a", 0, 1);
    let mut b = hub.open_reader_grouped("joint.fp", "b", 0, 1);
    for step in 0..2u64 {
        w.begin_step().unwrap();
        w.put_whole(step_variable(step, 4));
        w.end_step().unwrap();
    }

    assert_eq!(a.begin_step().unwrap(), StepStatus::Ready(0));
    a.end_step();
    assert_eq!(
        hub.metrics("joint.fp").unwrap().steps_consumed,
        0,
        "step 0 popped with group \"b\" still holding it"
    );

    assert_eq!(b.begin_step().unwrap(), StepStatus::Ready(0));
    b.end_step();
    assert_eq!(hub.metrics("joint.fp").unwrap().steps_consumed, 1);

    w.close();
    for r in [&mut a, &mut b] {
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(1));
        r.end_step();
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
    }
    assert_eq!(hub.metrics("joint.fp").unwrap().steps_consumed, 2);
}

#[test]
fn late_group_starts_at_the_current_front() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("late.fp", 0, 1, WriterOptions::buffered(8));
    // First group consumes two steps before the late group attaches.
    let mut first = hub.open_reader_grouped("late.fp", "first", 0, 1);
    for step in 0..3u64 {
        w.begin_step().unwrap();
        w.put_whole(step_variable(step, 4));
        w.end_step().unwrap();
    }
    for _ in 0..2 {
        assert!(matches!(first.begin_step().unwrap(), StepStatus::Ready(_)));
        first.end_step();
    }
    // Steps 0 and 1 are gone; the late group sees the stream from step 2.
    let mut late = hub.open_reader_grouped("late.fp", "late", 0, 1);
    assert_eq!(late.begin_step().unwrap(), StepStatus::Ready(2));
    let v = late.get_whole("x").unwrap();
    assert_eq!(v.data.get_f64(0), 2.0);
    late.end_step();
    w.close();
    assert_eq!(late.begin_step().unwrap(), StepStatus::EndOfStream);
    assert_eq!(first.begin_step().unwrap(), StepStatus::Ready(2));
    first.end_step();
    assert_eq!(first.begin_step().unwrap(), StepStatus::EndOfStream);
}
