//! Concurrency edge cases of the streaming layer: topic lifecycle misuse,
//! multi-consumer fan-out under threads, and panic propagation through
//! stage handles.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use streamproc::{spawn_stage, Topic};

#[test]
fn publish_after_close_panics_with_topic_name() {
    let t: Topic<u32> = Topic::new("lifecycle");
    t.publish(1);
    t.close();
    let err = catch_unwind(AssertUnwindSafe(|| t.publish(2))).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("lifecycle"), "panic names the topic: {msg}");
    assert_eq!(t.published(), 1, "the rejected publish is not counted");
}

#[test]
fn multiple_consumers_each_see_the_full_stream() {
    // Broadcast semantics: every subscriber gets every message, in order,
    // even when the consumers drain concurrently from their own threads.
    let t: Topic<u64> = Topic::new("broadcast");
    let consumers: Vec<_> = (0..4).map(|_| t.subscribe()).collect();
    let drainers: Vec<_> =
        consumers.into_iter().map(|c| thread::spawn(move || c.drain())).collect();
    let producer = {
        let t = t.clone();
        thread::spawn(move || {
            for i in 0..2_000u64 {
                t.publish(i);
            }
            t.close();
        })
    };
    producer.join().unwrap();
    for d in drainers {
        let got = d.join().unwrap();
        assert_eq!(got.len(), 2_000);
        assert!(got.windows(2).all(|w| w[0] + 1 == w[1]), "in publish order");
    }
    assert_eq!(t.published(), 2_000);
}

#[test]
fn stage_panic_propagates_through_join() {
    let src: Topic<u32> = Topic::new("src");
    let out: Topic<u32> = Topic::new("out");
    let stage = spawn_stage("faulty", src.subscribe(), out, |x| {
        if x == 3 {
            panic!("stage choked on {x}");
        }
        vec![x]
    });
    for i in 0..10 {
        src.publish(i);
    }
    src.close();
    let err = catch_unwind(AssertUnwindSafe(move || stage.join())).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("stage choked"), "payload survives the handoff: {msg}");
}
