//! Regression pin for the workspace lock ranking (`gmm_service::ranks`).
//!
//! The runtime lock-rank detector in the compat `parking_lot` panics
//! the moment any thread acquires a ranked lock out of order, so this
//! test drives a workload across every ranked subsystem at once —
//! queue record shards, work/idle parking, watcher fan-out through an
//! outbox, the cache shards with spill, and the persistent store — and
//! then asserts the detector saw zero violations. Bring-up of the
//! ranking was clean (no inversions existed to fix); this pins that
//! state so a future nesting change that inverts an edge fails CI
//! loudly instead of deadlocking a daemon rarely.
//!
//! Debug builds only: the detector is compiled out of release.
#![cfg(debug_assertions)]

use gmm_design::DesignBuilder;
use gmm_service::events::Popped;
use gmm_service::{JobConfig, JobQueue, JobState, QueueOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gmm-lock-rank-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_instance(seed: u64) -> (gmm_design::Design, gmm_arch::Board) {
    let mut b = DesignBuilder::new(format!("rank-{seed}"));
    for s in 0..3 {
        b.segment(format!("s{s}"), 64 + 16 * (seed as u32 % 4), 8)
            .expect("segment");
    }
    (
        b.build().expect("design"),
        gmm_arch::Board::prototyping("XCV300", 2).expect("board"),
    )
}

#[test]
fn ranked_workload_records_zero_violations() {
    let dir = temp_dir("workload");
    // QueueOptions is non-exhaustive: default-then-assign.
    let mut opts = QueueOptions::default();
    opts.workers = 2;
    opts.cache_shards = 2;
    opts.cache_cap = 2; // force evictions → cache-shard → persist spill path
    opts.retain_jobs = 2;
    opts.persist_dir = Some(dir.clone());
    let queue = JobQueue::new(opts);

    // Watched submissions exercise record-shard → watchers → outbox
    // nesting; distinct seeds force solves (and evictions past cap 2).
    let outbox = queue.make_outbox(8);
    let subscription = queue.subscribe(outbox.clone());
    let mut jobs = Vec::new();
    for seed in 0..4u64 {
        let (design, board) = tiny_instance(seed);
        let t = queue.submit_watched(design, board, JobConfig::default(), None, &outbox, true);
        jobs.push(t.id);
    }
    // Drain the watch stream until every job is terminal, touching the
    // outbox lock from this thread while workers push into it.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut terminal = 0;
    while terminal < jobs.len() && Instant::now() < deadline {
        match outbox.pop(Some(Instant::now() + Duration::from_millis(200))) {
            Popped::Frame(frame) => {
                if let gmm_service::events::Frame::Event(gmm_service::JobEvent::State {
                    state,
                    ..
                }) = frame
                {
                    if !matches!(state, JobState::Queued | JobState::Running) {
                        terminal += 1;
                    }
                }
            }
            Popped::TimedOut => continue,
            Popped::Closed => break,
        }
    }
    assert_eq!(
        terminal,
        jobs.len(),
        "every watched job must reach a terminal state"
    );

    // Cache hit + poll/outcome/cancel paths for good measure.
    let (design, board) = tiny_instance(0);
    let hit = queue.submit(design, board, JobConfig::default());
    assert!(queue.wait(hit.id, Duration::from_secs(60)).is_some());
    let _ = queue.stats();
    queue.unsubscribe(subscription);
    queue.shutdown();
    drop(queue);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        parking_lot::detect::rank_violations(),
        0,
        "a ranked lock was acquired out of order somewhere in the workload"
    );
    assert_eq!(
        parking_lot::detect::deadlocks_detected(),
        0,
        "the wait-for graph found a cycle during the workload"
    );
    assert_eq!(
        parking_lot::detect::held_count(),
        0,
        "this thread leaked a lock guard"
    );
}
