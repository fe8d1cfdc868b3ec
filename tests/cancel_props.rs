//! Cancellation-safety soak for the batch queue.
//!
//! Cancels jobs at arbitrary points in their lifecycle — before a worker
//! claims them, mid-solve, after completion, concurrently from another
//! thread — while tight random deadlines fire, and asserts the queue's
//! invariants hold throughout:
//!
//! * live cache entries never exceed the configured cap;
//! * `CacheStats` stays truthful (exactly one hit-or-miss per submission);
//! * no waiter wedges: `wait_idle` drains and per-id `wait` returns;
//! * every issued id answers a *structured* state on poll/result —
//!   cancelled ids included — never a hang, panic, or "unknown job".

use std::sync::Arc;
use std::time::Duration;

use gmm_service::{JobConfig, JobQueue, JobState, QueueOptions};
use gmm_workloads::{cycling_instances, slow_table3_instance, StreamSpec};

const CACHE_CAP: usize = 6;
const DISTINCT: usize = 12;
const SUBMISSIONS: usize = 60;

/// Deterministic xorshift — the soak's schedule is seeded; the *timing*
/// randomness comes from real thread interleaving.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn cancelling_at_arbitrary_points_never_violates_queue_invariants() {
    let queue = Arc::new(JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 4;
        o.cache_shards = 4;
        o.cache_cap = CACHE_CAP;
        o.retain_jobs = 0; // keep every record so every id stays pollable
        o
    }));
    let mut rng = Rng(0xDECAF_C0FFEE);
    let mut ids: Vec<u64> = Vec::new();

    // A concurrent canceller racing the submission loop: fires at ids it
    // reads from a shared log, at whatever point their jobs happen to be.
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    let canceller = {
        let queue = queue.clone();
        std::thread::spawn(move || {
            let mut structured = 0u32;
            while let Ok(id) = rx.recv() {
                // Cancel must always answer a structured state for
                // issued ids, whatever phase the job is in.
                let state = queue.cancel(id).expect("issued id answers cancel");
                assert!(
                    matches!(
                        state,
                        JobState::Queued
                            | JobState::Running
                            | JobState::Done
                            | JobState::Failed
                            | JobState::Cancelled
                            | JobState::Deadline
                    ),
                    "unstructured cancel answer {state:?}"
                );
                structured += 1;
            }
            structured
        })
    };

    // Mix fast cycling instances (cache churn) with a few slow ones
    // (mid-solve cancels), random tight deadlines, and random cancels.
    let mut submitted = 0u64;
    for (i, inst) in cycling_instances(StreamSpec::default(), DISTINCT)
        .take(SUBMISSIONS)
        .enumerate()
    {
        let deadline = match rng.next() % 4 {
            0 => Some(Duration::from_millis(rng.next() % 20)),
            _ => None,
        };
        let t = queue.submit_with_deadline(inst.design, inst.board, JobConfig::default(), deadline);
        ids.push(t.id);
        submitted += 1;

        if i % 6 == 0 {
            // Second-scale instance so some cancels land mid-solve.
            let (design, board) = slow_table3_instance();
            let t = queue.submit_with_deadline(
                design,
                board,
                JobConfig::default(),
                // Half the slow jobs also get a deadline they will hit.
                rng.next()
                    .is_multiple_of(2)
                    .then(|| Duration::from_millis(50)),
            );
            ids.push(t.id);
            submitted += 1;
        }
        // Cancel an arbitrary earlier job (often already terminal, often
        // queued, sometimes running) from the racing thread.
        if rng.next().is_multiple_of(3) {
            let victim = ids[(rng.next() as usize) % ids.len()];
            tx.send(victim).expect("canceller alive");
        }
        if rng.next().is_multiple_of(8) {
            std::thread::sleep(Duration::from_millis(rng.next() % 4));
        }

        // Mid-run invariants.
        let s = queue.stats();
        assert!(
            s.cache_entries <= CACHE_CAP as u64,
            "cache overflow mid-run: {} > {CACHE_CAP}",
            s.cache_entries
        );
    }
    drop(tx);
    let cancels_issued = canceller.join().expect("canceller thread");
    assert!(cancels_issued > 0, "the soak must actually cancel things");

    // No wedged condvar waiters: the queue drains.
    assert!(
        queue.wait_idle(Duration::from_secs(300)),
        "queue failed to drain after cancellations"
    );

    // Counters are conserved and the cache stayed truthful.
    let s = queue.stats();
    assert_eq!(s.jobs_submitted, submitted);
    assert_eq!(
        s.jobs_completed + s.jobs_failed + s.jobs_cancelled + s.jobs_deadline,
        submitted,
        "every job must land in exactly one terminal counter: {s:?}"
    );
    assert_eq!(
        s.cache_hits + s.cache_misses,
        submitted,
        "exactly one cache hit-or-miss per submission: {s:?}"
    );
    assert!(s.cache_entries <= CACHE_CAP as u64);

    // Every issued id answers a structured terminal state on poll, result
    // *and* wait (which must return instantly on a terminal job).
    for &id in &ids {
        let state = queue.poll(id).expect("issued ids never read as unknown");
        assert!(state.is_terminal(), "job {id} stuck in {state:?}");
        let out = queue
            .wait(id, Duration::from_millis(250))
            .expect("wait answers terminal ids");
        assert!(out.state.is_terminal());
        match out.state {
            JobState::Cancelled => {
                assert!(
                    out.solution_json.is_none(),
                    "cancelled jobs ship no payload"
                );
                assert!(out.error.is_some(), "cancelled jobs explain themselves");
            }
            JobState::Done => assert!(out.solution_json.is_some()),
            JobState::Failed | JobState::Deadline => assert!(out.error.is_some()),
            other => panic!("job {id}: unexpected terminal state {other:?}"),
        }
    }
}
