//! Model: the job queue's dispatch and claim protocol — a submitter
//! feeding one FIFO job list plus two workers parked on its condvar,
//! with a cancel racing the first claim — rebuilt closed over the
//! compat `parking_lot` primitives so the explorer can drive every
//! push, pop, park and wakeup.
//!
//! This is the same submit/claim/cancel/finish/shutdown choreography as
//! `gmm_service::queue::JobQueue`: push under the list lock then
//! `notify_one`; a worker pops the front, or parks with the predicate
//! (list empty, not shut down) re-checked under the same lock; claim
//! under the record lock; the submitter waits for the queue to go idle
//! and then shuts it down (flag set under the list lock, `notify_all`).
//! Shrunk to three jobs so the bounded DFS can cover it.
//!
//! Invariants asserted over every interleaving:
//! * every job ends terminal exactly once — done or cancelled, never
//!   both, never lost, never double-claimed;
//! * terminal counters conserve the job count;
//! * both workers terminate (no lost wakeup on the park path).

use crate::explore::ModelRun;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const JOBS: usize = 3;
const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;
const CANCELLED: u8 = 3;

struct Shared {
    jobs: Mutex<VecDeque<usize>>,
    work_cond: Condvar,
    /// Written under the `jobs` lock.
    shutdown: AtomicBool,
    records: Mutex<[u8; JOBS]>,
    done: AtomicU64,
    cancelled: AtomicU64,
    idle_lock: Mutex<()>,
    idle_cond: Condvar,
}

impl Shared {
    fn finished(&self) -> bool {
        self.done.load(Ordering::Relaxed) + self.cancelled.load(Ordering::Relaxed)
            >= JOBS as u64
    }

    fn push(&self, job: usize) {
        self.jobs.lock().push_back(job);
        self.work_cond.notify_one();
    }

    /// The front job, parking while the list is empty; `None` once it
    /// is empty and the queue is shut down.
    fn next_job(&self) -> Option<usize> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            jobs = self.work_cond.wait(jobs);
        }
    }

    /// Lock-bounce + notify after a terminal transition: taking the idle
    /// lock orders the counter update before the waiter's re-check.
    fn notify_idle(&self) {
        drop(self.idle_lock.lock());
        self.idle_cond.notify_all();
    }
}

fn worker_body(shared: Arc<Shared>) {
    while let Some(job) = shared.next_job() {
        let claimed = {
            let mut records = shared.records.lock();
            match records[job] {
                QUEUED => {
                    records[job] = RUNNING;
                    true
                }
                CANCELLED => false, // cancelled while queued; already counted
                state => panic!("job {job} popped twice (state {state})"),
            }
        };
        if claimed {
            gmm_checkpoint::yield_point(); // the solve
            {
                let mut records = shared.records.lock();
                assert_eq!(records[job], RUNNING, "claim lost while solving");
                records[job] = DONE;
            }
            shared.done.fetch_add(1, Ordering::Relaxed);
            shared.notify_idle();
        }
    }
}

pub fn build() -> ModelRun {
    let shared = Arc::new(Shared {
        jobs: Mutex::new(VecDeque::new()),
        work_cond: Condvar::new(),
        shutdown: AtomicBool::new(false),
        records: Mutex::new([QUEUED; JOBS]),
        done: AtomicU64::new(0),
        cancelled: AtomicU64::new(0),
        idle_lock: Mutex::new(()),
        idle_cond: Condvar::new(),
    });

    let t_submit = {
        let shared = shared.clone();
        Box::new(move || {
            for job in 0..JOBS {
                shared.push(job);
            }
            // Cancel-if-queued racing the workers' claim of job 1,
            // mirroring the queue's cancel verb semantics.
            let won = {
                let mut records = shared.records.lock();
                if records[1] == QUEUED {
                    records[1] = CANCELLED;
                    true
                } else {
                    false
                }
            };
            if won {
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
                shared.notify_idle();
            }
            // wait_idle, then shutdown.
            let mut idle = shared.idle_lock.lock();
            while !shared.finished() {
                idle = shared.idle_cond.wait(idle);
            }
            drop(idle);
            {
                let _jobs = shared.jobs.lock();
                shared.shutdown.store(true, Ordering::Relaxed);
            }
            shared.work_cond.notify_all();
        }) as Box<dyn FnOnce() + Send>
    };
    let worker = || {
        let shared = shared.clone();
        Box::new(move || worker_body(shared)) as Box<dyn FnOnce() + Send>
    };
    // Workers first: the DFS then explores their parking before any
    // push early, where a lost wakeup on the park path shows.
    let threads = vec![worker(), worker(), t_submit];

    let check = Box::new(move || {
        assert!(shared.jobs.lock().is_empty(), "workers exited with jobs queued");
        let records = shared.records.lock();
        for (job, state) in records.iter().enumerate() {
            assert!(
                *state == DONE || *state == CANCELLED,
                "job {job} not terminal: state {state}"
            );
        }
        let done = shared.done.load(Ordering::Relaxed);
        let cancelled = shared.cancelled.load(Ordering::Relaxed);
        assert_eq!(
            done + cancelled,
            JOBS as u64,
            "terminal counters must conserve the job count (done {done}, cancelled {cancelled})"
        );
        assert_eq!(done, records.iter().filter(|s| **s == DONE).count() as u64);
        assert_eq!(
            cancelled,
            records.iter().filter(|s| **s == CANCELLED).count() as u64
        );
    }) as Box<dyn FnOnce()>;

    ModelRun { threads, check }
}
