//! Deliberately racy models: regression fixtures proving the checker
//! still catches the bug classes it exists for. `gmm check` never runs
//! these; this crate's tests assert the explorer fails each of them.

use crate::explore::ModelRun;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// A classic lost wakeup: the consumer checks the flag, *releases the
/// lock*, then re-locks and waits without re-checking. If the producer
/// sets the flag and notifies in that gap, the notify finds no waiter
/// and the consumer sleeps forever. The model's no-spurious-wakeup
/// condvar turns the hang into a detectable deadlock at preemption
/// bound ≥ 1.
pub fn lost_wakeup() -> ModelRun {
    let flag = Arc::new(Mutex::new(false));
    let cond = Arc::new(Condvar::new());

    let consumer = {
        let (flag, cond) = (flag.clone(), cond.clone());
        Box::new(move || {
            let ready = *flag.lock(); // guard dropped here: TOCTOU window opens
            if !ready {
                let guard = flag.lock(); // BUG: no predicate re-check, no wait loop
                let _guard = cond.wait(guard);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let producer = {
        Box::new(move || {
            *flag.lock() = true;
            cond.notify_one();
        }) as Box<dyn FnOnce() + Send>
    };

    ModelRun {
        threads: vec![consumer, producer],
        check: Box::new(|| {}),
    }
}

/// A textbook ABBA deadlock on two *unranked* mutexes (ranked ones
/// would trip the runtime rank check before any cycle forms; unranked
/// locks exercise the wait-for analysis instead).
pub fn abba() -> ModelRun {
    let a = Arc::new(Mutex::new(()));
    let b = Arc::new(Mutex::new(()));

    let t1 = {
        let (a, b) = (a.clone(), b.clone());
        Box::new(move || {
            let _a = a.lock();
            let _b = b.lock();
        }) as Box<dyn FnOnce() + Send>
    };
    let t2 = {
        Box::new(move || {
            let _b = b.lock();
            let _a = a.lock();
        }) as Box<dyn FnOnce() + Send>
    };

    ModelRun {
        threads: vec![t1, t2],
        check: Box::new(|| {}),
    }
}
