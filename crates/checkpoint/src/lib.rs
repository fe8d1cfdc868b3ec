//! Schedule-point hooks connecting the compat sync layer to `gmm-check`.
//!
//! The compat `parking_lot` stand-in calls into this crate at every
//! interesting synchronization event (lock acquire and release, condvar
//! enqueue/block/notify). When a thread has been registered with a
//! [`Scheduler`] — which only the `gmm-check` model-checker does —
//! those calls hand control to the scheduler so it can serialize the
//! threads of a model and explore interleavings deterministically. When no scheduler is registered
//! (every production and ordinary-test thread), each hook is a
//! thread-local `None` check and nothing more.
//!
//! This crate exists so the dependency arrow points the right way:
//! `parking_lot` depends on the tiny trait defined here, and
//! `gmm-check` (which depends on `parking_lot` to model it) implements
//! the trait. Compat callers additionally gate every hook call behind
//! `#[cfg(debug_assertions)]`, so release builds contain none of this.

use std::cell::RefCell;
use std::sync::Arc;

/// Identity of a lock or condvar: the address of the primitive. Stable
/// for as long as the primitive is borrowed, which covers every moment
/// the identity is actually consulted (an acquire, a wait, a notify).
pub type ObjId = usize;

/// The scheduling side of the model checker, as seen by instrumented
/// primitives. Object-safe so compat crates can hold it behind
/// `Arc<dyn Scheduler>` without depending on the checker.
pub trait Scheduler: Send + Sync {
    /// A plain schedule point: the calling thread offers to yield.
    /// Blocks until the scheduler picks this thread to continue.
    fn yield_point(&self, tid: usize);

    /// The calling thread wants `lock` (exclusively when `exclusive`).
    /// Blocks until the scheduler grants it; on return the underlying
    /// OS primitive is guaranteed uncontended among registered threads.
    fn lock_acquire(&self, tid: usize, lock: ObjId, exclusive: bool);

    /// The calling thread released `lock`. Must never block or panic:
    /// it runs from guard `Drop` impls, possibly during unwinding.
    fn lock_release(&self, tid: usize, lock: ObjId);

    /// The calling thread is about to wait on `cv`; called while the
    /// associated mutex is still held, so enqueue-before-release
    /// semantics match a real condvar. `timed` marks waits that carry a
    /// timeout and may be force-woken when the model would otherwise
    /// deadlock.
    fn cv_enqueue(&self, tid: usize, cv: ObjId, timed: bool);

    /// Park until a notification targets this thread. Returns `true`
    /// when notified, `false` when a timed wait was force-timed-out.
    /// The associated mutex has already been released by the caller.
    fn cv_block(&self, tid: usize, cv: ObjId) -> bool;

    /// Wake one (`all == false`) or all waiters of `cv`. Never blocks.
    fn cv_notify(&self, cv: ObjId, all: bool);
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<dyn Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// Attach the calling OS thread to a model-checker scheduler under
/// thread id `tid`. Subsequent compat-primitive operations on this
/// thread route through the scheduler until [`unregister`].
pub fn register(sched: Arc<dyn Scheduler>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((sched, tid)));
}

/// Detach the calling thread from its scheduler (idempotent).
pub fn unregister() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Whether the calling thread is running under a model-checker
/// scheduler.
pub fn is_registered() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Run `f` with the registered scheduler, or return `None` untouched.
/// The scheduler handle is cloned out first so `f` may re-enter
/// checkpoint hooks without holding the thread-local borrow.
pub fn with_scheduler<R>(f: impl FnOnce(&Arc<dyn Scheduler>, usize) -> R) -> Option<R> {
    let entry = CURRENT.with(|c| c.borrow().clone());
    entry.map(|(sched, tid)| f(&sched, tid))
}

/// Offer a schedule point. No-op when the thread is unregistered.
pub fn yield_point() {
    with_scheduler(|s, tid| s.yield_point(tid));
}

/// Route a lock acquire through the scheduler. Returns `true` when a
/// scheduler handled it (the caller's real acquire is then guaranteed
/// uncontended), `false` when the thread is unregistered.
pub fn lock_acquire(lock: ObjId, exclusive: bool) -> bool {
    with_scheduler(|s, tid| s.lock_acquire(tid, lock, exclusive)).is_some()
}

/// Route a lock release through the scheduler (no-op when
/// unregistered). Safe to call from `Drop` during unwinding.
pub fn lock_release(lock: ObjId) {
    with_scheduler(|s, tid| s.lock_release(tid, lock));
}

/// Enqueue the calling thread as a waiter of `cv` while its mutex is
/// still held. Returns `true` when a scheduler is driving the wait.
pub fn cv_enqueue(cv: ObjId, timed: bool) -> bool {
    with_scheduler(|s, tid| s.cv_enqueue(tid, cv, timed)).is_some()
}

/// Park on `cv` until notified. Must only be called after
/// [`cv_enqueue`] returned `true`. Returns `false` on forced timeout.
pub fn cv_block(cv: ObjId) -> bool {
    with_scheduler(|s, tid| s.cv_block(tid, cv)).unwrap_or(true)
}

/// Route a notify through the scheduler. Returns `true` when handled.
pub fn cv_notify(cv: ObjId, all: bool) -> bool {
    with_scheduler(|s, _| s.cv_notify(cv, all)).is_some()
}

/// Address-derived identity for a primitive.
pub fn obj_id<T: ?Sized>(obj: &T) -> ObjId {
    (obj as *const T).cast::<()>() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting {
        yields: AtomicUsize,
    }

    impl Scheduler for Counting {
        fn yield_point(&self, _tid: usize) {
            self.yields.fetch_add(1, Ordering::Relaxed);
        }
        fn lock_acquire(&self, _tid: usize, _lock: ObjId, _exclusive: bool) {}
        fn lock_release(&self, _tid: usize, _lock: ObjId) {}
        fn cv_enqueue(&self, _tid: usize, _cv: ObjId, _timed: bool) {}
        fn cv_block(&self, _tid: usize, _cv: ObjId) -> bool {
            true
        }
        fn cv_notify(&self, _cv: ObjId, _all: bool) {}
    }

    #[test]
    fn unregistered_hooks_are_noops() {
        assert!(!is_registered());
        yield_point();
        assert!(!lock_acquire(1, true));
        lock_release(1);
        assert!(!cv_enqueue(2, false));
        assert!(cv_block(2));
        assert!(!cv_notify(2, true));
    }

    #[test]
    fn registered_thread_routes_to_scheduler() {
        let sched = Arc::new(Counting {
            yields: AtomicUsize::new(0),
        });
        register(sched.clone(), 7);
        assert!(is_registered());
        yield_point();
        yield_point();
        assert!(lock_acquire(1, true));
        assert!(cv_notify(2, false));
        unregister();
        assert!(!is_registered());
        yield_point();
        assert_eq!(sched.yields.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn obj_ids_distinguish_objects() {
        let a = 0u64;
        let b = 0u64;
        assert_ne!(obj_id(&a), obj_id(&b));
        assert_eq!(obj_id(&a), obj_id(&a));
    }
}
