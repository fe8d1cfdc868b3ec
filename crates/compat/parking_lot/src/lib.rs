//! Offline stand-in for `parking_lot`: non-poisoning `Mutex`, `RwLock`
//! and `Condvar` over their `std::sync` counterparts, extended with the
//! workspace's concurrency-checking layers:
//!
//! * **Schedule points** (debug builds only): every acquire, release,
//!   wait and notify reports to `gmm-checkpoint`. Threads registered
//!   with the `gmm-check` model checker are serialized by its
//!   scheduler so interleavings can be explored deterministically;
//!   unregistered threads pay one thread-local `None` check.
//! * **Lock-rank + deadlock detector** (debug builds only, see
//!   [`detect`]): locks built with `with_rank` participate in a
//!   workspace-wide total order checked on every acquire, and blocked
//!   acquires insert edges into a global wait-for graph whose cycles
//!   are reported as deadlocks at the moment they close.
//!
//! Release builds compile all of it out: the lock types are
//! layout-identical to their `std` wrappers (pinned by a
//! release-only test) and no checkpoint or detector code exists.
//!
//! One deliberate API deviation survives from the original stand-in:
//! [`Condvar::wait`] and [`Condvar::wait_for`] take the guard **by
//! value** and hand it back (the `std` wait primitives consume the
//! guard, and re-borrowing one across a wait cannot be expressed
//! safely over `std`), where real parking_lot takes `&mut MutexGuard`.
//! Call sites rebind the returned guard.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex as StdMutex;
use std::sync::RwLock as StdRwLock;
use std::time::Duration;

/// Rank given to locks built with `new` instead of `with_rank`.
/// Unranked locks skip ordering checks (but still join the wait-for
/// graph in debug builds).
pub const UNRANKED: u32 = u32::MAX;

/// Debug-only lock-rank checking and wait-for-graph deadlock
/// detection. See the crate docs; absent from release builds.
#[cfg(debug_assertions)]
pub mod detect {
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};

    /// Per-lock detector metadata, embedded in each `Mutex`/`RwLock`
    /// (debug builds only).
    #[derive(Debug)]
    pub(crate) struct LockMeta {
        pub(crate) rank: u32,
        pub(crate) name: &'static str,
        /// Detector thread-id of the current exclusive holder, 0 when
        /// free or share-held. Written on the acquire/release fast
        /// path; read by wait-for-graph walks.
        holder: AtomicUsize,
        /// Number of shared (read) holders; informational only.
        readers: AtomicUsize,
    }

    impl LockMeta {
        pub(crate) fn new(rank: u32, name: &'static str) -> Self {
            LockMeta {
                rank,
                name,
                holder: AtomicUsize::new(0),
                readers: AtomicUsize::new(0),
            }
        }
    }

    static NEXT_TID: AtomicUsize = AtomicUsize::new(1);
    static RANK_VIOLATIONS: AtomicU64 = AtomicU64::new(0);
    static DEADLOCKS_DETECTED: AtomicU64 = AtomicU64::new(0);

    struct Held {
        id: usize,
        rank: u32,
        name: &'static str,
    }

    thread_local! {
        static TID: Cell<usize> = const { Cell::new(0) };
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Stable nonzero detector id for the calling thread.
    pub fn thread_id() -> usize {
        TID.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Total rank-ordering violations observed process-wide (each one
    /// also panics the offending thread).
    pub fn rank_violations() -> u64 {
        RANK_VIOLATIONS.load(Ordering::Relaxed)
    }

    /// Total wait-for cycles detected process-wide (each one also
    /// panics the thread that closed the cycle).
    pub fn deadlocks_detected() -> u64 {
        DEADLOCKS_DETECTED.load(Ordering::Relaxed)
    }

    /// Number of locks the calling thread currently holds.
    pub fn held_count() -> usize {
        HELD.with(|h| h.borrow().len())
    }

    /// Pointer to a lock's holder slot, stored in a wait edge.
    ///
    /// SAFETY invariant: an edge exists only while its thread blocks on
    /// that lock, and the blocking thread borrows the lock for the full
    /// window, so the pointee outlives every dereference (which all
    /// happen under the wait-map mutex while the edge is present).
    struct HolderRef(*const AtomicUsize);
    unsafe impl Send for HolderRef {}

    struct WaitEdge {
        name: &'static str,
        holder: HolderRef,
    }

    fn waiting() -> StdMutexGuard<'static, HashMap<usize, WaitEdge>> {
        static WAITING: OnceLock<StdMutex<HashMap<usize, WaitEdge>>> = OnceLock::new();
        WAITING
            .get_or_init(|| StdMutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Ordering check run before every acquire: no recursive
    /// acquisition, and ranked locks only in strictly increasing rank
    /// order. Panics (after counting) on violation.
    pub(crate) fn check_acquire(meta: &LockMeta, id: usize) {
        HELD.with(|h| {
            let held = h.borrow();
            if held.iter().any(|e| e.id == id) {
                RANK_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
                panic!("lock rank violation: recursive acquisition of `{}`", meta.name);
            }
            if meta.rank == super::UNRANKED {
                return;
            }
            if let Some(top) =
                held.iter().filter(|e| e.rank != super::UNRANKED).max_by_key(|e| e.rank)
            {
                if meta.rank <= top.rank {
                    RANK_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
                    panic!(
                        "lock rank violation: acquiring `{}` (rank {}) while holding `{}` (rank {}); \
                         ranked locks must be taken in strictly increasing rank order",
                        meta.name, meta.rank, top.name, top.rank
                    );
                }
            }
        });
    }

    /// Record a successful acquire on the fast path.
    pub(crate) fn note_acquired(meta: &LockMeta, id: usize, exclusive: bool) {
        if exclusive {
            meta.holder.store(thread_id(), Ordering::Release);
        } else {
            meta.readers.fetch_add(1, Ordering::AcqRel);
        }
        HELD.with(|h| {
            h.borrow_mut().push(Held {
                id,
                rank: meta.rank,
                name: meta.name,
            });
        });
    }

    /// Record a release. Must never panic: called from guard `Drop`
    /// impls, possibly during unwinding.
    pub(crate) fn note_released(meta: &LockMeta, id: usize, exclusive: bool) {
        if exclusive {
            meta.holder.store(0, Ordering::Release);
        } else {
            meta.readers.fetch_sub(1, Ordering::AcqRel);
        }
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|e| e.id == id) {
                held.remove(pos);
            }
        });
    }

    /// The calling thread is about to block on `meta`'s lock: insert a
    /// wait-for edge and search for a cycle through it. Panics (after
    /// removing the edge and counting) when this block would close a
    /// deadlock cycle.
    pub(crate) fn about_to_block(meta: &LockMeta) {
        let me = thread_id();
        let mut map = waiting();
        map.insert(
            me,
            WaitEdge {
                name: meta.name,
                holder: HolderRef(&meta.holder),
            },
        );
        let mut cur = me;
        let mut path = String::new();
        for _ in 0..=map.len() {
            let Some(edge) = map.get(&cur) else { break };
            // SAFETY: see `HolderRef` — the edge's thread blocks on the
            // lock and borrows it, so the holder slot is alive while
            // the edge is in the map (we hold the map mutex).
            let holder = unsafe { (*edge.holder.0).load(Ordering::Acquire) };
            use std::fmt::Write as _;
            let _ = write!(
                path,
                "thread {cur} waits on `{}` held by thread {holder}; ",
                edge.name
            );
            if holder == 0 || holder == cur {
                break;
            }
            if holder == me {
                map.remove(&me);
                DEADLOCKS_DETECTED.fetch_add(1, Ordering::Relaxed);
                drop(map);
                panic!("deadlock: wait-for cycle detected: {path}");
            }
            cur = holder;
        }
    }

    /// Remove the calling thread's wait-for edge after it acquired the
    /// lock it was blocked on.
    pub(crate) fn unblocked() {
        let me = thread_id();
        waiting().remove(&me);
    }
}

#[cfg(debug_assertions)]
use gmm_checkpoint as checkpoint;

/// Non-poisoning mutex. Build with [`Mutex::with_rank`] to enroll in
/// the debug-only lock-order discipline (see [`detect`]).
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    meta: detect::LockMeta,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// An unranked mutex: exempt from rank-ordering checks but still
    /// tracked by the wait-for-graph deadlock detector in debug builds.
    pub fn new(value: T) -> Self {
        Self::with_rank(value, UNRANKED, "unranked")
    }

    /// A mutex enrolled in the workspace lock order under `rank` (debug
    /// builds only; in release `rank`/`name` vanish). Acquires must
    /// follow strictly increasing rank among ranked locks held by one
    /// thread.
    pub fn with_rank(value: T, rank: u32, name: &'static str) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (rank, name);
        Mutex {
            #[cfg(debug_assertions)]
            meta: detect::LockMeta::new(rank, name),
            inner: StdMutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Like parking_lot, never returns a poison error: a panic while
    /// the lock was held does not prevent later access. Debug builds
    /// additionally run the rank check, the deadlock detector on the
    /// contended path, and the model-checker schedule point.
    #[cfg(debug_assertions)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let id = checkpoint::obj_id(self);
        detect::check_acquire(&self.meta, id);
        if checkpoint::lock_acquire(id, true) {
            // Modeled: the scheduler granted the shadow lock, so the
            // real acquire is uncontended among registered threads.
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            detect::note_acquired(&self.meta, id, true);
            return MutexGuard {
                inner: Some(inner),
                lock: self,
            };
        }
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                detect::about_to_block(&self.meta);
                let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                detect::unblocked();
                g
            }
        };
        detect::note_acquired(&self.meta, id, true);
        MutexGuard {
            inner: Some(inner),
            lock: self,
        }
    }

    /// Like parking_lot, never returns a poison error: a panic while
    /// the lock was held does not prevent later access.
    #[cfg(not(debug_assertions))]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            lock: self,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Mutex { .. }")
    }
}

/// Owned guard for [`Mutex`]; releases (and reports the release to the
/// detector/scheduler) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    /// `None` only transiently inside `Condvar::wait*`, which takes the
    /// inner guard out across the wait.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Read only by the debug-only detector hooks in `Drop`/`Condvar`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    lock: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard accessed across a condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard accessed across a condvar wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        #[cfg(debug_assertions)]
        let id = {
            let id = checkpoint::obj_id(self.lock);
            detect::note_released(&self.lock.meta, id, true);
            id
        };
        drop(inner);
        #[cfg(debug_assertions)]
        checkpoint::lock_release(id);
    }
}

/// Non-poisoning reader-writer lock; same checking layers as [`Mutex`].
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    meta: detect::LockMeta,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// An unranked rwlock (see [`Mutex::new`]).
    pub fn new(value: T) -> Self {
        Self::with_rank(value, UNRANKED, "unranked")
    }

    /// A rwlock enrolled in the workspace lock order under `rank`
    /// (see [`Mutex::with_rank`]). Both read and write acquires are
    /// rank-checked.
    pub fn with_rank(value: T, rank: u32, name: &'static str) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (rank, name);
        RwLock {
            #[cfg(debug_assertions)]
            meta: detect::LockMeta::new(rank, name),
            inner: StdRwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Shared (read) acquire; non-poisoning.
    #[cfg(debug_assertions)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let id = checkpoint::obj_id(self);
        detect::check_acquire(&self.meta, id);
        if checkpoint::lock_acquire(id, false) {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            detect::note_acquired(&self.meta, id, false);
            return RwLockReadGuard {
                inner: Some(inner),
                lock: self,
            };
        }
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                detect::about_to_block(&self.meta);
                let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
                detect::unblocked();
                g
            }
        };
        detect::note_acquired(&self.meta, id, false);
        RwLockReadGuard {
            inner: Some(inner),
            lock: self,
        }
    }

    /// Shared (read) acquire; non-poisoning.
    #[cfg(not(debug_assertions))]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: Some(self.inner.read().unwrap_or_else(|e| e.into_inner())),
            lock: self,
        }
    }

    /// Exclusive (write) acquire; non-poisoning.
    #[cfg(debug_assertions)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let id = checkpoint::obj_id(self);
        detect::check_acquire(&self.meta, id);
        if checkpoint::lock_acquire(id, true) {
            let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            detect::note_acquired(&self.meta, id, true);
            return RwLockWriteGuard {
                inner: Some(inner),
                lock: self,
            };
        }
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                detect::about_to_block(&self.meta);
                let g = self.inner.write().unwrap_or_else(|e| e.into_inner());
                detect::unblocked();
                g
            }
        };
        detect::note_acquired(&self.meta, id, true);
        RwLockWriteGuard {
            inner: Some(inner),
            lock: self,
        }
    }

    /// Exclusive (write) acquire; non-poisoning.
    #[cfg(not(debug_assertions))]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: Some(self.inner.write().unwrap_or_else(|e| e.into_inner())),
            lock: self,
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    /// Read only by the debug-only detector hooks in `Drop`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("read guard already released")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        #[cfg(debug_assertions)]
        let id = {
            let id = checkpoint::obj_id(self.lock);
            detect::note_released(&self.lock.meta, id, false);
            id
        };
        drop(inner);
        #[cfg(debug_assertions)]
        checkpoint::lock_release(id);
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    /// Read only by the debug-only detector hooks in `Drop`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("write guard already released")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("write guard already released")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        #[cfg(debug_assertions)]
        let id = {
            let id = checkpoint::obj_id(self.lock);
            detect::note_released(&self.lock.meta, id, true);
            id
        };
        drop(inner);
        #[cfg(debug_assertions)]
        checkpoint::lock_release(id);
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed
/// rather than because the condition variable was signaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Non-poisoning condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        #[cfg(debug_assertions)]
        if checkpoint::cv_notify(checkpoint::obj_id(self), false) {
            return;
        }
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        #[cfg(debug_assertions)]
        if checkpoint::cv_notify(checkpoint::obj_id(self), true) {
            return;
        }
        self.0.notify_all();
    }

    /// Block until signaled. Like the `Mutex`, never surfaces
    /// poisoning; spurious wakeups are possible, so callers loop on
    /// their condition. Under the model checker the wait is fully
    /// modeled (enqueue before release, wake only on notify), which is
    /// what makes lost wakeups detectable as deadlocks.
    #[cfg(debug_assertions)]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let cv = checkpoint::obj_id(self);
        let lock = guard.lock;
        let id = checkpoint::obj_id(lock);
        let inner = guard.inner.take().expect("guard waited on twice");
        if checkpoint::cv_enqueue(cv, false) {
            // Modeled: enqueue happened above while the mutex was still
            // held; now release for real, park in the scheduler, and
            // re-acquire through the full modeled path.
            detect::note_released(&lock.meta, id, true);
            drop(inner);
            checkpoint::lock_release(id);
            drop(guard);
            checkpoint::cv_block(cv);
            return lock.lock();
        }
        detect::note_released(&lock.meta, id, true);
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        // No rank re-check: ordering was validated on the original
        // acquire, and a waiter re-taking its own mutex is not a new
        // ordering decision.
        detect::note_acquired(&lock.meta, id, true);
        guard.inner = Some(inner);
        guard
    }

    /// Block until signaled (release build: a direct `std` wait).
    #[cfg(not(debug_assertions))]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let inner = guard.inner.take().expect("guard waited on twice");
        guard.inner = Some(self.0.wait(inner).unwrap_or_else(|e| e.into_inner()));
        guard
    }

    /// Block until signaled or `timeout` elapses. Under the model
    /// checker the timeout never consults the wall clock: a timed
    /// waiter is force-woken (reported as timed out) only when the
    /// model would otherwise deadlock, matching the "eventually times
    /// out" contract without real sleeping.
    #[cfg(debug_assertions)]
    pub fn wait_for<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let cv = checkpoint::obj_id(self);
        let lock = guard.lock;
        let id = checkpoint::obj_id(lock);
        let inner = guard.inner.take().expect("guard waited on twice");
        if checkpoint::cv_enqueue(cv, true) {
            detect::note_released(&lock.meta, id, true);
            drop(inner);
            checkpoint::lock_release(id);
            drop(guard);
            let notified = checkpoint::cv_block(cv);
            return (lock.lock(), WaitTimeoutResult(!notified));
        }
        detect::note_released(&lock.meta, id, true);
        let (inner, res) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, WaitTimeoutResult(r.timed_out())),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, WaitTimeoutResult(r.timed_out()))
            }
        };
        detect::note_acquired(&lock.meta, id, true);
        guard.inner = Some(inner);
        (guard, res)
    }

    /// Block until signaled or `timeout` elapses (release build: a
    /// direct `std` timed wait).
    #[cfg(not(debug_assertions))]
    pub fn wait_for<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let inner = guard.inner.take().expect("guard waited on twice");
        match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => {
                guard.inner = Some(g);
                (guard, WaitTimeoutResult(r.timed_out()))
            }
            Err(e) => {
                let (g, r) = e.into_inner();
                guard.inner = Some(g);
                (guard, WaitTimeoutResult(r.timed_out()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Condvar, Mutex, RwLock};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn survives_poisoning_panic() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn condvar_signals_a_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let waiter = std::thread::spawn(move || {
            let (lock, cond) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                ready = cond.wait(ready);
            }
        });
        {
            let (lock, cond) = &*pair;
            *lock.lock() = true;
            cond.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cond = Condvar::new();
        let guard = lock.lock();
        let (_guard, result) = cond.wait_for(guard, Duration::from_millis(5));
        assert!(result.timed_out());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = Arc::new(RwLock::new(7));
        // Concurrent readers from distinct threads: one thread taking
        // two read guards at once is flagged by the detector instead
        // (read-recursion can deadlock once a writer queues between).
        std::thread::scope(|s| {
            for _ in 0..2 {
                let l = &l;
                s.spawn(move || assert_eq!(*l.read(), 7));
            }
        });
        *l.write() += 1;
        assert_eq!(*l.read(), 8);
        let l = Arc::into_inner(l).expect("sole owner");
        assert_eq!(l.into_inner(), 8);
    }

    /// The detector layer must vanish from release builds: the lock
    /// types stay layout-identical to their plain `std` wrappers.
    #[cfg(not(debug_assertions))]
    #[test]
    fn detector_is_compiled_out_in_release() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<std::sync::Mutex<u64>>());
        assert_eq!(
            size_of::<RwLock<u64>>(),
            size_of::<std::sync::RwLock<u64>>()
        );
        assert_eq!(size_of::<Mutex<()>>(), size_of::<std::sync::Mutex<()>>());
    }

    #[cfg(debug_assertions)]
    mod detector {
        use super::super::{detect, Mutex};
        use std::sync::{Arc, Barrier};

        #[test]
        fn increasing_ranks_are_clean() {
            let a = Mutex::with_rank(0, 10, "rank-test-a");
            let b = Mutex::with_rank(0, 20, "rank-test-b");
            let before = detect::rank_violations();
            let _ga = a.lock();
            let _gb = b.lock();
            assert_eq!(detect::rank_violations(), before);
            assert_eq!(detect::held_count(), 2);
        }

        #[test]
        fn rank_inversion_panics_and_counts() {
            let before = detect::rank_violations();
            let err = std::thread::spawn(|| {
                let hi = Mutex::with_rank(0, 60, "rank-test-hi");
                let lo = Mutex::with_rank(0, 50, "rank-test-lo");
                let _g_hi = hi.lock();
                let _g_lo = lo.lock(); // 50 after 60: inversion
            })
            .join()
            .expect_err("inverted acquire order must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock rank violation"), "got: {msg}");
            assert!(detect::rank_violations() > before);
        }

        #[test]
        fn recursive_acquire_panics() {
            let err = std::thread::spawn(|| {
                let m = Mutex::with_rank(0, 5, "rank-test-rec");
                let _a = m.lock();
                let _b = m.lock();
            })
            .join()
            .expect_err("recursive acquire must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("recursive"), "got: {msg}");
        }

        /// Classic ABBA: whichever thread blocks second closes the
        /// wait-for cycle and panics; its unwind releases the lock the
        /// other thread needs, so the survivor completes.
        #[test]
        fn abba_deadlock_is_detected() {
            let before = detect::deadlocks_detected();
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let barrier = Arc::new(Barrier::new(2));

            let t1 = {
                let (a, b, barrier) = (a.clone(), b.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let _ga = a.lock();
                    barrier.wait();
                    let _gb = b.lock();
                })
            };
            let t2 = {
                let (a, b, barrier) = (a.clone(), b.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let _gb = b.lock();
                    barrier.wait();
                    let _ga = a.lock();
                })
            };

            let results = [t1.join(), t2.join()];
            let panics: Vec<String> = results
                .into_iter()
                .filter_map(|r| r.err())
                .map(|e| e.downcast_ref::<String>().cloned().unwrap_or_default())
                .collect();
            assert_eq!(
                panics.len(),
                1,
                "exactly one thread closes the cycle: {panics:?}"
            );
            assert!(panics[0].contains("deadlock"), "got: {}", panics[0]);
            assert!(detect::deadlocks_detected() > before);
        }
    }
}
