//! The deterministic scheduler behind the model checker.
//!
//! One [`Sched`] drives one execution of a model: every model thread is
//! a real OS thread registered with `gmm-checkpoint`, and every
//! schedule point the compat sync layer reports (lock acquires, condvar
//! waits and notifies, deque operations) funnels into this scheduler,
//! which keeps exactly one registered thread running at a time. Each
//! point where more than one thread could continue is a recorded
//! decision; the explorer replays decision prefixes to enumerate
//! interleavings depth-first, or picks pseudo-randomly from a seed.
//!
//! Blocking is fully modeled: a thread that wants a shadow-held lock,
//! or waits on a condvar, parks *inside the scheduler* and stops being
//! schedulable, so the real `std` primitives underneath are only ever
//! taken uncontended. That is also what makes failures observable —
//! when no thread is runnable but some are unfinished, the model has
//! deadlocked (a lost wakeup or a lock cycle), and the scheduler
//! records it. Timed condvar waits are the one exception: they are
//! force-woken (reported as timed out) instead of counting toward a
//! deadlock, matching their real eventually-times-out semantics.

use gmm_checkpoint::{ObjId, Scheduler};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Panic payload used to unwind model threads when an execution is
/// being torn down (failure found or budget exhausted). Caught by the
/// explorer's thread wrappers, never user-visible.
pub(crate) struct AbortRun;

/// One recorded scheduling decision: which runnable threads were
/// available, and which index was picked.
#[derive(Debug, Clone)]
pub struct Choice {
    pub options: Vec<usize>,
    pub picked: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    NotStarted,
    Runnable,
    BlockedLock { lock: ObjId, exclusive: bool },
    BlockedCv { cv: ObjId },
    Finished,
}

#[derive(Debug, Default)]
struct Shadow {
    exclusive: Option<usize>,
    shared: usize,
}

impl Shadow {
    fn admits(&self, exclusive: bool) -> bool {
        match (self.exclusive, exclusive) {
            (Some(_), _) => false,
            (None, true) => self.shared == 0,
            (None, false) => true,
        }
    }
}

#[derive(Debug)]
struct TInfo {
    state: TState,
    /// A notify arrived between `cv_enqueue` and `cv_block`.
    cv_pending: bool,
    /// The current condvar wait carries a timeout.
    cv_timed: bool,
    /// The wait ended by forced timeout, not notification.
    cv_timed_out: bool,
}

impl TInfo {
    fn new() -> Self {
        TInfo {
            state: TState::NotStarted,
            cv_pending: false,
            cv_timed: false,
            cv_timed_out: false,
        }
    }
}

struct Inner {
    n: usize,
    started: bool,
    done: bool,
    current: usize,
    threads: Vec<TInfo>,
    shadow: HashMap<ObjId, Shadow>,
    cvq: HashMap<ObjId, VecDeque<usize>>,
    /// Decisions made this execution, including replayed ones.
    trace: Vec<Choice>,
    /// Prefix of decision indices to replay (DFS mode).
    replay: Vec<usize>,
    replay_pos: usize,
    /// LCG state for random mode; `None` selects DFS-deterministic
    /// first-option picks beyond the replay prefix.
    rng: Option<u64>,
    preemption_bound: usize,
    preemptions: usize,
    steps: u64,
    max_steps: u64,
    failure: Option<String>,
    aborting: bool,
}

/// Deterministic cooperative scheduler for one model execution.
pub struct Sched {
    inner: StdMutex<Inner>,
    cv: StdCondvar,
}

impl Sched {
    pub fn new(
        n: usize,
        preemption_bound: usize,
        max_steps: u64,
        replay: Vec<usize>,
        rng_seed: Option<u64>,
    ) -> Self {
        Sched {
            inner: StdMutex::new(Inner {
                n,
                started: false,
                done: false,
                current: 0,
                threads: (0..n).map(|_| TInfo::new()).collect(),
                shadow: HashMap::new(),
                cvq: HashMap::new(),
                trace: Vec::new(),
                replay,
                replay_pos: 0,
                rng: rng_seed,
                preemption_bound,
                preemptions: 0,
                steps: 0,
                max_steps,
                failure: None,
                aborting: false,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// First failure recorded this execution, if any.
    pub fn failure(&self) -> Option<String> {
        self.lock().failure.clone()
    }

    /// The decision trace of the completed execution.
    pub fn take_trace(&self) -> Vec<Choice> {
        std::mem::take(&mut self.lock().trace)
    }

    /// Record a model-thread panic as the execution's failure and start
    /// tearing the execution down. `AbortRun` payloads are not
    /// failures — they *are* the teardown.
    pub fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        if payload.is::<AbortRun>() {
            return;
        }
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "model thread panicked".to_string());
        let mut g = self.lock();
        if g.failure.is_none() {
            g.failure = Some(msg);
        }
        g.aborting = true;
        self.cv.notify_all();
    }

    /// Record an externally-detected failure (e.g. a post-run invariant
    /// check) if none was recorded yet.
    pub fn record_failure(&self, msg: String) {
        let mut g = self.lock();
        if g.failure.is_none() {
            g.failure = Some(msg);
        }
        g.aborting = true;
        self.cv.notify_all();
    }

    /// Called by the explorer once all model threads are spawned: waits
    /// for every thread to reach its start gate, then schedules the
    /// first one.
    pub fn begin(&self) {
        let mut g = self.lock();
        while g.threads.iter().any(|t| t.state == TState::NotStarted) {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.started = true;
        self.choose(&mut g, false, false);
        self.cv.notify_all();
    }

    /// Start gate for model threads: registers the thread as runnable
    /// and parks until the scheduler picks it.
    pub fn thread_start(&self, tid: usize) {
        let mut g = self.lock();
        g.threads[tid].state = TState::Runnable;
        self.cv.notify_all();
        self.wait_my_turn(g, tid);
    }

    /// A model thread is done (normally or by unwind). Never panics.
    pub fn thread_finish(&self, tid: usize) {
        let mut g = self.lock();
        g.threads[tid].state = TState::Finished;
        if g.started && !g.aborting && !g.done {
            self.choose(&mut g, false, false);
        }
        self.cv.notify_all();
    }

    /// Park until `tid` is the scheduled, runnable thread. Panics with
    /// [`AbortRun`] when the execution is being torn down.
    fn wait_my_turn(&self, mut g: StdMutexGuard<'_, Inner>, tid: usize) {
        loop {
            if g.aborting {
                drop(g);
                std::panic::panic_any(AbortRun);
            }
            if g.started && g.current == tid && g.threads[tid].state == TState::Runnable {
                return;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pick the next thread to run. `may_panic` controls whether a
    /// detected deadlock unwinds the caller (hooks) or only records the
    /// failure (`thread_finish`). `count_preemption` is false for picks
    /// where the previous thread cannot continue anyway.
    fn choose(&self, g: &mut Inner, may_panic: bool, count_preemption: bool) {
        let mut options: Vec<usize> = (0..g.n)
            .filter(|&t| g.threads[t].state == TState::Runnable)
            .collect();

        if options.is_empty() {
            // Timed condvar waiters time out rather than deadlock.
            if let Some(tid) = (0..g.n).find(|&t| {
                matches!(g.threads[t].state, TState::BlockedCv { .. }) && g.threads[t].cv_timed
            }) {
                let TState::BlockedCv { cv } = g.threads[tid].state else {
                    unreachable!()
                };
                if let Some(q) = g.cvq.get_mut(&cv) {
                    q.retain(|&w| w != tid);
                }
                g.threads[tid].state = TState::Runnable;
                g.threads[tid].cv_timed_out = true;
                options = vec![tid];
            } else if g.threads.iter().all(|t| t.state == TState::Finished) {
                g.done = true;
                return;
            } else {
                let stuck: Vec<String> = g
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.state != TState::Finished)
                    .map(|(i, t)| match t.state {
                        TState::BlockedLock { lock, exclusive } => format!(
                            "thread {i} blocked on lock {lock:#x} ({})",
                            if exclusive { "exclusive" } else { "shared" }
                        ),
                        TState::BlockedCv { cv } => {
                            format!("thread {i} waiting on condvar {cv:#x} (no pending notify)")
                        }
                        other => format!("thread {i} in {other:?}"),
                    })
                    .collect();
                if g.failure.is_none() {
                    g.failure = Some(format!(
                        "deadlock: no runnable threads but {} unfinished [{}]",
                        stuck.len(),
                        stuck.join("; ")
                    ));
                }
                g.aborting = true;
                self.cv.notify_all();
                if may_panic {
                    std::panic::panic_any(AbortRun);
                }
                return;
            }
        }

        // With the preemption budget spent, a still-runnable current
        // thread must continue.
        if count_preemption
            && g.preemptions >= g.preemption_bound
            && g.threads[g.current].state == TState::Runnable
            && options.contains(&g.current)
        {
            options = vec![g.current];
        }

        let picked = if options.len() == 1 {
            options[0]
        } else {
            let idx = if g.replay_pos < g.replay.len() {
                let i = g.replay[g.replay_pos].min(options.len() - 1);
                g.replay_pos += 1;
                i
            } else if let Some(state) = g.rng.as_mut() {
                *state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((*state >> 33) as usize) % options.len()
            } else {
                0
            };
            g.trace.push(Choice {
                options: options.clone(),
                picked: idx,
            });
            options[idx]
        };

        if count_preemption && picked != g.current && g.threads[g.current].state == TState::Runnable
        {
            g.preemptions += 1;
        }
        g.current = picked;
    }

    /// Bump the step budget; fails the execution when exhausted.
    fn step(&self, g: &mut Inner) {
        g.steps += 1;
        if g.steps > g.max_steps {
            if g.failure.is_none() {
                g.failure = Some(format!(
                    "step budget exceeded ({} schedule points): model livelocks or is too large",
                    g.max_steps
                ));
            }
            g.aborting = true;
            self.cv.notify_all();
            std::panic::panic_any(AbortRun);
        }
    }
}

impl Scheduler for Sched {
    fn yield_point(&self, tid: usize) {
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            std::panic::panic_any(AbortRun);
        }
        self.step(&mut g);
        self.choose(&mut g, true, true);
        self.cv.notify_all();
        self.wait_my_turn(g, tid);
    }

    fn lock_acquire(&self, tid: usize, lock: ObjId, exclusive: bool) {
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            std::panic::panic_any(AbortRun);
        }
        // Schedule point before the acquire, so orderings around it
        // are explored.
        self.step(&mut g);
        self.choose(&mut g, true, true);
        self.cv.notify_all();
        loop {
            self.wait_my_turn(g, tid);
            g = self.lock();
            if g.current != tid || g.threads[tid].state != TState::Runnable {
                continue;
            }
            let shadow = g.shadow.entry(lock).or_default();
            if shadow.admits(exclusive) {
                if exclusive {
                    shadow.exclusive = Some(tid);
                } else {
                    shadow.shared += 1;
                }
                return;
            }
            g.threads[tid].state = TState::BlockedLock { lock, exclusive };
            self.choose(&mut g, true, false);
            self.cv.notify_all();
        }
    }

    fn lock_release(&self, tid: usize, lock: ObjId) {
        // Never blocks, never panics: runs from guard Drop impls.
        let mut g = self.lock();
        if let Some(shadow) = g.shadow.get_mut(&lock) {
            if shadow.exclusive == Some(tid) {
                shadow.exclusive = None;
            } else if shadow.shared > 0 {
                shadow.shared -= 1;
            }
        }
        for t in 0..g.n {
            if let TState::BlockedLock { lock: l, exclusive } = g.threads[t].state {
                if l == lock && g.shadow.get(&lock).is_some_and(|s| s.admits(exclusive)) {
                    g.threads[t].state = TState::Runnable;
                }
            }
        }
        self.cv.notify_all();
    }

    fn cv_enqueue(&self, tid: usize, cv: ObjId, timed: bool) {
        let mut g = self.lock();
        g.threads[tid].cv_timed = timed;
        g.threads[tid].cv_pending = false;
        g.threads[tid].cv_timed_out = false;
        g.cvq.entry(cv).or_default().push_back(tid);
    }

    fn cv_block(&self, tid: usize, cv: ObjId) -> bool {
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            std::panic::panic_any(AbortRun);
        }
        if g.threads[tid].cv_pending {
            // Notified between enqueue and block: consume the wakeup
            // but still offer a schedule point.
            g.threads[tid].cv_pending = false;
            self.step(&mut g);
            self.choose(&mut g, true, true);
            self.cv.notify_all();
            self.wait_my_turn(g, tid);
            return true;
        }
        self.step(&mut g);
        g.threads[tid].state = TState::BlockedCv { cv };
        self.choose(&mut g, true, false);
        self.cv.notify_all();
        self.wait_my_turn(g, tid);
        let g = self.lock();
        !g.threads[tid].cv_timed_out
    }

    fn cv_notify(&self, cv: ObjId, all: bool) {
        // Never blocks: notifies can come from teardown paths.
        let mut g = self.lock();
        let waiters: Vec<usize> = match g.cvq.get_mut(&cv) {
            Some(q) if all => q.drain(..).collect(),
            Some(q) => q.pop_front().into_iter().collect(),
            None => Vec::new(),
        };
        for tid in waiters {
            if matches!(g.threads[tid].state, TState::BlockedCv { .. }) {
                g.threads[tid].state = TState::Runnable;
            } else {
                g.threads[tid].cv_pending = true;
            }
        }
        self.cv.notify_all();
    }
}
