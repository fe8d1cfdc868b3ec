//! The interleaving explorer: runs a model under [`crate::sched::Sched`]
//! once per schedule, enumerating decision prefixes depth-first
//! (bounded preemptions) and topping up with seeded-random schedules
//! when the bounded DFS space is smaller than the requested floor.

use crate::sched::{Choice, Sched};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// One buildable model: fresh thread bodies plus a post-run invariant
/// check, constructed anew for every schedule.
pub struct ModelRun {
    /// The model's threads; each runs to completion under the scheduler.
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Runs on the harness thread after all model threads joined
    /// (clean executions only); a panic here fails the schedule.
    pub check: Box<dyn FnOnce()>,
}

/// Exploration budget and strategy knobs.
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Maximum involuntary context switches per schedule (the classic
    /// preemption bound; voluntary blocking never counts).
    pub preemption_bound: usize,
    /// Hard cap on schedules explored.
    pub max_schedules: usize,
    /// When the bounded DFS exhausts below this count, seeded-random
    /// schedules top the total up to it (subject to `max_schedules`).
    pub min_schedules: usize,
    /// Per-schedule schedule-point budget (livelock guard).
    pub max_steps: u64,
    /// Base seed for the random top-up phase.
    pub seed: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            preemption_bound: 2,
            max_schedules: 5000,
            min_schedules: 1000,
            max_steps: 100_000,
            seed: 0x67_6d_6d,
        }
    }
}

/// A schedule that violated an invariant, with the decision trace that
/// reproduces it.
#[derive(Debug, Clone)]
pub struct ModelFailure {
    pub message: String,
    /// 1-based index of the failing schedule.
    pub schedule: usize,
    pub trace: Vec<Choice>,
}

impl std::fmt::Display for ModelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule {}: {}", self.schedule, self.message)?;
        if !self.trace.is_empty() {
            write!(f, "\n  decisions:")?;
            for (i, c) in self.trace.iter().enumerate() {
                write!(
                    f,
                    "\n    #{i}: picked thread {} of {:?}",
                    c.options[c.picked], c.options
                )?;
            }
        }
        Ok(())
    }
}

/// Outcome of exploring one model.
#[derive(Debug)]
pub struct ExploreReport {
    pub model: String,
    /// Total schedules executed (DFS + random top-up).
    pub schedules: usize,
    /// Schedules executed by the bounded DFS phase.
    pub dfs_schedules: usize,
    /// The bounded-DFS space was fully enumerated.
    pub dfs_complete: bool,
    pub failure: Option<ModelFailure>,
}

impl ExploreReport {
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Run one schedule of `run` under a scheduler configured with
/// `replay`/`rng_seed`; returns the decision trace and any failure.
fn run_one(
    run: ModelRun,
    opts: &ExploreOpts,
    replay: Vec<usize>,
    rng_seed: Option<u64>,
) -> (Vec<Choice>, Option<String>) {
    let n = run.threads.len();
    let sched = Arc::new(Sched::new(
        n,
        opts.preemption_bound,
        opts.max_steps,
        replay,
        rng_seed,
    ));

    let handles: Vec<_> = run
        .threads
        .into_iter()
        .enumerate()
        .map(|(tid, body)| {
            let sched = sched.clone();
            std::thread::spawn(move || {
                gmm_checkpoint::register(sched.clone(), tid);
                sched.thread_start(tid);
                if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(body)) {
                    sched.record_panic(payload.as_ref());
                }
                sched.thread_finish(tid);
                gmm_checkpoint::unregister();
            })
        })
        .collect();

    sched.begin();
    for h in handles {
        // The wrapper caught model panics; a join error would mean the
        // wrapper itself died, which record_panic already turned into a
        // failure or is an AbortRun teardown.
        let _ = h.join();
    }

    let mut failure = sched.failure();
    if failure.is_none() {
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(run.check)) {
            sched.record_panic(payload.as_ref());
            failure = sched.failure();
        }
    }
    (sched.take_trace(), failure)
}

/// Next DFS replay prefix after an execution with trace `trace`:
/// backtrack to the deepest decision with an untried option and advance
/// it. `None` when the space is exhausted.
fn next_replay(trace: &[Choice]) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        if trace[i].picked + 1 < trace[i].options.len() {
            let mut replay: Vec<usize> = trace[..i].iter().map(|c| c.picked).collect();
            replay.push(trace[i].picked + 1);
            return Some(replay);
        }
    }
    None
}

/// Explore `build`'s interleavings: bounded DFS first, then seeded
/// random schedules up to `opts.min_schedules`. Stops at the first
/// failing schedule.
pub fn explore(name: &str, opts: &ExploreOpts, build: impl Fn() -> ModelRun) -> ExploreReport {
    let mut schedules = 0usize;
    let mut replay: Vec<usize> = Vec::new();
    let mut dfs_complete = false;
    let mut failure = None;

    // Phase 1: depth-first over decision prefixes.
    while schedules < opts.max_schedules {
        let (trace, fail) = run_one(build(), opts, replay.clone(), None);
        schedules += 1;
        if let Some(message) = fail {
            failure = Some(ModelFailure {
                message,
                schedule: schedules,
                trace,
            });
            break;
        }
        match next_replay(&trace) {
            Some(next) => replay = next,
            None => {
                dfs_complete = true;
                break;
            }
        }
    }
    let dfs_schedules = schedules;

    // Phase 2: random top-up, so small DFS spaces still meet the
    // schedule floor (distinct seeds, duplicates allowed).
    if failure.is_none() {
        while schedules < opts.min_schedules && schedules < opts.max_schedules {
            let seed = opts
                .seed
                .wrapping_add(schedules as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            let (trace, fail) = run_one(build(), opts, Vec::new(), Some(seed | 1));
            schedules += 1;
            if let Some(message) = fail {
                failure = Some(ModelFailure {
                    message,
                    schedule: schedules,
                    trace,
                });
                break;
            }
        }
    }

    ExploreReport {
        model: name.to_string(),
        schedules,
        dfs_schedules,
        dfs_complete,
        failure,
    }
}
