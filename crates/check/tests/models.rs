//! Checker self-tests: the explorer must hold the clean models under
//! every explored interleaving and must catch both planted bug
//! classes. Scheduling hooks in the compat layers only exist in debug
//! builds, so everything here is gated on `debug_assertions` — in a
//! release build these tests compile to nothing, exactly like the
//! instrumentation itself.
#![cfg(debug_assertions)]

use gmm_check::explore::{explore, ExploreOpts, ModelRun};
use gmm_check::models::{self, bugs};
use std::sync::Arc;

/// Tight budget for unit tests; `gmm check` uses larger defaults.
fn quick_opts() -> ExploreOpts {
    ExploreOpts {
        preemption_bound: 2,
        max_schedules: 2_000,
        min_schedules: 100,
        max_steps: 50_000,
        seed: 7,
    }
}

#[test]
fn clean_models_hold_under_exploration() {
    for model in models::clean_models() {
        let report = explore(model.name, &quick_opts(), model.build);
        assert!(
            report.ok(),
            "model `{}` failed:\n{}",
            model.name,
            report
                .failure
                .as_ref()
                .map(|f| f.to_string())
                .unwrap_or_default()
        );
        assert!(
            report.schedules >= 100,
            "model `{}` explored only {} schedules",
            model.name,
            report.schedules
        );
    }
}

#[test]
fn explorer_catches_the_planted_lost_wakeup() {
    let report = explore("lost-wakeup", &quick_opts(), bugs::lost_wakeup);
    let failure = report
        .failure
        .expect("the TOCTOU lost wakeup must be found");
    assert!(
        failure.message.contains("deadlock"),
        "lost wakeup should surface as a deadlock (consumer sleeps forever): {}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "a failing schedule must carry its reproducing decision trace"
    );
}

#[test]
fn explorer_catches_the_planted_abba_deadlock() {
    let report = explore("abba", &quick_opts(), bugs::abba);
    let failure = report.failure.expect("the ABBA cycle must be found");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure message: {}",
        failure.message
    );
}

#[test]
fn planted_bugs_are_found_within_the_ci_budget() {
    // `gmm check --preemption-bound 2` promises ≥ 1000 schedules per
    // model; both planted bugs must fall well inside that budget so the
    // CI quick suite would catch a regression of either protection.
    for (name, build) in [
        ("lost-wakeup", bugs::lost_wakeup as fn() -> ModelRun),
        ("abba", bugs::abba as fn() -> ModelRun),
    ] {
        let report = explore(name, &quick_opts(), build);
        let failure = report
            .failure
            .unwrap_or_else(|| panic!("{name} not caught"));
        assert!(
            failure.schedule <= 1000,
            "{name} took {} schedules to find, beyond the CI floor",
            failure.schedule
        );
    }
}

#[test]
fn random_top_up_meets_the_schedule_floor() {
    // A two-thread model with a single uncontended handoff exhausts its
    // DFS space almost immediately; the seeded random phase must still
    // top the count up to the requested floor.
    let build = || {
        let flag = Arc::new(parking_lot::Mutex::new(0u32));
        let t1 = {
            let flag = flag.clone();
            Box::new(move || *flag.lock() += 1) as Box<dyn FnOnce() + Send>
        };
        let t2 = {
            let flag = flag.clone();
            Box::new(move || *flag.lock() += 1) as Box<dyn FnOnce() + Send>
        };
        let check = Box::new(move || assert_eq!(*flag.lock(), 2)) as Box<dyn FnOnce()>;
        ModelRun {
            threads: vec![t1, t2],
            check,
        }
    };
    let opts = ExploreOpts {
        min_schedules: 64,
        max_schedules: 200,
        ..quick_opts()
    };
    let report = explore("handoff", &opts, build);
    assert!(report.ok());
    assert!(report.dfs_complete, "tiny model must exhaust its DFS space");
    assert_eq!(report.schedules, 64, "random phase must fill to the floor");
}

#[test]
fn exploration_is_deterministic() {
    // Same model, same options → byte-identical outcome; resumable CI
    // runs and bisections depend on this.
    let a = explore("queue", &quick_opts(), models::clean_models()[2].build);
    let b = explore("queue", &quick_opts(), models::clean_models()[2].build);
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.dfs_schedules, b.dfs_schedules);
    assert_eq!(a.dfs_complete, b.dfs_complete);
    assert!(a.ok() && b.ok());
}
