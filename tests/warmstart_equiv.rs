//! Warm-start hint equivalence: seeding branch-and-bound with a
//! persisted family hint must change *how fast* a solve converges, never
//! *what* it returns.
//!
//! Two layers are pinned down:
//!
//! * the `gmm_api` facade: a solve seeded with an optimal assignment
//!   reports `incumbent_seeded`, reaches the same optimal objective, and
//!   produces a byte-identical payload (only strictly better incumbents
//!   may replace the seed, and the detailed phase is deterministic in
//!   the global assignment);
//! * the service queue: with a `persist_dir`, solving one member of an
//!   instance family (same design/config, different board constants)
//!   leaves a hint that a later family member's cold solve picks up —
//!   observable end-to-end in `JobQueue::stats` as `hint_hits` and accepted
//!   incumbent seeds.

use std::time::Duration;

use gmm_api::{MapRequest, Termination};
use gmm_arch::Board;
use gmm_service::{
    canonical_json, family_key, instance_key, JobConfig, JobQueue, JobSolution, JobState,
    QueueOptions,
};
use gmm_workloads::{random_design, RandomDesignSpec};

fn instance(seed: u64, segments: usize) -> (gmm_design::Design, Board) {
    let design = random_design(&RandomDesignSpec {
        segments,
        depth: (16, 512),
        width: (1, 8),
        seed,
        ..RandomDesignSpec::default()
    });
    (design, Board::prototyping("XCV300", 2).unwrap())
}

fn payload(report: &gmm_api::MapReport) -> String {
    let outcome = report
        .outcome
        .as_ref()
        .expect("optimal report has an outcome");
    canonical_json(&JobSolution {
        global: outcome.global.clone(),
        detailed: outcome.detailed.clone(),
    })
}

#[test]
fn hinted_solve_is_byte_identical_to_cold_and_counts_the_seed() {
    for seed in [3u64, 17, 55] {
        let (design, board) = instance(seed, 8);

        let cold = MapRequest::new(design.clone(), board.clone())
            .execute()
            .expect("cold solve");
        assert_eq!(cold.termination, Termination::Optimal, "seed {seed}");
        assert_eq!(cold.incumbent_seeded, 0, "no hint was offered");
        let cold_json = payload(&cold);
        let hint: Vec<u32> = cold
            .outcome
            .as_ref()
            .unwrap()
            .global
            .type_of
            .iter()
            .map(|t| t.0 as u32)
            .collect();

        let hinted = MapRequest::new(design, board)
            .warm_hint(hint)
            .execute()
            .expect("hinted solve");
        assert_eq!(hinted.termination, Termination::Optimal, "seed {seed}");
        assert!(
            hinted.incumbent_seeded >= 1,
            "seed {seed}: a feasible optimal hint must be accepted as the incumbent"
        );
        assert_eq!(
            hinted.objective, cold.objective,
            "seed {seed}: hint changed the optimal objective"
        );
        assert_eq!(
            payload(&hinted),
            cold_json,
            "seed {seed}: hint changed the solution bytes — only strictly \
             better incumbents may replace the seed"
        );
        // A seeded incumbent can only shrink the tree, never grow it.
        assert!(
            hinted.nodes_explored <= cold.nodes_explored,
            "seed {seed}: hinted tree ({}) larger than cold tree ({})",
            hinted.nodes_explored,
            cold.nodes_explored
        );
        if hinted.nodes_explored > 1 {
            assert!(
                hinted.warm_started_nodes > 0,
                "seed {seed}: a multi-node hinted solve must warm-start children"
            );
        }
    }
}

#[test]
fn misfit_hints_are_silently_dropped_not_fatal() {
    let (design, board) = instance(91, 6);
    let cold = MapRequest::new(design.clone(), board.clone())
        .execute()
        .expect("cold solve");
    assert_eq!(cold.termination, Termination::Optimal);

    // Wrong segment count: structurally impossible, must be discarded.
    let short = MapRequest::new(design.clone(), board.clone())
        .warm_hint(vec![0])
        .execute()
        .expect("short-hint solve");
    assert_eq!(short.incumbent_seeded, 0, "misfit hint must not seed");
    assert_eq!(short.objective, cold.objective);
    assert_eq!(payload(&short), payload(&cold));

    // Out-of-range bank type index: no matching variable, discarded too.
    let bogus = MapRequest::new(design.clone(), board)
        .warm_hint(vec![99; design.num_segments()])
        .execute()
        .expect("bogus-hint solve");
    assert_eq!(bogus.incumbent_seeded, 0);
    assert_eq!(bogus.objective, cold.objective);
}

#[test]
fn family_hint_seeds_a_sibling_solve_through_the_queue() {
    // Two boards differing only in a numeric constant (SRAM bank count)
    // are distinct *instances* but the same *family*: board numbers are
    // masked out of the family hash.
    let (design, board_a) = instance(7, 7);
    let board_b = Board::prototyping("XCV300", 3).unwrap();
    let cfg = JobConfig::default();
    assert_ne!(
        instance_key(&design, &board_a, &cfg),
        instance_key(&design, &board_b, &cfg),
        "different boards must be different cache keys"
    );
    assert_eq!(
        family_key(&design, &board_a, &cfg),
        family_key(&design, &board_b, &cfg),
        "boards differing only in constants must share a family"
    );

    let dir = std::env::temp_dir().join(format!(
        "gmm-warmstart-equiv-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let queue = JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 1;
        o.persist_dir = Some(dir.clone());
        o
    });
    let a = queue.submit(design.clone(), board_a, cfg.clone());
    assert_eq!(
        queue.wait(a.id, Duration::from_secs(120)).unwrap().state,
        JobState::Done
    );
    let after_a = queue.stats();
    assert_eq!(after_a.hint_entries, 1, "optimal solve must leave a hint");
    assert_eq!(
        after_a.hint_hits, 0,
        "first family member had nothing to read"
    );

    // The sibling is a cold solve (different instance key), but its
    // family hint is on disk: offered, and — being feasible on the
    // larger board — accepted as the starting incumbent.
    let b = queue.submit(design.clone(), board_b, cfg);
    assert!(!b.cached, "a family sibling is not a cache hit");
    let out = queue.wait(b.id, Duration::from_secs(120)).unwrap();
    assert_eq!(out.state, JobState::Done);

    // Reference: the same sibling solved with no service layer at all.
    let reference = MapRequest::new(design, Board::prototyping("XCV300", 3).unwrap())
        .execute()
        .expect("reference solve");
    assert_eq!(reference.termination, Termination::Optimal);
    let got = out.objective.expect("done job has an objective");
    let want = reference
        .objective
        .expect("optimal report has an objective");
    assert!(
        (got - want).abs() <= 1e-6 * want.abs().max(1.0),
        "hinted queue solve objective {got} != cold reference {want}"
    );

    let s = queue.stats();
    assert!(s.hint_hits >= 1, "sibling solve must read the family hint");
    assert!(
        s.incumbent_seeded >= 1,
        "a feasible family hint must be accepted as the incumbent: {s:?}"
    );
    drop(queue);
    let _ = std::fs::remove_dir_all(&dir);
}
