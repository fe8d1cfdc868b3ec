//! Retention soak: bounded memory under sustained, repetitive load.
//!
//! The batch service promises that a long-running daemon holds
//! *steady-state* memory: the solution cache never exceeds its capacity
//! (LRU eviction), terminal job records never exceed their per-shard
//! count cap (pruning), and neither bound is allowed to corrupt the
//! byte-identity contract — an evicted key that is re-submitted must
//! re-solve to the byte-identical payload of its original cold solve,
//! and a pruned job id must answer with the structured `expired` state
//! over TCP rather than a hang, a panic, or a misleading "unknown job".

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use gmm_service::{
    JobConfig, JobQueue, JobState, MapClient, MapServer, QueueOptions, RECORD_SHARDS,
};
use gmm_workloads::{cycling_instances, StreamSpec};

const WAIT: Duration = Duration::from_secs(300);

/// Distinct instance pool; must exceed CACHE_CAP so laps evict.
const DISTINCT: usize = 9;
/// Solution-cache capacity under test.
const CACHE_CAP: usize = 4;
/// Terminal records retained per record shard.
const RETAIN_JOBS: usize = 2;
/// Total submissions: > 10 × CACHE_CAP, several full laps of the pool.
const SUBMISSIONS: usize = 45;

#[test]
fn eviction_soak_over_tcp_stays_bounded_and_byte_identical() {
    let queue = Arc::new(JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 4;
        o.cache_shards = 4;
        o.cache_cap = CACHE_CAP;
        o.retain_jobs = RETAIN_JOBS;
        o
    }));
    let server = MapServer::start("127.0.0.1:0", queue).expect("bind ephemeral port");
    let mut client = MapClient::connect(server.local_addr()).expect("connect");

    // Reference payload per instance name, captured at its first solve.
    let mut reference: HashMap<String, String> = HashMap::new();
    let mut job_ids = Vec::with_capacity(SUBMISSIONS);

    for inst in cycling_instances(StreamSpec::default(), DISTINCT).take(SUBMISSIONS) {
        let (job, _state, _cached) = client
            .submit(
                inst.design.clone(),
                inst.board.clone(),
                JobConfig::default(),
            )
            .expect("submit");
        job_ids.push(job);
        let out = client.wait(job, WAIT).expect("wait");
        assert_eq!(out.state, JobState::Done, "{}: {:?}", inst.name, out.error);
        let payload = serde_json::to_string(out.solution.as_ref().expect("solution"))
            .expect("canonical render");

        match reference.get(&inst.name) {
            None => {
                reference.insert(inst.name.clone(), payload);
            }
            Some(cold) => {
                // Whether this lap hit the cache or re-solved after an
                // eviction, the bytes must match the original cold solve —
                // and the payload must still replay as a valid mapping.
                assert_eq!(
                    &payload, cold,
                    "{}: resubmission (possibly post-eviction) not byte-identical",
                    inst.name
                );
                let detail = |json: &str| {
                    let v: serde::Value = serde_json::from_str(json).unwrap();
                    serde_json::to_string(v.get("detailed").expect("detailed field")).unwrap()
                };
                gmm_sim::validate_cache_hit(
                    &inst.design,
                    &inst.board,
                    &detail(cold),
                    &detail(&payload),
                )
                .unwrap_or_else(|e| panic!("{}: replay validation failed: {e}", inst.name));
            }
        }

        // The cache bound holds at every step, not just at the end.
        let stats = client.stats().expect("stats");
        assert!(
            stats.cache_entries <= CACHE_CAP as u64,
            "cache grew past its cap: {} > {CACHE_CAP}",
            stats.cache_entries
        );
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, SUBMISSIONS as u64);
    assert_eq!(stats.jobs_failed, 0);
    assert!(
        stats.cache_evictions > 0,
        "a {DISTINCT}-instance pool over a {CACHE_CAP}-entry cache must evict"
    );
    assert_eq!(stats.cache_cap, CACHE_CAP as u64);
    assert_eq!(stats.retain_jobs, RETAIN_JOBS as u64);
    assert!(
        stats.jobs_pruned > 0,
        "{SUBMISSIONS} terminal records over {RECORD_SHARDS}x{RETAIN_JOBS} slots must prune"
    );
    // Terminal-record bound: at most RETAIN_JOBS per shard remain known.
    let still_known = job_ids
        .iter()
        .filter(|&&id| matches!(client.poll(id), Ok(s) if s != JobState::Expired))
        .count();
    assert!(
        still_known <= RECORD_SHARDS * RETAIN_JOBS,
        "{still_known} live terminal records exceed the per-shard cap"
    );

    // A pruned job id answers with the structured expired state on both
    // verbs — never a hang, never ok:false "unknown job".
    let oldest = job_ids[0];
    assert_eq!(
        client.poll(oldest).expect("poll expired id"),
        JobState::Expired,
        "the oldest terminal record must have been pruned"
    );
    let expired = client.result(oldest).expect("result on expired id");
    assert_eq!(expired.state, JobState::Expired);
    assert!(expired.solution.is_none());
    assert!(
        expired.error.as_deref().unwrap_or("").contains("expired"),
        "expired result must explain itself: {:?}",
        expired.error
    );
    // ...while a genuinely unknown id is still an error, distinguishable
    // from expiry.
    match client.poll(999_999) {
        Err(gmm_service::ClientError::Remote(msg)) => assert!(msg.contains("unknown job")),
        other => panic!("unknown id must stay a remote error, got {other:?}"),
    }

    client.shutdown().expect("shutdown verb");
    server.join();
}

#[test]
fn concurrent_submitters_keep_stats_truthful_under_eviction() {
    let queue = Arc::new(JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 4;
        o.cache_shards = 4;
        o.cache_cap = CACHE_CAP;
        o
    }));

    // Two submitters race the same cycling pool through the queue: every
    // key is inserted by whichever worker solves it first, duplicates are
    // first-writer-wins, and eviction churns continuously.
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let queue = queue.clone();
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                for inst in cycling_instances(StreamSpec::default(), DISTINCT).take(DISTINCT * 2) {
                    ids.push((
                        inst.name.clone(),
                        queue
                            .submit(inst.design, inst.board, JobConfig::default())
                            .id,
                    ));
                }
                ids
            })
        })
        .collect();
    let submitted: Vec<(String, u64)> = submitters
        .into_iter()
        .flat_map(|t| t.join().expect("submitter thread"))
        .collect();

    assert!(queue.wait_idle(WAIT), "queue must drain");

    // Every outcome for the same instance name carries identical bytes,
    // no matter which submitter won which race or what was evicted when.
    let mut payload_of: HashMap<String, String> = HashMap::new();
    for (name, id) in &submitted {
        let out = queue.outcome(*id).expect("issued id is never unknown");
        assert_eq!(out.state, JobState::Done, "{name}: {:?}", out.error);
        let bytes = out
            .solution_json
            .expect("done job has payload")
            .solution_json
            .clone();
        payload_of
            .entry(name.clone())
            .and_modify(|seen| assert_eq!(seen, &bytes, "{name}: divergent payloads"))
            .or_insert(bytes);
    }
    assert_eq!(payload_of.len(), DISTINCT);

    // Stats stay truthful: live entries within cap and equal to the
    // ground-truth map size, every lookup counted exactly once.
    let s = queue.stats();
    assert!(s.cache_entries <= CACHE_CAP as u64);
    assert_eq!(s.cache_entries, queue.cache().len() as u64);
    assert_eq!(
        s.cache_hits + s.cache_misses,
        s.jobs_submitted,
        "each submission performs exactly one counted lookup"
    );
    assert_eq!(s.jobs_submitted, (DISTINCT * 4) as u64);
    assert_eq!(s.jobs_completed, s.jobs_submitted);
    assert_eq!(s.jobs_failed, 0);
    queue.shutdown();
}
