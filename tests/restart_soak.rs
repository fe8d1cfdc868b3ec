//! Restart soak for the persistent cache tier, end-to-end over TCP.
//!
//! A mapsrv daemon with a `--cache-dir` solves a batch, is hard-stopped
//! (simulated by tearing the final appended record — exactly the
//! artifact a `kill -9` mid-append leaves), and a fresh daemon on the
//! same directory gets the identical batch resubmitted. The second
//! daemon must answer from the disk tier: nonzero `disk_hits` in the
//! `stats` verb, zero `disk_corrupt` (a torn tail is recovery, not
//! damage), and payloads byte-identical to the first daemon's cold
//! solves — confirmed by replaying each mapping in the simulator.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use gmm_service::{JobConfig, JobQueue, JobState, MapClient, MapServer, QueueOptions};
use gmm_workloads::{stream_instances, StreamInstance, StreamSpec};

const BATCH: usize = 10;
const WAIT: Duration = Duration::from_secs(300);

fn start_server(dir: &Path) -> (MapServer, MapClient) {
    let queue = Arc::new(JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 4;
        o.cache_shards = 8;
        o.persist_dir = Some(dir.to_path_buf());
        o
    }));
    let server = MapServer::start("127.0.0.1:0", queue).expect("bind ephemeral port");
    let client = MapClient::connect(server.local_addr()).expect("connect");
    (server, client)
}

fn instances() -> Vec<StreamInstance> {
    stream_instances(StreamSpec::default())
        .take(BATCH)
        .collect()
}

fn solution_bytes(out: &gmm_service::RemoteOutcome) -> String {
    serde_json::to_string(out.solution.as_ref().expect("done job has a solution"))
        .expect("canonical render")
}

#[test]
fn restarted_daemon_serves_the_batch_byte_identically_from_disk() {
    let dir = std::env::temp_dir().join(format!(
        "gmm-restart-soak-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let instances = instances();

    // ---- Daemon 1: solve the whole batch cold. --------------------------
    let (server, mut client) = start_server(&dir);
    let jobs: Vec<u64> = instances
        .iter()
        .map(|inst| {
            let (job, _, cached) = client
                .submit(
                    inst.design.clone(),
                    inst.board.clone(),
                    JobConfig::default(),
                )
                .expect("submit");
            assert!(!cached, "{}: first sight must solve cold", inst.name);
            job
        })
        .collect();
    let mut cold_bytes = Vec::with_capacity(BATCH);
    for (inst, &job) in instances.iter().zip(&jobs) {
        let out = client.wait(job, WAIT).expect("wait");
        assert_eq!(out.state, JobState::Done, "{}: {:?}", inst.name, out.error);
        cold_bytes.push(solution_bytes(&out));
    }
    let stats1 = client.stats().expect("stats");
    assert_eq!(
        stats1.disk_entries, BATCH as u64,
        "every optimal solve persists"
    );
    assert_eq!(stats1.disk_hits, 0, "nothing was on disk to hit yet");
    assert_eq!(stats1.disk_corrupt, 0);
    client.shutdown().expect("shutdown verb");
    server.join();

    // ---- Hard stop: tear the final record, as kill -9 mid-append would. --
    let log = dir.join("cache.log");
    let bytes = std::fs::read(&log).expect("segment log exists");
    assert!(bytes.len() > 16, "log must hold the batch");
    std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();

    // ---- Daemon 2: same directory, empty memory. -------------------------
    let (server, mut client) = start_server(&dir);
    let mut disk_served = 0usize;
    let jobs2: Vec<(u64, bool)> = instances
        .iter()
        .map(|inst| {
            let (job, state, cached) = client
                .submit(
                    inst.design.clone(),
                    inst.board.clone(),
                    JobConfig::default(),
                )
                .expect("resubmit");
            if cached {
                // A disk hit completes the job at submit time.
                assert_eq!(state, JobState::Done, "{}", inst.name);
                disk_served += 1;
            }
            (job, cached)
        })
        .collect();
    // At most one record was torn, so at most one instance re-solves.
    assert!(
        disk_served >= BATCH - 1,
        "only {disk_served}/{BATCH} resubmissions were served from disk"
    );

    for ((inst, &(job, cached)), cold_json) in instances.iter().zip(&jobs2).zip(&cold_bytes) {
        let out = client.wait(job, WAIT).expect("wait");
        assert_eq!(out.state, JobState::Done, "{}: {:?}", inst.name, out.error);
        if !cached {
            continue; // the torn record's instance re-solved; Done is enough
        }
        let warm_json = solution_bytes(&out);
        assert_eq!(
            &warm_json, cold_json,
            "{}: disk-tier payload differs from the original solve",
            inst.name
        );
        // Byte-identity and a full simulator replay of the mapping.
        let detail = |json: &str| {
            let v: serde::Value = serde_json::from_str(json).unwrap();
            serde_json::to_string(v.get("detailed").expect("detailed field")).unwrap()
        };
        gmm_sim::validate_cache_hit(
            &inst.design,
            &inst.board,
            &detail(cold_json),
            &detail(&warm_json),
        )
        .unwrap_or_else(|e| panic!("{}: replay validation failed: {e}", inst.name));
    }

    let stats2 = client.stats().expect("stats");
    assert!(
        stats2.disk_hits >= (BATCH - 1) as u64,
        "stats must count the disk-tier hits: {stats2:?}"
    );
    assert_eq!(
        stats2.disk_corrupt, 0,
        "a torn tail is expected crash recovery, never corruption"
    );
    assert_eq!(
        stats2.cache_entries as usize, BATCH,
        "disk hits promote into the memory tier (and any re-solve re-enters it)"
    );

    client.shutdown().expect("shutdown verb");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
