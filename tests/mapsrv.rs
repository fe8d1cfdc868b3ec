//! End-to-end test of the `mapsrv` batch mapping daemon.
//!
//! Drives the real TCP server with the real client over the JSON-lines
//! protocol: a batch of generated instances is submitted, solved, and
//! validated; the identical batch is then resubmitted and must be served
//! almost entirely from the content-addressed solution cache with
//! byte-identical payloads, which the simulator replays to confirm.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gmm_service::{
    JobConfig, JobQueue, JobSolution, JobState, MapClient, MapServer, QueueOptions, RemoteOutcome,
};
use gmm_workloads::{stream_instances, StreamInstance, StreamSpec};

const BATCH: usize = 20;
const WAIT: Duration = Duration::from_secs(300);

fn start_server() -> (MapServer, MapClient) {
    let queue = Arc::new(JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 4;
        o.cache_shards = 8;
        o
    }));
    let server = MapServer::start("127.0.0.1:0", queue).expect("bind ephemeral port");
    let client = MapClient::connect(server.local_addr()).expect("connect");
    (server, client)
}

fn instances() -> Vec<StreamInstance> {
    stream_instances(StreamSpec::default()).take(BATCH).collect()
}

fn submit_round(client: &mut MapClient, instances: &[StreamInstance]) -> Vec<(u64, bool)> {
    instances
        .iter()
        .map(|inst| {
            let (job, _state, cached) = client
                .submit(inst.design.clone(), inst.board.clone(), JobConfig::default())
                .expect("submit");
            (job, cached)
        })
        .collect()
}

fn wait_round(client: &mut MapClient, jobs: &[(u64, bool)]) -> Vec<RemoteOutcome> {
    jobs.iter()
        .map(|&(job, _)| client.wait(job, WAIT).expect("wait"))
        .collect()
}

fn solution_bytes(out: &RemoteOutcome) -> String {
    serde_json::to_string(out.solution.as_ref().expect("done job has a solution"))
        .expect("canonical render")
}

#[test]
fn mapsrv_end_to_end_batch_with_cache_hits() {
    let (server, mut client) = start_server();
    let instances = instances();

    // Round 1: everything solves cold and optimally.
    let jobs = submit_round(&mut client, &instances);
    let cold = wait_round(&mut client, &jobs);
    let mut cold_bytes = Vec::with_capacity(BATCH);
    for (inst, out) in instances.iter().zip(&cold) {
        assert_eq!(
            out.state,
            JobState::Done,
            "{}: {:?}",
            inst.name,
            out.error
        );
        assert!(out.objective.is_some(), "{}: no objective", inst.name);

        // The solution must be a valid optimal mapping, not just bytes:
        // deserialize and check it against the instance.
        let solution: JobSolution =
            serde_json::from_str(&solution_bytes(out)).expect("solution deserializes");
        assert_eq!(solution.global.type_of.len(), inst.design.num_segments());
        let violations =
            gmm_core::validate_detailed(&inst.design, &inst.board, &solution.detailed);
        assert!(violations.is_empty(), "{}: {violations:?}", inst.name);

        cold_bytes.push(solution_bytes(out));
    }

    // Round 2: the identical batch must be ≥95% cache hits...
    let jobs2 = submit_round(&mut client, &instances);
    let hits = jobs2.iter().filter(|&&(_, cached)| cached).count();
    assert!(
        hits as f64 >= 0.95 * BATCH as f64,
        "only {hits}/{BATCH} resubmissions hit the cache"
    );

    // ...each byte-identical to its cold solve and replay-identical in the
    // simulator.
    let warm = wait_round(&mut client, &jobs2);
    for ((inst, out), cold_json) in instances.iter().zip(&warm).zip(&cold_bytes) {
        assert_eq!(out.state, JobState::Done, "{}", inst.name);
        let warm_json = solution_bytes(out);
        assert_eq!(&warm_json, cold_json, "{}: cache hit not byte-identical", inst.name);

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

    // Stats verb agrees with what we observed.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, 2 * BATCH as u64);
    assert_eq!(stats.jobs_completed, 2 * BATCH as u64);
    assert_eq!(stats.jobs_failed, 0);
    assert!(stats.cache_hits >= hits as u64);
    assert_eq!(stats.cache_entries, BATCH as u64);
    assert_eq!(stats.workers, 4);

    // Clean shutdown over the wire.
    client.shutdown().expect("shutdown verb");
    server.join();
}

#[test]
fn mapsrv_cancel_verb_and_job_deadlines_over_tcp() {
    let (server, mut client) = start_server();
    // Second-scale instance, so the cancel/deadline lands mid-solve.
    let (design, board) = gmm_workloads::slow_table3_instance();

    // Cancel a running job: submit, let a worker claim it, fire cancel.
    let (job, _, cached) = client
        .submit(design.clone(), board.clone(), JobConfig::default())
        .expect("submit");
    assert!(!cached);
    std::thread::sleep(Duration::from_millis(200));
    let at_call = client.cancel(job).expect("cancel verb");
    assert!(
        matches!(
            at_call,
            JobState::Running | JobState::Queued | JobState::Cancelled | JobState::Done
        ),
        "unexpected cancel-time state {at_call:?}"
    );
    // The job must reach a structured terminal state observable via poll
    // (`cancelled` unless the solve won the race).
    let out = client.wait(job, WAIT).expect("wait after cancel");
    assert!(
        matches!(out.state, JobState::Cancelled | JobState::Done),
        "unexpected terminal state {:?}",
        out.state
    );
    if out.state == JobState::Cancelled {
        assert!(out.error.as_deref().unwrap().contains("cancelled"));
        assert!(out.solution.is_none(), "cancelled jobs ship no payload");
        let stats = client.stats().expect("stats");
        assert!(stats.jobs_cancelled >= 1, "stats must count the cancel");
        assert_eq!(stats.jobs_failed, 0, "cancellation is not a failure");
    }

    // Cancelling an unknown id is a structured remote error.
    match client.cancel(424_242) {
        Err(gmm_service::ClientError::Remote(msg)) => assert!(msg.contains("unknown job")),
        other => panic!("expected remote error, got {other:?}"),
    }

    // Per-job deadline over the wire: 50ms against a second-scale solve.
    let (job2, _, _) = client
        .submit_with_deadline(
            design,
            board,
            JobConfig::default(),
            Some(Duration::from_millis(50)),
        )
        .expect("submit with deadline");
    let out2 = client.wait(job2, WAIT).expect("wait for deadline'd job");
    assert_eq!(out2.state, JobState::Deadline, "err: {:?}", out2.error);
    assert!(out2.error.as_deref().unwrap().contains("deadline"));
    let stats = client.stats().expect("stats");
    assert!(stats.jobs_deadline >= 1);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn mapsrv_survives_malformed_and_unknown_requests() {
    let (server, mut client) = start_server();

    // Raw socket: garbage lines get an error response, connection stays up.
    let stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    for bad in ["this is not json", "{\"verb\":\"frobnicate\"}", "{\"verb\":\"poll\"}"] {
        writer.write_all(bad.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"ok\":false"),
            "expected error response to {bad:?}, got {line:?}"
        );
    }

    // Unknown job ids are remote errors, not hangs or disconnects.
    match client.poll(424242) {
        Err(gmm_service::ClientError::Remote(msg)) => assert!(msg.contains("unknown job")),
        other => panic!("expected remote error, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn mapsrv_answers_hostile_nesting_with_an_error_and_keeps_serving() {
    let (server, mut client) = start_server();

    // One line of 200k `[` used to overflow the connection thread's stack
    // and abort the daemon. It must get one error frame, and the same
    // connection must go on answering.
    let stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all("[".repeat(200_000).as_bytes()).unwrap();
    writer.write_all(b"\n{\"verb\":\"stats\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("nesting deeper than"),
        "expected a nesting error frame, got {line:?}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true") && line.contains("\"stats\""), "got {line:?}");

    client.shutdown().expect("shutdown");
    server.join();
}
