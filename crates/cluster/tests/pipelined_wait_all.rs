//! `Session::wait_all` fetches a round's results in one pipeline: every
//! `result` request goes out before the first answer is read. These
//! tests drive it over real loopback TCP against a `MapServer` and
//! against a `Router` in front of two of them, plus a scripted server
//! that puts event frames between every pair of answers.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gmm_cluster::{Router, RouterOptions};
use gmm_service::protocol::render_response;
use gmm_service::{
    JobConfig, JobQueue, JobState, MapServer, Proto, QueueOptions, RemoteOutcome, Request,
    Response, Session, SubmitReceipt, SubmitSpec,
};
use gmm_workloads::{random_design, RandomDesignSpec};

const WAIT: Duration = Duration::from_secs(120);

fn spec(seed: u64) -> SubmitSpec {
    let design = random_design(&RandomDesignSpec {
        segments: 4,
        seed,
        ..RandomDesignSpec::default()
    });
    let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
    SubmitSpec::new(design, board, JobConfig::default())
}

fn start_backend() -> MapServer {
    let mut opts = QueueOptions::default();
    opts.workers = 2;
    MapServer::start("127.0.0.1:0", Arc::new(JobQueue::new(opts))).unwrap()
}

/// The two systems under test: one daemon, and a router over two.
enum Target {
    Server(MapServer),
    Routed {
        router: Router,
        _backends: Vec<MapServer>,
    },
}

impl Target {
    fn all() -> Vec<Target> {
        let backends = vec![start_backend(), start_backend()];
        let addrs = backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect();
        let router = Router::start("127.0.0.1:0", RouterOptions::new(addrs)).unwrap();
        vec![
            Target::Server(start_backend()),
            Target::Routed {
                router,
                _backends: backends,
            },
        ]
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Target::Server(s) => s.local_addr(),
            Target::Routed { router, .. } => router.local_addr(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Target::Server(_) => "mapsrv",
            Target::Routed { .. } => "router",
        }
    }
}

fn payload(out: &RemoteOutcome) -> String {
    serde_json::to_string(out.solution.as_ref().expect("a done job has a payload")).unwrap()
}

/// Every outcome answers its own receipt, in submission order, and
/// equal instances carry byte-identical payloads.
fn check_round(name: &str, seeds: &[u64], receipts: &[SubmitReceipt], outcomes: &[RemoteOutcome]) {
    assert_eq!(
        outcomes.len(),
        receipts.len(),
        "{name}: one outcome per job"
    );
    let mut by_seed = std::collections::HashMap::new();
    for ((seed, r), out) in seeds.iter().zip(receipts).zip(outcomes) {
        assert_eq!(
            out.job, r.job,
            "{name}: outcomes come back in submission order"
        );
        assert_eq!(out.state, JobState::Done, "{name}: job {}", out.job);
        let bytes = payload(out);
        let first = by_seed.entry(*seed).or_insert_with(|| bytes.clone());
        assert_eq!(
            *first, bytes,
            "{name}: seed {seed} answered with other bytes"
        );
    }
}

#[test]
fn outcomes_keep_submission_order_while_stats_frames_stream() {
    for target in Target::all() {
        let name = target.name();
        // A second client solves cold jobs throughout, so the session's
        // opted-in `stats` frames keep arriving between its answers.
        let stop = Arc::new(AtomicBool::new(false));
        let load = {
            let (stop, addr) = (stop.clone(), target.addr());
            thread::spawn(move || {
                let mut other = Session::connect(addr).unwrap();
                let mut seed = 10_000;
                while !stop.load(Ordering::Acquire) {
                    other
                        .submit_batch((seed..seed + 4).map(spec).collect())
                        .unwrap();
                    other.wait_all(WAIT).unwrap();
                    seed += 4;
                }
            })
        };
        let mut session = Session::connect(target.addr()).unwrap();
        session.stream_stats(true);
        for round in 0..12u64 {
            // Repeats inside a round: some answers are cache hits.
            let seeds: Vec<u64> = (0..8).map(|i| round * 5 + i % 6).collect();
            let receipts = session
                .submit_batch(seeds.iter().map(|&s| spec(s)).collect())
                .unwrap();
            let outcomes = session.wait_all(WAIT).unwrap();
            check_round(name, &seeds, &receipts, &outcomes);
        }
        assert_eq!(session.reconnects(), 0, "{name}");
        stop.store(true, Ordering::Release);
        load.join().unwrap();
    }
}

#[test]
fn rounds_larger_than_the_pipeline_window_complete() {
    for target in Target::all() {
        let name = target.name();
        let mut session = Session::connect(target.addr()).unwrap();
        session.stream_progress(false);
        // 150 jobs over 30 instances: more than two windows of requests.
        let seeds: Vec<u64> = (0..150).map(|i| i % 30).collect();
        let receipts = session
            .submit_batch(seeds.iter().map(|&s| spec(s)).collect())
            .unwrap();
        let outcomes = session.wait_all(WAIT).unwrap();
        check_round(name, &seeds, &receipts, &outcomes);
        assert!(
            session.inflight().is_empty(),
            "{name}: the round is drained"
        );
    }
}

/// A loopback proxy in front of `upstream` that cuts its first
/// connection once it has forwarded `cut_after` `result` answers, and
/// passes later connections through untouched.
fn cutting_proxy(upstream: SocketAddr, cut_after: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for (n, client) in listener.incoming().enumerate() {
            let Ok(mut client) = client else { return };
            let server = TcpStream::connect(upstream).unwrap();
            let mut to_server = server.try_clone().unwrap();
            let mut from_client = client.try_clone().unwrap();
            thread::spawn(move || {
                let _ = std::io::copy(&mut from_client, &mut to_server);
                let _ = to_server.shutdown(Shutdown::Write);
            });
            let limit = (n == 0).then_some(cut_after);
            thread::spawn(move || {
                let mut reader = BufReader::new(server.try_clone().unwrap());
                let mut results = 0;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    if line.starts_with(r#"{"ok":true,"verb":"result""#) {
                        if limit == Some(results) {
                            break;
                        }
                        results += 1;
                    }
                    if client.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                }
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
            });
        }
    });
    addr
}

#[test]
fn a_connection_cut_mid_pipeline_recovers_every_outcome_after_one_reconnect() {
    for target in Target::all() {
        let name = target.name();
        let proxy = cutting_proxy(target.addr(), 3);
        let mut session = Session::connect(proxy).unwrap();
        let seeds: Vec<u64> = (40..48).collect();
        let receipts = session
            .submit_batch(seeds.iter().map(|&s| spec(s)).collect())
            .unwrap();
        let outcomes = session.wait_all(WAIT).unwrap();
        check_round(name, &seeds, &receipts, &outcomes);
        assert_eq!(session.reconnects(), 1, "{name}: exactly one re-dial");
        // Only the unanswered requests were re-sent: no stray answer is
        // left to be mistaken for the next round's.
        let receipts = session
            .submit_batch(seeds.iter().map(|&s| spec(s)).collect())
            .unwrap();
        let outcomes = session.wait_all(WAIT).unwrap();
        check_round(name, &seeds, &receipts, &outcomes);
        assert_eq!(session.reconnects(), 1, "{name}");
    }
}

#[test]
fn v1_and_local_sessions_answer_the_bytes_the_pipeline_does() {
    let queue = Arc::new(JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 2;
        o
    }));
    let server = MapServer::start("127.0.0.1:0", queue.clone()).unwrap();
    let seeds: Vec<u64> = (60..68).collect();
    let mut v2 = Session::connect(server.local_addr()).unwrap();
    let mut v1 = Session::connect_with_proto(server.local_addr(), 1).unwrap();
    let mut local = Session::local(queue.clone());
    assert_eq!(
        (v2.proto(), v1.proto(), local.proto()),
        (Proto::V2, Proto::V1, Proto::Local)
    );
    let mut rounds = Vec::new();
    for session in [&mut v2, &mut v1, &mut local] {
        let receipts = session
            .submit_batch(seeds.iter().map(|&s| spec(s)).collect())
            .unwrap();
        let outcomes = session.wait_all(WAIT).unwrap();
        check_round("mapsrv", &seeds, &receipts, &outcomes);
        rounds.push(outcomes);
    }
    for (i, out) in rounds[0].iter().enumerate() {
        // The bytes the cache stores for the job are what every dialect
        // hands back.
        let stored = queue.outcome(out.job).unwrap().solution_json.unwrap();
        for round in &rounds {
            assert_eq!(payload(&round[i]), stored.solution_json);
            assert_eq!(round[i].objective, out.objective);
        }
    }
    assert!(
        rounds[1].iter().all(|o| o.termination.is_none()),
        "bare v1 polling carries no termination"
    );
    assert!(rounds[2].iter().all(|o| o.termination.is_some()));
}

/// A scripted daemon: every job is a finished cache hit, and every
/// `result` answer is preceded by a `state` event frame, so a pipelined
/// read meets an event between each pair of answers. Job ids count down, so
/// answers in any order but the requested one would be caught. `ahead`
/// records the most requests the stub held unanswered behind the one it
/// was answering.
fn chatty_stub(ahead: Arc<AtomicUsize>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut next_id = 100_000u64;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let mut text = String::new();
            match serde_json::from_str::<Request>(&line).unwrap() {
                Request::Hello { .. } => text.push_str(&render_response(&Response::Welcome {
                    proto: 2,
                    capabilities: vec![],
                })),
                Request::SubmitBatch { jobs, .. } => {
                    let ids: Vec<u64> = (0..jobs.len() as u64).map(|i| next_id - i).collect();
                    next_id -= jobs.len() as u64;
                    text.push_str(&render_response(&Response::BatchSubmitted {
                        jobs: ids
                            .iter()
                            .map(|&job| SubmitReceipt {
                                job,
                                state: JobState::Done,
                                cached: true,
                                key: "00".into(),
                            })
                            .collect(),
                    }));
                    for job in ids {
                        text.push_str(&format!(
                            "\n{{\"event\":\"state\",\"job\":{job},\"state\":\"done\"}}"
                        ));
                    }
                }
                Request::Result { job } => {
                    let queued = reader.buffer().iter().filter(|&&b| b == b'\n').count();
                    ahead.fetch_max(queued, Ordering::Relaxed);
                    text.push_str(&format!(
                        "{{\"event\":\"state\",\"job\":{job},\"state\":\"done\"}}\n"
                    ));
                    text.push_str(&render_response(&Response::ResultReady {
                        job,
                        state: JobState::Done,
                        cached: true,
                        objective: Some(job as f64),
                        solution: Some(serde_json::Value::UInt(job)),
                        error: None,
                    }));
                }
                other => panic!("unexpected request {other:?}"),
            }
            text.push('\n');
            if writer.write_all(text.as_bytes()).is_err() {
                return;
            }
        }
    });
    addr
}

#[test]
fn answers_are_pipelined_within_the_window_and_stay_in_order_between_events() {
    let ahead = Arc::new(AtomicUsize::new(0));
    let mut session = Session::connect(chatty_stub(ahead.clone())).unwrap();
    for (jobs, most_ahead) in [(8, 7..=7), (150, 32..=63)] {
        ahead.store(0, Ordering::Relaxed);
        let receipts = session.submit_batch((0..jobs).map(spec).collect()).unwrap();
        let outcomes = session.wait_all(WAIT).unwrap();
        assert_eq!(outcomes.len(), receipts.len());
        for (r, out) in receipts.iter().zip(&outcomes) {
            assert_eq!(out.job, r.job);
            assert_eq!(out.objective, Some(r.job as f64));
            assert_eq!(out.solution, Some(serde_json::Value::UInt(r.job)));
        }
        // All of a small round's requests arrive before the first answer
        // is written; a large one never runs more than 64 ahead.
        let seen = ahead.load(Ordering::Relaxed);
        assert!(
            most_ahead.contains(&seen),
            "{jobs} jobs: {seen} requests ahead"
        );
    }
}
