//! Hostile frames sent to `gmm route` get structured errors, and the
//! router keeps serving the connection that sent them. A backend that
//! sends an over-long line, or an answer that does not decode, is
//! declared lost like one that hangs up.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmm_cluster::{Router, RouterOptions, ShardMap};
use gmm_service::{
    instance_key, JobConfig, JobQueue, JobState, MapServer, QueueOptions, Request, Response,
    Session, SubmitReceipt, SubmitSpec, CAPABILITIES, MAX_FRAME_BYTES, PROTO_VERSION,
};
use serde::MAX_DEPTH;

#[test]
fn router_answers_hostile_nesting_with_an_error_and_keeps_serving() {
    let backend = MapServer::start(
        "127.0.0.1:0",
        Arc::new(JobQueue::new(QueueOptions::default())),
    )
    .unwrap();
    let router = Router::start(
        "127.0.0.1:0",
        RouterOptions::new(vec![backend.local_addr().to_string()]),
    )
    .unwrap();

    // One line of 200k `[` used to overflow the connection thread's stack
    // and abort the router.
    let stream = TcpStream::connect(router.local_addr()).unwrap();
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
    assert!(
        line.contains("\"ok\":true") && line.contains("\"stats\""),
        "got {line:?}"
    );
}

#[test]
fn router_closes_an_over_long_line_after_one_error_frame() {
    let backend = MapServer::start(
        "127.0.0.1:0",
        Arc::new(JobQueue::new(QueueOptions::default())),
    )
    .unwrap();
    let router = Router::start(
        "127.0.0.1:0",
        RouterOptions::new(vec![backend.local_addr().to_string()]),
    )
    .unwrap();

    // One byte past the cap and no newline: one error frame, then EOF.
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // A daemon that kept reading would never answer; fail instead of hanging.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(&vec![b' '; MAX_FRAME_BYTES + 1]).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("frame longer than"),
        "expected a frame-size error, got {line:?}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "got {line:?}");

    // A fresh connection still gets `stats` answered.
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut frame = serde_json::to_string(&Request::Stats).unwrap();
    frame.push('\n');
    writer.write_all(frame.as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        matches!(serde_json::from_str(&line), Ok(Response::Stats(_))),
        "got {line:?}"
    );
}

/// A backend that negotiates protocol v2 and accepts one `submit_batch`
/// frame, then sends `MAX_FRAME_BYTES + 1` bytes with no newline and
/// keeps its socket open. It answers every other verb with an error.
fn start_runaway_backend() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let answer = match serde_json::from_str::<Request>(&line) {
                        Ok(Request::Hello { .. }) => Response::Welcome {
                            proto: PROTO_VERSION,
                            capabilities: CAPABILITIES.iter().map(|c| c.to_string()).collect(),
                        },
                        Ok(Request::SubmitBatch { jobs, .. }) => Response::BatchSubmitted {
                            jobs: (1..=jobs.len() as u64)
                                .map(|job| SubmitReceipt {
                                    job,
                                    state: JobState::Queued,
                                    cached: false,
                                    key: "00".into(),
                                })
                                .collect(),
                        },
                        _ => Response::Error {
                            message: "stub".into(),
                        },
                    };
                    let runaway = matches!(answer, Response::BatchSubmitted { .. });
                    let mut frame = serde_json::to_string(&answer).unwrap();
                    frame.push('\n');
                    if writer.write_all(frame.as_bytes()).is_err() {
                        return;
                    }
                    if runaway {
                        // Hold the socket open: only the length bound
                        // can end the router's read.
                        let _ = writer.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]);
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

#[test]
fn router_drops_a_backend_that_sends_an_over_long_line() {
    let mut opts = QueueOptions::default();
    opts.workers = 1;
    let good = MapServer::start("127.0.0.1:0", Arc::new(JobQueue::new(opts))).unwrap();
    let runaway = start_runaway_backend();
    let backends = vec![good.local_addr().to_string(), runaway.clone()];
    let ring = ShardMap::new(&backends, 0);
    let router = Router::start("127.0.0.1:0", RouterOptions::new(backends)).unwrap();

    // Distinct instances until both backends own some.
    let config = JobConfig::default();
    let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
    let mut specs = Vec::new();
    let mut on_runaway = 0;
    for seed in 0.. {
        let design = gmm_workloads::random_design(&gmm_workloads::RandomDesignSpec {
            segments: 4,
            seed,
            ..gmm_workloads::RandomDesignSpec::default()
        });
        if ring.owner(instance_key(&design, &board, &config).0) == runaway {
            on_runaway += 1;
        }
        specs.push(SubmitSpec::new(design, board.clone(), config.clone()));
        if on_runaway >= 2 && specs.len() > on_runaway {
            break;
        }
    }

    let mut session = Session::connect(router.local_addr()).unwrap();
    session.submit_batch(specs.clone()).unwrap();
    let outcomes = session.wait_all(Duration::from_secs(120)).unwrap();
    assert_eq!(outcomes.len(), specs.len());
    for out in &outcomes {
        assert_eq!(out.state, JobState::Done, "{out:?}");
    }
    let stats = session.stats().unwrap();
    assert!(
        stats.jobs_submitted >= specs.len() as u64,
        "the good backend ran every job: {stats:?}"
    );
}

/// A backend that negotiates protocol v2 and answers `result` for job 1
/// with a truncated `solution`, and for job 2 with a frame nested one
/// level deeper than `MAX_DEPTH`.
fn start_corrupt_result_backend() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let head = r#"{"ok":true,"verb":"result","state":"done","cached":true,"objective":1.0"#;
                    let mut frame = match serde_json::from_str::<Request>(&line) {
                        Ok(Request::Hello { .. }) => serde_json::to_string(&Response::Welcome {
                            proto: PROTO_VERSION,
                            capabilities: CAPABILITIES.iter().map(|c| c.to_string()).collect(),
                        })
                        .unwrap(),
                        Ok(Request::Result { job: 1 }) => {
                            format!(r#"{head},"job":1,"solution":{{"corrupt":[1,"#)
                        }
                        // The frame's own object is one level, so a
                        // payload of `MAX_DEPTH` levels is one too many.
                        Ok(Request::Result { job: 2 }) => format!(
                            r#"{head},"job":2,"solution":{}{}}}"#,
                            "[".repeat(MAX_DEPTH),
                            "]".repeat(MAX_DEPTH)
                        ),
                        _ => serde_json::to_string(&Response::Error {
                            message: "stub".into(),
                        })
                        .unwrap(),
                    };
                    frame.push('\n');
                    if writer.write_all(frame.as_bytes()).is_err() {
                        return;
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

#[test]
fn router_refuses_a_corrupt_result_from_a_backend_at_once() {
    let corrupt = start_corrupt_result_backend();
    let router = Router::start("127.0.0.1:0", RouterOptions::new(vec![corrupt])).unwrap();
    for backend_job in [1u64, 2] {
        // A fresh connection dials the backend again. Router ids embed
        // the backend's index (0) in their low six bits.
        let stream = TcpStream::connect(router.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut ask = |request: &Request| {
            let mut frame = serde_json::to_string(request).unwrap();
            frame.push('\n');
            writer.write_all(frame.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        let started = Instant::now();
        let line = ask(&Request::Result {
            job: backend_job * 64,
        });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a corrupt answer took {:?}",
            started.elapsed()
        );
        assert!(
            !line.contains("corrupt") && !line.contains("[["),
            "the corrupt bytes reached the client: {line:.200}"
        );
        assert!(
            matches!(serde_json::from_str(&line), Ok(Response::Error { .. })),
            "expected a structured error, got {line:.200}"
        );
        assert!(
            matches!(
                serde_json::from_str(&ask(&Request::Stats)),
                Ok(Response::Stats(_))
            ),
            "stats must still answer"
        );
    }
}
