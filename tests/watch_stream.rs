//! End-to-end tests of the protocol-v2 mapsrv surface: the `hello`
//! handshake, watched `submit_batch`, server-push `watch` streams, the
//! v1 compatibility contract, and the bounded-delivery guarantee that a
//! stalled watcher can never block solver workers.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gmm_api::Termination;
use gmm_service::{
    JobConfig, JobEvent, JobQueue, JobState, MapServer, ProgressFrame, Proto, QueueOptions,
    Request, Response, Session, SubmitSpec,
};
use gmm_workloads::{stream_instances, StreamSpec};

const WAIT: Duration = Duration::from_secs(300);

fn start_server(workers: usize) -> MapServer {
    let queue = Arc::new(JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = workers;
        o
    }));
    MapServer::start("127.0.0.1:0", queue).expect("bind ephemeral port")
}

/// Rank of a state in the one-way delivery order.
fn rank(state: JobState) -> u8 {
    match state {
        JobState::Queued => 0,
        JobState::Running => 1,
        _ => 2,
    }
}

#[test]
fn watch_stream_emits_ordered_states_and_bridged_progress() {
    const BATCH: usize = 8;
    let server = start_server(2);
    let mut session = Session::connect(server.local_addr()).expect("connect");
    assert_eq!(session.proto(), Proto::V2, "hello must negotiate v2");

    let instances: Vec<_> = stream_instances(StreamSpec::default())
        .take(BATCH)
        .collect();
    let receipts = session
        .submit_batch(
            instances
                .iter()
                .map(|i| SubmitSpec::new(i.design.clone(), i.board.clone(), JobConfig::default()))
                .collect(),
        )
        .expect("submit_batch");
    assert_eq!(receipts.len(), BATCH);
    assert!(
        receipts.iter().all(|r| !r.cached),
        "distinct instances must all solve cold"
    );

    // Consume the stream until every job is terminal. No poll verb is
    // ever sent on this path — the events *are* the waiting.
    let mut events: Vec<JobEvent> = Vec::new();
    session
        .for_each_event(WAIT, |ev| events.push(ev.clone()))
        .expect("event stream");

    for r in &receipts {
        let job = r.job;
        let states: Vec<(JobState, Option<Termination>)> = events
            .iter()
            .filter_map(|ev| match ev {
                JobEvent::State {
                    job: j,
                    state,
                    termination,
                } if *j == job => Some((*state, *termination)),
                _ => None,
            })
            .collect();
        // Watched-at-submit: the full lifecycle, strictly ordered.
        assert_eq!(
            states.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![JobState::Queued, JobState::Running, JobState::Done],
            "job {job}: unexpected state sequence"
        );
        assert!(
            states.windows(2).all(|w| rank(w[0].0) < rank(w[1].0)),
            "job {job}: states must be strictly rank-increasing"
        );
        let (_, terminal) = states.last().unwrap();
        assert_eq!(
            *terminal,
            Some(Termination::Optimal),
            "job {job}: terminal frame must carry the full termination"
        );

        // ≥1 bridged progress frame per solved job, and node counts
        // monotone within the job's stream.
        let progress: Vec<&ProgressFrame> = events
            .iter()
            .filter_map(|ev| match ev {
                JobEvent::Progress { job: j, frame } if *j == job => Some(frame),
                _ => None,
            })
            .collect();
        assert!(
            !progress.is_empty(),
            "job {job}: no progress frames bridged from the solver"
        );
        assert!(
            progress
                .iter()
                .any(|f| matches!(f, ProgressFrame::Phase { .. })),
            "job {job}: expected at least one phase frame"
        );
        let nodes: Vec<u64> = progress
            .iter()
            .filter_map(|f| match f {
                ProgressFrame::Incumbent { nodes, .. } | ProgressFrame::Nodes { nodes } => {
                    Some(*nodes)
                }
                ProgressFrame::Phase { .. } => None,
            })
            .collect();
        assert!(
            nodes.windows(2).all(|w| w[0] <= w[1]),
            "job {job}: node heartbeats must be monotonic, got {nodes:?}"
        );

        // Ordering across kinds: progress happens strictly between the
        // running transition and the terminal frame.
        let idx_running = events
            .iter()
            .position(|ev| {
                matches!(ev, JobEvent::State { job: j, state, .. }
                         if *j == job && *state == JobState::Running)
            })
            .unwrap();
        let idx_done = events
            .iter()
            .position(|ev| {
                matches!(ev, JobEvent::State { job: j, state, .. }
                         if *j == job && state.is_terminal())
            })
            .unwrap();
        for (i, ev) in events.iter().enumerate() {
            if matches!(ev, JobEvent::Progress { job: j, .. } if *j == job) {
                assert!(
                    idx_running < i && i < idx_done,
                    "job {job}: progress frame outside its running window"
                );
            }
        }
    }

    // wait_all drains the in-flight set with terminations attached.
    let outcomes = session.wait_all(WAIT).expect("wait_all");
    assert_eq!(outcomes.len(), BATCH);
    for out in &outcomes {
        assert_eq!(out.state, JobState::Done);
        assert_eq!(out.termination, Some(Termination::Optimal));
        assert!(out.objective.is_some());
        assert!(out.solution.is_some());
    }
    assert!(session.inflight().is_empty(), "wait_all drains in-flight");

    let stats = session.stats().expect("stats");
    assert!(stats.proto_versions.v2 >= 1, "{stats:?}");

    session.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn watch_stream_carries_deadline_terminations() {
    let server = start_server(1);
    let mut session = Session::connect(server.local_addr()).expect("connect");

    // A second-scale instance bounded to 300ms must stream
    // queued→running→deadline with the full termination token.
    let (design, board) = gmm_workloads::slow_table3_instance();
    let receipt = session
        .submit(SubmitSpec::new(design, board, JobConfig::default()).deadline_ms(300))
        .expect("submit");

    let mut states = Vec::new();
    session
        .for_each_event(WAIT, |ev| {
            if let JobEvent::State {
                state, termination, ..
            } = ev
            {
                states.push((*state, *termination));
            }
        })
        .expect("event stream");
    let (last_state, last_termination) = *states.last().unwrap();
    assert_eq!(last_state, JobState::Deadline, "states: {states:?}");
    assert_eq!(last_termination, Some(Termination::DeadlineExceeded));

    let outcomes = session.wait_all(WAIT).expect("wait_all");
    assert_eq!(outcomes[0].job, receipt.job);
    assert_eq!(outcomes[0].state, JobState::Deadline);
    assert_eq!(outcomes[0].termination, Some(Termination::DeadlineExceeded));

    session.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn v1_dialect_round_trips_byte_compatibly_against_the_v2_server() {
    let server = start_server(2);
    let inst = stream_instances(StreamSpec::default()).next().unwrap();

    // Bare v1 framing on a raw socket: one JSON line per verb, no hello.
    let stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |request: &Request| -> String {
        let mut text = serde_json::to_string(request).unwrap();
        text.push('\n');
        writer.write_all(text.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    let submit_line = ask(&Request::Submit {
        design: inst.design.clone(),
        board: inst.board.clone(),
        config: JobConfig::default(),
        deadline_ms: None,
    });
    // Byte compatibility: the response is exactly the canonical v1
    // rendering of the parsed response — no injected fields, no event
    // frames, same field order.
    let parsed: Response = serde_json::from_str(&submit_line).expect("v1 submit response parses");
    assert_eq!(serde_json::to_string(&parsed).unwrap(), submit_line);
    let job = match parsed {
        Response::Submitted { job, .. } => job,
        other => panic!("expected submit response, got {other:?}"),
    };

    // poll until terminal, then result — the v1 loop verbatim.
    loop {
        let poll_line = ask(&Request::Poll { job });
        let parsed: Response = serde_json::from_str(&poll_line).expect("poll parses");
        assert_eq!(serde_json::to_string(&parsed).unwrap(), poll_line);
        match parsed {
            Response::PollState { state, .. } if state.is_terminal() => break,
            Response::PollState { .. } => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("expected poll response, got {other:?}"),
        }
    }
    let result_line = ask(&Request::Result { job });
    let parsed: Response = serde_json::from_str(&result_line).expect("result parses");
    assert_eq!(serde_json::to_string(&parsed).unwrap(), result_line);
    match parsed {
        Response::ResultReady {
            state, solution, ..
        } => {
            assert_eq!(state, JobState::Done);
            assert!(solution.is_some());
        }
        other => panic!("expected result response, got {other:?}"),
    }

    // The v1 connection was counted as v1 and saw zero event frames
    // (every line above parsed as a Response).
    let stats_line = ask(&Request::Stats);
    match serde_json::from_str::<Response>(&stats_line).expect("stats parses") {
        Response::Stats(s) => assert!(s.proto_versions.v1 >= 1, "{s:?}"),
        other => panic!("expected stats, got {other:?}"),
    }

    // A Session forced to the v1 fallback speaks the same dialect:
    // submit per round-trip, watch-free waiting with backoff polling.
    let mut v1 = Session::connect_with_proto(server.local_addr(), 1).expect("v1 session");
    assert_eq!(v1.proto(), Proto::V1);
    let receipts = v1
        .submit_batch(vec![SubmitSpec::new(
            inst.design.clone(),
            inst.board.clone(),
            JobConfig::default(),
        )])
        .expect("v1 submits");
    assert!(
        receipts[0].cached,
        "same instance resubmitted must hit the cache"
    );
    let outcomes = v1.wait_all(WAIT).expect("v1 wait_all");
    assert_eq!(outcomes[0].state, JobState::Done);
    // The v1 result shape carries no termination — and must not grow one.
    assert_eq!(outcomes[0].termination, None);

    ask(&Request::Shutdown);
    server.join();
}

#[test]
fn stalled_watcher_drops_progress_but_never_blocks_workers() {
    const JOBS: usize = 10;
    let queue = JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 2;
        o
    });

    // A subscriber with a tiny progress budget that never reads: every
    // job's phases overflow the cap, and the only acceptable outcome is
    // dropped progress frames — not blocked workers.
    let outbox = queue.make_outbox(4);
    queue.subscribe(outbox.clone());

    let mut jobs = Vec::with_capacity(JOBS);
    for inst in stream_instances(StreamSpec::default()).take(JOBS) {
        let ticket = queue.submit_watched(
            inst.design,
            inst.board,
            JobConfig::default(),
            None,
            &outbox,
            true,
        );
        jobs.push(ticket.id);
    }

    assert!(
        queue.wait_idle(Duration::from_secs(120)),
        "a stalled watcher must never stall the workers"
    );

    let s = queue.stats();
    assert_eq!(s.jobs_submitted, JOBS as u64);
    assert_eq!(
        s.jobs_completed + s.jobs_failed + s.jobs_cancelled + s.jobs_deadline,
        s.jobs_submitted,
        "terminal counters must stay conserved: {s:?}"
    );
    assert_eq!(s.jobs_completed, JOBS as u64);
    assert_eq!(s.cache_hits + s.cache_misses, JOBS as u64);
    assert!(
        s.events_dropped > 0,
        "the 4-frame cap must have dropped progress under {JOBS} solves"
    );

    // State frames are never dropped: draining the stalled outbox now
    // yields the complete terminal picture. (Small grace deadline: the
    // final event is queued before wait_idle waiters wake in the common
    // path, but counters are published a hair earlier.)
    let mut terminal_seen: HashMap<u64, JobState> = HashMap::new();
    let deadline = std::time::Instant::now() + Duration::from_millis(250);
    while let gmm_service::Popped::Frame(frame) = outbox.pop(Some(deadline)) {
        if let gmm_service::Frame::Event(JobEvent::State { job, state, .. }) = frame {
            if state.is_terminal() {
                terminal_seen.insert(job, state);
            }
        }
    }
    for job in jobs {
        assert_eq!(
            terminal_seen.get(&job),
            Some(&JobState::Done),
            "job {job}: terminal state frame must survive the pressure"
        );
    }
    queue.shutdown();
}
