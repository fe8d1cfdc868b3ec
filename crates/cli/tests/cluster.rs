//! End-to-end cluster test: three real `gmm serve` daemons behind an
//! in-process router, with one backend killed -9 mid-batch.
//!
//! The contract under test is the ISSUE's headline: every submitted job
//! reaches a terminal state, none are lost, and the router observes the
//! crash (its reconnects counter moves). The router and the client both
//! run in this process; the backends are the released binary, so the
//! wire protocol is exercised for real.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use gmm_cluster::{Router, RouterOptions, ShardMap};
use gmm_service::{instance_key, JobConfig, JobState, Session, SubmitSpec};
use gmm_workloads::{random_design, RandomDesignSpec};

/// Spawn `gmm serve` on an ephemeral port and parse the bound address
/// from its banner line.
fn spawn_backend() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gmm"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gmm serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read serve banner");
    // "mapsrv listening on 127.0.0.1:PORT (N workers); ..."
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();
    (child, addr)
}

fn spec(seed: u64) -> SubmitSpec {
    let design = random_design(&RandomDesignSpec {
        segments: 6,
        seed,
        ..RandomDesignSpec::default()
    });
    let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
    SubmitSpec::new(design, board, JobConfig::default())
}

#[test]
fn killing_a_backend_mid_batch_loses_no_jobs() {
    let mut children = Vec::new();
    let mut backends = Vec::new();
    for _ in 0..3 {
        let (child, addr) = spawn_backend();
        children.push(child);
        backends.push(addr);
    }

    let router =
        Router::start("127.0.0.1:0", RouterOptions::new(backends.clone())).expect("start router");
    let mut session = Session::connect(router.local_addr()).expect("connect to router");

    let specs: Vec<SubmitSpec> = (0..32).map(spec).collect();
    // Kill the backend that owns the first job's key, so the victim is
    // guaranteed to hold at least one job of ours.
    let ring = ShardMap::new(&backends, 0);
    let key = instance_key(&specs[0].design, &specs[0].board, &specs[0].config);
    let victim = backends
        .iter()
        .position(|b| b == ring.owner(key.0))
        .expect("owner is a configured backend");

    let receipts = session.submit_batch(specs).expect("submit 32 jobs");
    assert_eq!(receipts.len(), 32);
    children[victim].kill().expect("kill -9 the victim backend");

    let outcomes = session
        .wait_all(Duration::from_secs(300))
        .expect("all jobs reach a terminal state");
    assert_eq!(outcomes.len(), 32, "no job may be lost");
    for out in &outcomes {
        assert!(
            out.state.is_terminal(),
            "job {} ended non-terminal: {:?}",
            out.job,
            out.state
        );
        // Re-routed jobs must finish as real outcomes, not router-side
        // failures: the survivors can solve every instance.
        assert_eq!(
            out.state,
            JobState::Done,
            "job {} should re-route and solve, got {:?} ({})",
            out.job,
            out.state,
            out.error.as_deref().unwrap_or("no error")
        );
    }
    assert!(
        router.reconnects() >= 1,
        "the router must observe the backend loss"
    );

    drop(session);
    router.request_stop();
    for (i, mut child) in children.into_iter().enumerate() {
        if i != victim {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}
