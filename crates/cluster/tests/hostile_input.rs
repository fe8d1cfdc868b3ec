//! Hostile frames sent to `gmm route` get structured errors, and the
//! router keeps serving the connection that sent them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use gmm_cluster::{Router, RouterOptions};
use gmm_service::{JobQueue, MapServer, QueueOptions, Request, Response, MAX_FRAME_BYTES};

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
