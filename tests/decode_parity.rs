//! Decode parity: reading a type straight from JSON text
//! (`serde_json::from_str`, through `Deserialize::read_json`) must give
//! what parsing the text into a `Value` tree and decoding the tree gives
//! (`from_value` on a borrowed tree, `serde_json::from_value` on an
//! owned one), or all three must fail.
//!
//! Every wire type's frames are mutated the ways a peer or a hand-written
//! script could send them: members permuted, the tag moved off the front,
//! keys repeated, unknown members added, members dropped, values of the
//! wrong type, extra whitespace, escaped keys, and the edge numbers
//! `NaN`, `±Infinity`, `u64::MAX` and `i64::MIN`. The offline proptest
//! stand-in only generates integers, so each case draws a `u64` seed and
//! derives its mutations from a local splitmix64 stream.

use gmm_arch::Board;
use gmm_design::{Design, DesignBuilder};
use gmm_service::{
    AttachSnapshot, JobConfig, JobEvent, JobQueue, JobSolution, JobState, ProgressFrame,
    ProtoVersions, QueueOptions, Request, Response, ServiceStats, StatsDelta, SubmitReceipt,
    SubmitSpec,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Local splitmix64 stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// The wire and cached types whose decoders must agree.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Request,
    Response,
    Event,
    Spec,
    Receipt,
    Snapshot,
    Config,
    Stats,
    Delta,
    Design,
    Board,
    Solution,
    Tree,
    Shapes,
}

/// Every shape the derive supports, for the derived decoders.
#[derive(Serialize, Deserialize)]
enum Variants {
    Unit,
    One(f64),
    Two(i64, String),
    Named { a: Option<u32>, b: Vec<u8> },
    EmptyNamed {},
}

#[derive(Serialize, Deserialize)]
enum UnitsOnly {
    A,
    B,
}

#[derive(Serialize, Deserialize)]
enum DataOnly {
    Pair(u8, u8),
}

#[derive(Serialize, Deserialize)]
struct Newtype(f64);

#[derive(Serialize, Deserialize)]
struct Pair(u64, Option<String>);

#[derive(Serialize, Deserialize)]
struct Empty {}

#[derive(Serialize, Deserialize)]
struct Shapes {
    variants: Vec<Variants>,
    units: Vec<UnitsOnly>,
    data: DataOnly,
    newtype: Newtype,
    pair: Pair,
    empty: Empty,
    tuple: (u8, String, bool),
    map: std::collections::BTreeMap<String, i64>,
}

/// Decode `text` as `T` all three ways: `Ok(rendered)` when all three
/// agree on a value, `Err(messages)` when all three fail. Values are
/// compared by their rendered text, so a `NaN` equals itself and `-0.0`
/// does not equal `0.0`.
fn agree<T: Deserialize + Serialize>(kind: Kind, text: &str) -> Result<String, [String; 3]> {
    let streamed = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    let tree = serde_json::from_str::<Value>(text).map_err(|e| e.to_string());
    let borrowed = tree
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|t| T::from_value(t).map_err(|e| e.to_string()));
    let owned = tree.and_then(|t| serde_json::from_value::<T>(t).map_err(|e| e.to_string()));
    let render = |v: &T| serde_json::to_string(v).unwrap();
    match (streamed, borrowed, owned) {
        (Ok(s), Ok(b), Ok(o)) => {
            let (s, b, o) = (render(&s), render(&b), render(&o));
            assert_eq!(s, b, "{kind:?}: streamed and tree decodes differ on {text}");
            assert_eq!(
                s, o,
                "{kind:?}: streamed and owned decodes differ on {text}"
            );
            Ok(s)
        }
        (Err(s), Err(b), Err(o)) => Err([s, b, o]),
        (s, b, o) => panic!(
            "{kind:?}: decoders disagree on {text}\n  streamed: {:?}\n  tree: {:?}\n  owned: {:?}",
            s.map(|v| render(&v)),
            b.map(|v| render(&v)),
            o.map(|v| render(&v)),
        ),
    }
}

fn check(kind: Kind, text: &str) -> Result<String, [String; 3]> {
    match kind {
        Kind::Request => agree::<Request>(kind, text),
        Kind::Response => agree::<Response>(kind, text),
        Kind::Event => agree::<JobEvent>(kind, text),
        Kind::Spec => agree::<SubmitSpec>(kind, text),
        Kind::Receipt => agree::<SubmitReceipt>(kind, text),
        Kind::Snapshot => agree::<AttachSnapshot>(kind, text),
        Kind::Config => agree::<JobConfig>(kind, text),
        Kind::Stats => agree::<ServiceStats>(kind, text),
        Kind::Delta => agree::<StatsDelta>(kind, text),
        Kind::Design => agree::<Design>(kind, text),
        Kind::Board => agree::<Board>(kind, text),
        Kind::Solution => agree::<JobSolution>(kind, text),
        Kind::Tree => agree::<Value>(kind, text),
        Kind::Shapes => agree::<Shapes>(kind, text),
    }
}

fn tiny_design() -> Design {
    let mut b = DesignBuilder::new("p");
    b.segment("s", 64, 8).unwrap();
    b.segment("t\"q", 128, 16).unwrap();
    b.build().unwrap()
}

/// One solved payload, as the cache stores it.
fn solution_payload() -> String {
    let mut options = QueueOptions::default();
    options.workers = 1;
    let queue = JobQueue::new(options);
    let design = gmm_workloads::random_design(&gmm_workloads::RandomDesignSpec {
        segments: 5,
        seed: 3,
        ..gmm_workloads::RandomDesignSpec::default()
    });
    let ticket = queue.submit(
        design,
        Board::prototyping("XCV300", 1).unwrap(),
        JobConfig::default(),
    );
    let out = queue
        .wait(ticket.id, std::time::Duration::from_secs(120))
        .unwrap();
    queue.shutdown();
    out.solution_json.expect("solved").solution_json.clone()
}

/// Every wire type's frames, rendered by the in-tree writers.
fn fixtures() -> Vec<(Kind, String)> {
    fn line<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }
    let design = tiny_design();
    let board = Board::prototyping("XCV300", 1).unwrap();
    let (t3_design, t3_board, _) = gmm_workloads::table3_instance(2);
    let config = JobConfig {
        solve_mode: gmm_api::SolveMode::Portfolio,
        overlap_aware: true,
        ..JobConfig::default()
    };
    let spec = SubmitSpec::new(design.clone(), board.clone(), config.clone()).deadline_ms(2_500);
    let receipt = SubmitReceipt {
        job: 7,
        state: JobState::Done,
        cached: true,
        key: "00ff".into(),
    };
    let snapshot = AttachSnapshot {
        job: 2,
        state: JobState::Done,
        termination: Some(gmm_api::Termination::Optimal),
    };
    let stats = ServiceStats {
        jobs_submitted: 1,
        cache_hits: u64::MAX,
        proto_versions: ProtoVersions { v1: 3, v2: 4 },
        latency_p95_ms: 9,
        ..ServiceStats::default()
    };
    let delta = StatsDelta {
        queue_depth: 3,
        events_dropped: 2,
        ..StatsDelta::default()
    };
    let payload = solution_payload();
    let tree: Value = serde_json::from_str(&payload).unwrap();
    let requests = [
        Request::Hello { proto: 2 },
        Request::Submit {
            design: design.clone(),
            board: board.clone(),
            config: JobConfig::default(),
            deadline_ms: None,
        },
        Request::SubmitBatch {
            jobs: vec![
                spec.clone(),
                SubmitSpec::new(t3_design.clone(), t3_board.clone(), config.clone()),
            ],
            watch: true,
            progress: false,
        },
        Request::Watch {
            jobs: vec![1, 2],
            progress: true,
            stats: true,
        },
        Request::Attach {
            jobs: vec![9],
            progress: false,
            stats: false,
        },
        Request::Peek { key: "1234".into() },
        Request::Poll { job: 1 },
        Request::Result { job: 2 },
        Request::Cancel { job: 3 },
        Request::Stats,
        Request::Shutdown,
    ];
    let responses = [
        Response::Welcome {
            proto: 2,
            capabilities: vec!["watch".into(), "peek".into()],
        },
        Response::BatchSubmitted {
            jobs: vec![receipt.clone()],
        },
        Response::Watching {
            watching: vec![1],
            unknown: vec![2],
        },
        Response::Attached {
            attached: vec![snapshot],
            unknown: vec![],
        },
        Response::Overloaded {
            message: "busy".into(),
            inflight: 4,
            max_inflight: 4,
            retry_after_ms: 20,
        },
        Response::Peeked {
            hit: true,
            objective: Some(1.5),
            solution: Some(tree.clone()),
        },
        Response::Submitted {
            job: 1,
            state: JobState::Queued,
            cached: false,
            key: "ab".into(),
        },
        Response::PollState {
            job: 1,
            state: JobState::Running,
        },
        Response::ResultReady {
            job: 1,
            state: JobState::Done,
            cached: true,
            objective: Some(42.25),
            solution: Some(tree.clone()),
            error: None,
        },
        Response::ResultReady {
            job: 2,
            state: JobState::Failed,
            cached: false,
            objective: None,
            solution: None,
            error: Some("job 2 \"failed\"".into()),
        },
        Response::CancelState {
            job: 3,
            state: JobState::Cancelled,
        },
        Response::Stats(stats),
        Response::Error {
            message: "unknown job 9".into(),
        },
        Response::Bye,
    ];
    let events = [
        JobEvent::State {
            job: 4,
            state: JobState::Done,
            termination: Some(gmm_api::Termination::Optimal),
        },
        JobEvent::State {
            job: 4,
            state: JobState::Running,
            termination: None,
        },
        JobEvent::Progress {
            job: 9,
            frame: ProgressFrame::Phase {
                phase: "global".into(),
            },
        },
        JobEvent::Progress {
            job: 9,
            frame: ProgressFrame::Incumbent {
                objective: -2.5,
                nodes: 70,
            },
        },
        JobEvent::Progress {
            job: 9,
            frame: ProgressFrame::Nodes { nodes: 128 },
        },
        JobEvent::Stats(delta),
    ];
    let mut out: Vec<(Kind, String)> = Vec::new();
    out.extend(requests.iter().map(|r| (Kind::Request, line(r))));
    out.extend(responses.iter().map(|r| (Kind::Response, line(r))));
    out.extend(events.iter().map(|e| (Kind::Event, line(e))));
    out.extend([
        (Kind::Spec, line(&spec)),
        (Kind::Receipt, line(&receipt)),
        (Kind::Snapshot, line(&snapshot)),
        (Kind::Config, line(&config)),
        (Kind::Stats, line(&stats)),
        (Kind::Delta, line(&delta)),
        (Kind::Design, line(&t3_design)),
        (Kind::Board, line(&t3_board)),
        (Kind::Solution, payload.clone()),
        (Kind::Tree, payload),
    ]);
    let shapes = Shapes {
        variants: vec![
            Variants::Unit,
            Variants::One(-0.5),
            Variants::Two(i64::MIN, "t\"wo".into()),
            Variants::Named { a: None, b: vec![] },
            Variants::Named {
                a: Some(7),
                b: vec![1, 2],
            },
            Variants::EmptyNamed {},
        ],
        units: vec![UnitsOnly::A, UnitsOnly::B],
        data: DataOnly::Pair(1, 2),
        newtype: Newtype(2.5),
        pair: Pair(u64::MAX, Some(String::new())),
        empty: Empty {},
        tuple: (3, "x".into(), true),
        map: [("a".to_string(), -1), ("b \"k\"".to_string(), 2)].into(),
    };
    out.push((Kind::Shapes, line(&shapes)));
    out
}

fn count_objects(v: &Value) -> usize {
    match v {
        Value::Object(pairs) => 1 + pairs.iter().map(|(_, c)| count_objects(c)).sum::<usize>(),
        Value::Array(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

fn nth_object<'v>(v: &'v mut Value, n: &mut usize) -> Option<&'v mut Vec<(String, Value)>> {
    match v {
        Value::Object(pairs) => {
            if *n == 0 {
                return Some(pairs);
            }
            *n -= 1;
            pairs.iter_mut().find_map(|(_, c)| nth_object(c, n))
        }
        Value::Array(items) => items.iter_mut().find_map(|c| nth_object(c, n)),
        _ => None,
    }
}

fn count_numbers(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => 1,
        Value::Array(items) => items.iter().map(count_numbers).sum(),
        Value::Object(pairs) => pairs.iter().map(|(_, c)| count_numbers(c)).sum(),
        _ => 0,
    }
}

fn nth_number<'v>(v: &'v mut Value, n: &mut usize) -> Option<&'v mut Value> {
    if matches!(v, Value::Int(_) | Value::UInt(_) | Value::Float(_)) {
        if *n == 0 {
            return Some(v);
        }
        *n -= 1;
        return None;
    }
    match v {
        Value::Array(items) => items.iter_mut().find_map(|c| nth_number(c, n)),
        Value::Object(pairs) => pairs.iter_mut().find_map(|(_, c)| nth_number(c, n)),
        _ => None,
    }
}

const EDGE_NUMBERS: [Value; 7] = [
    Value::Float(f64::NAN),
    Value::Float(f64::INFINITY),
    Value::Float(f64::NEG_INFINITY),
    Value::UInt(u64::MAX),
    Value::Int(i64::MIN),
    Value::Float(-0.0),
    Value::Float(1e300),
];

/// A small value of any kind, for unknown members and wrong types.
fn random_value(mix: &mut Mix, depth: usize) -> Value {
    match mix.below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(mix.one_in(2)),
        2 => Value::UInt(mix.next() >> mix.below(64)),
        3 => Value::Int(-((mix.next() >> 2) as i64)),
        4 => Value::Float((mix.next() as i64 as f64) / 1e6),
        5 => Value::Str(["", "done", "queued", "ilp", "x\"y\\z", "é"][mix.below(6)].into()),
        6 => Value::Array(
            (0..mix.below(3))
                .map(|_| random_value(mix, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..mix.below(3))
                .map(|i| (format!("k{i}"), random_value(mix, depth - 1)))
                .collect(),
        ),
    }
}

/// Apply one random mutation to `tree`.
fn mutate(tree: &mut Value, mix: &mut Mix) {
    let objects = count_objects(tree);
    if objects == 0 {
        return;
    }
    // Half the time the frame itself, where the tags and protocol
    // members live.
    let mut n = if mix.one_in(2) { 0 } else { mix.below(objects) };
    let unknown = random_value(mix, 3);
    let pick = mix.below(7);
    if pick == 6 {
        // Swap a number for an edge value.
        let mut n = mix.below(count_numbers(tree));
        let edge = EDGE_NUMBERS[mix.below(EDGE_NUMBERS.len())].clone();
        if let Some(number) = nth_number(tree, &mut n) {
            *number = edge;
        }
        return;
    }
    let pairs = nth_object(tree, &mut n).expect("object index in range");
    let len = pairs.len();
    match pick {
        // Permute the members.
        0 => {
            for i in (1..len).rev() {
                pairs.swap(i, mix.below(i + 1));
            }
        }
        // Move the first member (the tag of a tagged frame) to the end.
        1 if len > 1 => {
            let first = pairs.remove(0);
            pairs.push(first);
        }
        // Repeat a member, as is or with another value, before or after it.
        2 if len > 0 => {
            let (key, mut value) = pairs[mix.below(len)].clone();
            if mix.one_in(2) {
                value = unknown;
            }
            pairs.insert(mix.below(len + 1), (key, value));
        }
        // Add an unknown member.
        3 => pairs.insert(mix.below(len + 1), (format!("zz{}", mix.below(9)), unknown)),
        // Drop a member.
        4 if len > 0 => {
            pairs.remove(mix.below(len));
        }
        // Give a member a value of another type.
        5 if len > 0 => pairs[mix.below(len)].1 = unknown,
        _ => {}
    }
}

/// Render `v` with random whitespace between tokens and random `\u`
/// escapes in keys.
fn render(v: &Value, mix: &mut Mix, out: &mut String) {
    let ws = |mix: &mut Mix, out: &mut String| {
        for _ in 0..mix.below(3) {
            out.push([' ', '\t', '\n', '\r'][mix.below(4)]);
        }
    };
    ws(mix, out);
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, mix, out);
            }
            ws(mix, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(mix, out);
                let plain = k.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
                if plain && mix.one_in(4) {
                    out.push('"');
                    for c in k.chars() {
                        if mix.one_in(2) {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        } else {
                            out.push(c);
                        }
                    }
                    out.push('"');
                } else {
                    out.push_str(&serde_json::to_string(k).unwrap());
                }
                ws(mix, out);
                out.push(':');
                render(item, mix, out);
            }
            ws(mix, out);
            out.push('}');
        }
        leaf => out.push_str(&serde_json::to_string(leaf).unwrap()),
    }
    ws(mix, out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutated frames of every wire type decode the same three ways.
    #[test]
    fn streamed_and_tree_decodes_agree(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let (mut decoded, mut rejected) = (0, 0);
        for (kind, frame) in fixtures() {
            // The frame as written, then respaced: both always decode.
            prop_assert!(check(kind, &frame).is_ok(), "{kind:?}: {frame}");
            let tree: Value = serde_json::from_str(&frame).unwrap();
            let mut spaced = String::new();
            render(&tree, &mut mix, &mut spaced);
            prop_assert!(check(kind, &spaced).is_ok(), "{kind:?}: {spaced}");
            for _ in 0..6 {
                let mut mutant = tree.clone();
                for _ in 0..1 + mix.below(3) {
                    mutate(&mut mutant, &mut mix);
                }
                let mut text = String::new();
                render(&mutant, &mut mix, &mut text);
                match check(kind, &text) {
                    Ok(_) => decoded += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        // Both outcomes are exercised.
        prop_assert!(decoded > 0 && rejected > 0, "{decoded} decoded, {rejected} rejected");
    }
}

/// An unknown member nested 200k deep, anywhere in any frame, is refused
/// with the nesting error by every path, and reading it neither builds
/// it nor overflows a connection thread's 2 MiB stack.
#[test]
fn deep_unknown_members_answer_the_nesting_error() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
            let deep_objects = format!("{}1{}", "{\"a\":".repeat(200_000), "}".repeat(200_000));
            for (kind, frame) in fixtures() {
                for nest in [&deep, &deep_objects] {
                    let front = format!("{{\"zz\":{nest},{}", &frame[1..]);
                    let back = format!("{},\"zz\":{nest}}}", &frame[..frame.len() - 1]);
                    for text in [front, back] {
                        let errors = check(kind, &text).expect_err("deep member refused");
                        for err in errors {
                            assert!(err.contains("nesting deeper than 128"), "{kind:?}: {err}");
                        }
                    }
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
