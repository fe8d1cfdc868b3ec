//! Decode rules: what `serde_json::from_str` (through
//! `Deserialize::read_json`) makes of every wire type's frames once a peer
//! or a hand-written script has changed them, and that a frame's parsed
//! `Value` tree decodes as its text does (`from_value` reads the tree's
//! rendering, so this pins that parsing and rendering a tree keep what a
//! frame means).
//!
//! Each mutant changes one frame, as the in-tree writers render it, in one
//! way, and must have that way's outcome:
//!
//! * members permuted, the first member (the tag) moved to the end, or an
//!   unknown member added: it decodes as the frame does;
//! * a member repeated, as is or with another value, before or after it:
//!   the first of the name wins, so it decodes, or fails, as the mutant
//!   with the later ones removed does;
//! * a member dropped: it fails with `missing field`, or, where the type
//!   defaults the member, decodes as the frame does everywhere else;
//! * a member given a value of another JSON kind: it fails;
//! * a member added to, repeated in or dropped from a data variant's
//!   one-member object (`{"Variant": …}`): it fails;
//! * a number swapped for `NaN`, `±Infinity`, `u64::MAX`, `i64::MIN`,
//!   `-0.0` or `1e300`: it fails, or decodes holding that number.
//!
//! Inside a raw `Value` (the cached payload read as a tree, a response's
//! `solution`) every mutant decodes to itself. Every mutant is sent with
//! random whitespace and `\u`-escaped keys, which change nothing. The
//! offline proptest stand-in only generates integers, so each case draws
//! a `u64` seed and derives its mutations from a local splitmix64 stream.
//! The derive's shapes that no wire type uses (struct and zero-field
//! variants, `Option` members) are pinned case by case in
//! `derived_shapes_follow_the_member_rules`.

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

/// Decode `text` as `T` from the text and from its parsed tree:
/// `Ok(rendered)` when both give the same value, `Err(messages)` when both
/// fail. Values are compared by their rendered text, so a `NaN` equals
/// itself and `-0.0` does not equal `0.0`.
fn agree<T: Deserialize + Serialize>(kind: Kind, text: &str) -> Result<String, [String; 2]> {
    let streamed = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    let tree = serde_json::from_str::<Value>(text)
        .map_err(|e| e.to_string())
        .and_then(|t| T::from_value(&t).map_err(|e| e.to_string()));
    let render = |v: &T| serde_json::to_string(v).unwrap();
    match (streamed, tree) {
        (Ok(s), Ok(t)) => {
            let (s, t) = (render(&s), render(&t));
            assert_eq!(s, t, "{kind:?}: text and tree decodes differ on {text}");
            Ok(s)
        }
        (Err(s), Err(t)) => Err([s, t]),
        (s, t) => panic!(
            "{kind:?}: text and tree decodes disagree on {text}\n  text: {:?}\n  tree: {:?}",
            s.map(|v| render(&v)),
            t.map(|v| render(&v)),
        ),
    }
}

fn check(kind: Kind, text: &str) -> Result<String, [String; 2]> {
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

/// A node's place in a tree: the index of the member or item taken at
/// each level.
type Path = Vec<usize>;

fn node<'v>(v: &'v Value, path: &[usize]) -> &'v Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Object(pairs) => &pairs[i].1,
        Value::Array(items) => &items[i],
        _ => unreachable!("a path leads through containers"),
    })
}

fn node_mut<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Object(pairs) => &mut pairs[i].1,
        Value::Array(items) => &mut items[i],
        _ => unreachable!("a path leads through containers"),
    })
}

fn members_mut<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Vec<(String, Value)> {
    match node_mut(v, path) {
        Value::Object(pairs) => pairs,
        _ => unreachable!("an object path leads to an object"),
    }
}

/// The paths of the nodes `pick` accepts, in document order.
fn paths(v: &Value, pick: fn(&Value) -> bool) -> Vec<Path> {
    fn walk(v: &Value, pick: fn(&Value) -> bool, at: &mut Path, out: &mut Vec<Path>) {
        if pick(v) {
            out.push(at.clone());
        }
        let children: Vec<&Value> = match v {
            Value::Object(pairs) => pairs.iter().map(|(_, c)| c).collect(),
            Value::Array(items) => items.iter().collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            walk(child, pick, at, out);
            at.pop();
        }
    }
    let mut out = Vec::new();
    walk(v, pick, &mut Vec::new(), &mut out);
    out
}

fn is_object(v: &Value) -> bool {
    matches!(v, Value::Object(_))
}

/// Whether `v` is how a derived enum writes a data variant: an object of
/// one member, named like a Rust variant.
fn is_variant(v: &Value) -> bool {
    matches!(v, Value::Object(m) if m.len() == 1 && m[0].0.starts_with(|c: char| c.is_ascii_uppercase()))
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::UInt(_) | Value::Float(_))
}

/// The JSON kind of `v`; the three number variants are one kind.
fn json_kind(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Array(_) => 4,
        Value::Object(_) => 5,
    }
}

/// Whether the node at `path` of a `kind` frame lies in a raw `Value`,
/// which keeps whatever it is given.
fn in_raw_tree(kind: Kind, frame: &Value, path: &[usize]) -> bool {
    match (kind, frame, path.first()) {
        (Kind::Tree, _, _) => true,
        (Kind::Response, Value::Object(pairs), Some(&i)) => pairs[i].0 == "solution",
        _ => false,
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

/// What a mutant must decode to.
enum Outcome {
    /// What the frame decodes to.
    Unchanged,
    /// The mutant itself, as a raw tree keeps it.
    Itself,
    /// What this other frame decodes to, or an error if it fails.
    As(Value),
    /// An error.
    Refused,
    /// A `missing field` error, or what the frame decodes to with `key`,
    /// dropped from the object at `object`, defaulted.
    Dropped { object: Path, key: String },
    /// An error, or what the frame decodes to with the number at this
    /// path swapped.
    Holds(Path),
}

/// `frame` changed one way, and the outcome that change must have.
fn mutate(kind: Kind, frame: &Value, mix: &mut Mix) -> (Value, Outcome) {
    let mut mutant = frame.clone();
    let pick = mix.below(7);
    if pick == 6 {
        let numbers = paths(frame, is_number);
        if numbers.is_empty() {
            return (mutant, Outcome::Unchanged);
        }
        let at = numbers[mix.below(numbers.len())].clone();
        *node_mut(&mut mutant, &at) = EDGE_NUMBERS[mix.below(EDGE_NUMBERS.len())].clone();
        if in_raw_tree(kind, &mutant, &at) {
            return (mutant, Outcome::Itself);
        }
        return (mutant, Outcome::Holds(at));
    }
    // Half the time the frame itself, where the tags and protocol
    // members live.
    let objects = paths(frame, is_object);
    let at = if mix.one_in(2) {
        0
    } else {
        mix.below(objects.len())
    };
    let object = objects[at].clone();
    let unknown = random_value(mix, 3);
    let members = members_mut(&mut mutant, &object);
    let len = members.len();
    let (site, outcome) = match pick {
        // Permute the members.
        0 => {
            for i in (1..len).rev() {
                members.swap(i, mix.below(i + 1));
            }
            (object, Outcome::Unchanged)
        }
        // Move the first member (the tag of a tagged frame) to the end.
        1 if len > 1 => {
            let first = members.remove(0);
            members.push(first);
            (object, Outcome::Unchanged)
        }
        // Repeat a member, as is or with another value, before or after it.
        2 if len > 0 => {
            let (key, mut value) = members[mix.below(len)].clone();
            if mix.one_in(2) {
                value = unknown;
            }
            members.insert(mix.below(len + 1), (key, value));
            let mut first_wins = mutant.clone();
            let mut seen = Vec::new();
            members_mut(&mut first_wins, &object).retain(|(k, _)| {
                let first = !seen.contains(k);
                seen.push(k.clone());
                first
            });
            (object, Outcome::As(first_wins))
        }
        // Add an unknown member.
        3 => {
            members.insert(mix.below(len + 1), (format!("zz{}", mix.below(9)), unknown));
            (object, Outcome::Unchanged)
        }
        // Drop a member.
        4 if len > 0 => {
            let (key, _) = members.remove(mix.below(len));
            let outcome = Outcome::Dropped {
                object: object.clone(),
                key,
            };
            (object, outcome)
        }
        // Give a member that is not `null` (which an optional member takes
        // for absent, whatever its type) a value of another kind, and not
        // `null` either.
        5 if members.iter().any(|(_, v)| *v != Value::Null) => {
            let filled: Vec<usize> = (0..len).filter(|&i| members[i].1 != Value::Null).collect();
            let i = filled[mix.below(filled.len())];
            let was = json_kind(&members[i].1);
            let mut other = unknown;
            while json_kind(&other) == was || other == Value::Null {
                other = random_value(mix, 2);
            }
            members[i].1 = other;
            let mut member = object;
            member.push(i);
            (member, Outcome::Refused)
        }
        _ => (object, Outcome::Unchanged),
    };
    if in_raw_tree(kind, &mutant, &site) {
        return (mutant, Outcome::Itself);
    }
    // A data variant's object must hold exactly its one member.
    if matches!(pick, 2..=4) && is_variant(node(frame, &site)) {
        return (mutant, Outcome::Refused);
    }
    // A rejection's `kind` is read as a raw tree: without `"overloaded"`
    // there, the frame is a plain error.
    let member = match (&outcome, &mutant) {
        (Outcome::Dropped { key, .. }, _) if site.is_empty() => Some(key.as_str()),
        (Outcome::Refused, Value::Object(members)) if site.len() == 1 => {
            Some(members[site[0]].0.as_str())
        }
        _ => None,
    };
    if matches!(kind, Kind::Response) && member == Some("kind") {
        let error = mutant
            .get("error")
            .cloned()
            .expect("a rejection has an error");
        let plain = Value::Object(vec![
            ("ok".into(), Value::Bool(false)),
            ("error".into(), error),
        ]);
        return (mutant, Outcome::As(plain));
    }
    (mutant, outcome)
}

fn same_number(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(a), Some(b)) => a == b || (a.is_nan() && b.is_nan()),
        _ => false,
    }
}

/// Check `got`, what the mutant decoded to, against `outcome`; `frame` is
/// what the unchanged frame decodes to. Whether the mutant decoded.
fn expect(
    kind: Kind,
    frame: &str,
    mutant: &Value,
    outcome: &Outcome,
    got: &Result<String, [String; 2]>,
) -> bool {
    let compact = serde_json::to_string(mutant).unwrap();
    let at = || format!("{kind:?}: {compact}\n  decoded: {got:?}");
    let parse = |text: &str| serde_json::from_str::<Value>(text).unwrap();
    match outcome {
        Outcome::Unchanged => assert_eq!(got.as_deref().ok(), Some(frame), "{}", at()),
        Outcome::Itself => assert_eq!(got.as_deref().ok(), Some(&*compact), "{}", at()),
        Outcome::As(other) => {
            let text = serde_json::to_string(other).unwrap();
            let want = check(kind, &text);
            assert_eq!(got.as_ref().ok(), want.as_ref().ok(), "{} as {text}", at());
        }
        Outcome::Refused => assert!(got.is_err(), "{}", at()),
        Outcome::Dropped { object, key } => match got {
            Err([e, _]) => assert!(e.contains("missing field"), "{}", at()),
            Ok(text) => {
                let mut decoded = parse(text);
                members_mut(&mut decoded, object).retain(|(k, _)| k != key);
                assert_eq!(
                    serde_json::to_string(&decoded).unwrap(),
                    compact,
                    "{}",
                    at()
                );
            }
        },
        Outcome::Holds(path) => {
            if let Ok(text) = got {
                let mut decoded = parse(text);
                let held = node_mut(&mut decoded, path);
                let sent = node(mutant, path);
                assert!(same_number(held, sent), "{} holds {held:?}", at());
                *held = sent.clone();
                assert_eq!(
                    serde_json::to_string(&decoded).unwrap(),
                    compact,
                    "{}",
                    at()
                );
            }
        }
    }
    got.is_ok()
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

    /// Mutated frames of every wire type decode as their mutation
    /// requires, the same from the text and from its tree.
    #[test]
    fn streamed_and_tree_decodes_agree(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let (mut decoded, mut rejected) = (0, 0);
        for (kind, frame) in fixtures() {
            // The frame as written, then respaced: both decode to the
            // frame as written.
            prop_assert_eq!(check(kind, &frame).ok(), Some(frame.clone()), "{:?}", kind);
            let tree: Value = serde_json::from_str(&frame).unwrap();
            let mut spaced = String::new();
            render(&tree, &mut mix, &mut spaced);
            prop_assert_eq!(check(kind, &spaced).ok(), Some(frame.clone()), "{:?}: {}", kind, spaced);
            // The derived shapes are pinned case by case below.
            if matches!(kind, Kind::Shapes) {
                continue;
            }
            for _ in 0..6 {
                let (mutant, outcome) = mutate(kind, &tree, &mut mix);
                let mut text = String::new();
                render(&mutant, &mut mix, &mut text);
                let got = check(kind, &text);
                if expect(kind, &frame, &mutant, &outcome, &got) {
                    decoded += 1;
                } else {
                    rejected += 1;
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

/// Decode `text` as `T`, as [`agree`] does, keeping the text path's error.
fn read<T: Deserialize + Serialize>(text: &str) -> Result<String, String> {
    agree::<T>(Kind::Shapes, text).map_err(|[e, _]| e)
}

/// Each rule a derived decoder keeps, on the shapes no wire type uses:
/// struct and zero-field variants, `Option` members, tuple arities.
#[test]
fn derived_shapes_follow_the_member_rules() {
    fn ok<T: Deserialize + Serialize>(text: &str, want: &str) {
        assert_eq!(read::<T>(text).as_deref(), Ok(want), "{text}");
    }
    fn refused<T: Deserialize + Serialize>(text: &str, why: &str) {
        let err = read::<T>(text).expect_err(text);
        assert!(err.contains(why), "{text}: {err}");
    }
    let named = r#"{"Named":{"a":7,"b":[1]}}"#;
    // Members in any order; unknown ones are checked, then skipped.
    ok::<Variants>(r#"{"Named":{"b":[1],"a":7}}"#, named);
    ok::<Variants>(
        r#"{"Named":{"zz":{"k":[null]},"a":7,"b":[1],"zz":1}}"#,
        named,
    );
    refused::<Variants>(
        r#"{"Named":{"a":7,"zz":[1,],"b":[1]}}"#,
        "expected a JSON value",
    );
    // The first of a repeated member wins, whether or not it is valid.
    ok::<Variants>(r#"{"Named":{"a":7,"b":[1],"a":8,"b":"x"}}"#, named);
    refused::<Variants>(r#"{"Named":{"a":"7","b":[1],"a":7}}"#, "expected u32");
    // A missing member is an error, even an `Option`; `null` is `None`.
    refused::<Variants>(r#"{"Named":{"b":[1]}}"#, "missing field `a`");
    refused::<Variants>(r#"{"Named":{"a":7}}"#, "missing field `b`");
    ok::<Variants>(
        r#"{"Named":{"a":null,"b":[]}}"#,
        r#"{"Named":{"a":null,"b":[]}}"#,
    );
    // A value of another type is an error.
    refused::<Variants>(r#"{"Named":{"a":true,"b":[]}}"#, "expected u32");
    refused::<Variants>(r#"{"Named":{"a":7,"b":{}}}"#, "expected array");
    refused::<Variants>(r#"{"Named":[7,[1]]}"#, "expected object");
    // A zero-field variant needs an object, whose members it skips.
    ok::<Variants>(r#"{"EmptyNamed":{"zz":[1]}}"#, r#"{"EmptyNamed":{}}"#);
    refused::<Variants>(r#"{"EmptyNamed":null}"#, "expected object");
    refused::<Variants>(r#"{"EmptyNamed":[]}"#, "expected object");
    ok::<Empty>(r#"{"zz":1}"#, "{}");
    refused::<Empty>("null", "expected object");
    // An enum is a unit variant's name or a one-member object naming a
    // data variant.
    ok::<Variants>(r#""Unit""#, r#""Unit""#);
    refused::<Variants>(r#""One""#, "unknown variant `One`");
    refused::<Variants>(r#"{"Unit":null}"#, "unknown variant `Unit`");
    refused::<Variants>(r#"{"One":1.5,"Unit":null}"#, "1-key object");
    refused::<Variants>("{}", "1-key object");
    refused::<UnitsOnly>(r#"{"A":1}"#, "unknown variant `A`");
    // Tuple shapes take exactly their arity.
    ok::<Variants>(r#"{"Two":[-1,"x"]}"#, r#"{"Two":[-1,"x"]}"#);
    refused::<Variants>(r#"{"Two":[-1]}"#, "wrong arity");
    refused::<Variants>(r#"{"Two":[-1,"x",2]}"#, "wrong arity");
    refused::<Pair>("[1]", "wrong arity");
    ok::<Pair>("[1,null]", "[1,null]");
    refused::<Newtype>(r#""2.5""#, "expected number");
    // A map, unlike a struct, keeps the last of a repeated key.
    ok::<std::collections::BTreeMap<String, i64>>(r#"{"a":1,"b":2,"a":3}"#, r#"{"a":3,"b":2}"#);
}
