//! `gmm` — command-line front end for the FPGA memory mapper.
//!
//! Subcommands:
//!
//! * `solve`    — map a design onto a board through the `gmm-api` facade
//!   (deadlines, node budgets, cancellation, progress); `map` is an alias
//! * `gen`      — generate designs/boards (random, kernels, Table 3)
//! * `simulate` — map a design and replay a trace on the result
//! * `serve`    — run the `mapsrv` batch daemon (JSON-lines over TCP)
//! * `route`    — front N `mapsrv` daemons with one consistent-hash
//!   sharded endpoint (same protocol; failover + admission propagation)
//! * `batch`    — stream a directory/manifest/generated set of instances
//!   through the job queue and print a summary table
//! * `arch-sweep` — sweep a grid of on-chip BRAM parameters over a design
//!   suite, score each architecture by geometric-mean mapped cost, and
//!   write a Pareto-front JSON
//! * `bench`    — run the simplex pricing-rule ablation (stream workload
//!   plus Table 3 points per rule) and write `BENCH_simplex.json`
//! * `check`    — explore the gmm-check concurrency models under a
//!   deterministic scheduler (debug builds only)
//! * `lint`     — run the workspace invariant lint (`lint.allow` holds
//!   audited exceptions)
//! * `table1`   — print the paper's Table 1 device catalog
//! * `table2`   — print the paper's Table 2 allocation options
//! * `fig2`     — run the paper's Figure 2 worked example
//! * `table3`   — regenerate Table 3 / Figure 4 (complete vs global)
//!
//! Every subcommand also answers `--help` with its own usage text.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success |
//! | 1 | internal failure (solver error, validation failure, I/O on output) |
//! | 2 | usage error (unknown command, bad flag value) |
//! | 3 | bad input (unreadable or malformed design/board/mapping file) |
//! | 4 | infeasible instance (the board provably cannot host the design) |
//! | 5 | deadline exceeded or cancelled (solve stopped by `--deadline-secs`, a job deadline, or a cancellation) |
//!
//! The distinction lets scripts separate "fix the invocation" (2), "fix
//! the file" (3), "fix the design or pick a bigger board" (4), and "give
//! it more time" (5) without parsing stderr.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmm_api::{MapRequest, SolveMode, StderrProgress, Termination};
use gmm_arch::Board;
use gmm_check::explore::{explore, ExploreOpts};
use gmm_core::pipeline::{DetailedStrategy, Mapper, MapperOptions};
use gmm_core::{
    enumerate_port_allocations, CostWeights, DetailedIlpOptions, MapError, SolverBackend,
};
use gmm_design::Design;
use gmm_ilp::branch::MipOptions;
use gmm_ilp::StopReason;
use gmm_service::{
    JobConfig, JobEvent, JobQueue, JobState, LpBasis, LpPricing, MapServer, ProgressFrame,
    QueueOptions, ServiceStats, Session, SubmitSpec,
};
use gmm_sim::{render_report, simulate_mapping, Trace};
use gmm_workloads::{
    cycling_instances, kernels, stream_instances, table3_board, table3_design, RandomDesignSpec,
    StreamSpec, TABLE3,
};

/// Classified CLI failure; the variant fixes the process exit code.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command or malformed flag (exit 2).
    Usage(String),
    /// Unreadable or unparsable input file (exit 3).
    Input(String),
    /// The instance is provably unmappable on this board (exit 4).
    Infeasible(String),
    /// The solve was stopped by a deadline or cancellation (exit 5).
    Interrupted(String),
    /// Everything else: solver failures, output I/O, failed validation
    /// (exit 1).
    Internal(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
    fn input(msg: impl Into<String>) -> CliError {
        CliError::Input(msg.into())
    }
    fn internal(msg: impl Into<String>) -> CliError {
        CliError::Internal(msg.into())
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Internal(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Infeasible(_) => 4,
            CliError::Interrupted(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Input(m)
            | CliError::Infeasible(m)
            | CliError::Interrupted(m)
            | CliError::Internal(m) => m,
        }
    }
}

/// Pipeline errors split by who must act: infeasibility is the *instance's*
/// fault (exit 4), the rest is the tool's (exit 1).
fn classify_map_err(e: MapError) -> CliError {
    match &e {
        MapError::Infeasible => CliError::Infeasible(format!(
            "{e}: the design's port/capacity demand exceeds the board"
        )),
        MapError::Unmappable(segs) => CliError::Infeasible(format!(
            "{} segment(s) fit no bank type on this board (first: segment {})",
            segs.len(),
            segs.first().map(|s| s.0).unwrap_or(0)
        )),
        MapError::Deadline => {
            CliError::Interrupted("deadline exceeded before any solution was found".into())
        }
        MapError::Cancelled => CliError::Interrupted("solve cancelled".into()),
        _ => CliError::Internal(e.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    // `gmm <subcommand> --help` prints that subcommand's own usage text
    // (golden-tested), without running anything.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        if let Some(text) = subcommand_help(cmd) {
            println!("{text}");
            return ExitCode::SUCCESS;
        }
    }
    // A subcommand's help text is the list of flags it accepts.
    if let Some(help) = subcommand_help(cmd) {
        if let Some(flag) = rest
            .iter()
            .find(|a| a.starts_with("--") && !names_flag(help, a))
        {
            eprintln!("error: unknown flag {flag} for gmm {cmd}");
            return ExitCode::from(2);
        }
    }
    let result = match cmd.as_str() {
        // `map` is the historical spelling; both go through the facade.
        "solve" | "map" => cmd_solve(rest),
        "gen" => cmd_gen(rest),
        "simulate" => cmd_simulate(rest),
        "validate" => cmd_validate(rest),
        "export" => cmd_export(rest),
        "serve" => cmd_serve(rest),
        "route" => cmd_route(rest),
        "batch" => cmd_batch(rest),
        "arch-sweep" => cmd_arch_sweep(rest),
        "bench" => cmd_bench(rest),
        "check" => cmd_check(rest),
        "lint" => cmd_lint(rest),
        "table1" => cmd_table1(),
        "table2" => cmd_table2(rest),
        "fig2" => cmd_fig2(),
        "table3" => cmd_table3(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
gmm — global/detailed memory mapping for FPGA-based reconfigurable systems

USAGE:
  gmm solve --design <d.json> --board <b.json> [--complete] [--overlap]
            [--ilp-detailed] [--lp-basis dense|lu]
            [--lp-pricing dantzig|partial|devex]
            [--solve-mode ilp|heuristic|portfolio]
            [--deadline-secs T] [--node-budget N] [--progress]
            [--out <mapping.json>]          (alias: gmm map)
  gmm gen design --segments N [--seed S] [--out <f.json>]
  gmm gen board (--device XCV1000 [--srams N] | --table3-point I) [--out f]
  gmm gen kernel <fir|conv2d|fft|matmul|histogram> [--out <f.json>]
  gmm simulate --design <d.json> --board <b.json> [--random N]
  gmm validate --design <d.json> --board <b.json> --mapping <m.json>
               [--max-sharing N]
  gmm export --design <d.json> --board <b.json> [--complete]
             [--format mps|lp] [--out <file>]
  gmm serve [--addr 127.0.0.1:7171] [--workers N] [--cache-shards N]
            [--cache-cap K] [--cache-dir <dir>] [--no-persist]
            [--retain-jobs N] [--retain-secs T] [--time-limit-secs T]
            [--max-inflight J] [--solve-mode ilp|heuristic|portfolio]
  gmm route --backends host:port,host:port[,...] [--addr 127.0.0.1:7272]
            [--vnodes N] [--peer-fill]
  gmm batch (--dir <d> | --manifest <m.json> | --stream N [--distinct D])
            [--seed S] [--addr host:port] [--workers N] [--repeat K]
            [--verify] [--progress] [--cache-cap K] [--cache-dir <dir>]
            [--no-persist] [--retain-jobs N] [--retain-secs T]
            [--cache-shards N] [--time-limit-secs T] [--max-inflight J]
            [--lp-basis dense|lu] [--lp-pricing dantzig|partial|devex]
            [--overlap] [--ilp-detailed] [--job-deadline-secs T]
            [--solve-mode ilp|heuristic|portfolio]
  gmm arch-sweep [--capacities 2048,4096,8192] [--counts 4] [--widths 16]
            [--suite 4] [--seed S] [--workers N]
            [--solve-mode ilp|heuristic|portfolio] [--out SWEEP_arch.json]
  gmm bench [--quick] [--stream N] [--seed S] [--points 1..9]
            [--cap-secs T] [--progress] [--out BENCH_simplex.json]
  gmm check [--model cache|outbox|queue] [--preemption-bound P]
            [--min-schedules N] [--max-schedules N] [--seed S]
  gmm lint [--root <dir>]
  gmm table1
  gmm table2 [--ports 3] [--depth 16]
  gmm fig2
  gmm table3 [--points 1..9] [--cap-secs 60] [--lp-basis dense|lu]
             [--lp-pricing dantzig|partial|devex]

Every subcommand answers `--help` with its own usage text.

Solves run through the gmm-api facade: --deadline-secs bounds the whole
solve session (a deadline that fires mid-tree still reports timing and
node counters, plus the best mapping found in time), --node-budget
bounds branch-and-bound nodes, and --progress streams phase/incumbent/
node events to stderr.

The LP engine factorizes the simplex basis; `--lp-basis` picks the
backend: `lu` (sparse LU + eta updates, default) or `dense` (explicit
inverse, reference). `--lp-pricing` picks the entering-variable rule:
`dantzig` (full most-negative scan, default), `partial` (rotating
candidate window with a full-scan fallback), or `devex` (reference-
weight steepest-edge approximation). All rules reach the same optima;
they differ in pivot counts and scan cost. `bench` runs the stream
workload plus Table 3 points once per rule and writes the throughput
trajectory (instances/sec, pivots/sec, nodes/sec, refactorization
cadence) to BENCH_simplex.json.

--solve-mode picks the solver portfolio: `ilp` (the default: full
branch-and-bound, proves optimality), `heuristic` (the gmm-heur greedy
first-fit mapper alone — microseconds, always `feasible`), or
`portfolio` (greedy first, its assignment installed as the
branch-and-bound incumbent; the ILP then proves optimality or hits the
deadline carrying the heuristic answer as a `feasible` result instead
of empty-handed). On `serve` the flag is a daemon-wide policy forcing
every submitted job's mode. `arch-sweep` fans a grid of on-chip BRAM
parameters (capacity ladder x bank counts x max widths) crossed with a
design suite through the batch queue, scores each architecture by the
geometric mean of its per-design mapped costs, prints the table, and
writes the Pareto front over (geomean cost, total capacity) as
schema-tagged JSON.

`serve` runs the mapsrv daemon: a JSON-lines TCP protocol (v1 verbs
submit / poll / result / cancel / stats / shutdown, plus the v2 session
surface: hello handshake, submit_batch, and watch streams pushing state
and solver-progress events), a FIFO job queue, and a
content-addressed solution cache. `batch` pushes a set of instances
through the same queue — in-process by default, or against a running
daemon with --addr — over one multiplexed session, waits on the event
stream (no polling), and prints a per-instance summary table with each
job's Termination; --job-deadline-secs attaches a per-job deadline to
every submission, --progress renders live per-job state/phase events.

`route` fronts N running daemons with the same protocol: jobs shard
across backends by a consistent-hash ring over their content-addressed
instance keys (so identical instances reuse the same backend's cache),
watch streams merge into one per-client stream, a lost backend's
in-flight jobs re-route to the keys' new owners, and a backend at its
admission bound answers `overloaded {retry_after_ms}` through the
router. --peer-fill asks a key's previous ring owner for a cached
answer before paying a solve (cheap ring resizes).

Retention (bounded daemon memory): --cache-cap bounds live cached
solutions (LRU eviction; default 4096, 0 = unbounded), --retain-jobs
bounds terminal job records per record shard (default 1024, 0 =
unbounded), --retain-secs additionally expires terminal records by
age (swept opportunistically on submit and on job completion, not just
on the stats verb). Polling a pruned job id returns the structured
state `expired`. `batch --stream N --distinct D` cycles N submissions
through D distinct instances to exercise eviction and re-solve paths.

`check` runs the gmm-check concurrency model checker: small closed
models of the solution cache, the watch outbox and the job queue's
claim protocol are executed under every bounded-preemption
interleaving of a deterministic scheduler (debug builds only — the
scheduling instrumentation is compiled out of release binaries).
`lint` runs the workspace invariant scanner: panic-free request paths,
per-verb round-trip tests and documented option defaults, with audited
exceptions in `lint.allow`.

Persistence: --cache-dir <dir> adds an on-disk cache tier (an
append-only, checksummed segment log) under the memory cache. Optimal
solves and LRU-evicted entries spill to it, a restart reloads it, and a
memory miss falls through to disk — so a restarted daemon answers
repeat traffic byte-identically without re-solving. The same log keeps
per-family warm-start hints that seed branch-and-bound on near-miss
instances. --no-persist ignores --cache-dir and runs memory-only.

Exit codes: 0 ok, 1 internal failure, 2 usage error, 3 malformed input,
4 infeasible instance, 5 deadline exceeded or cancelled.
";

/// Whether `help` names `flag` as a whole word (`--lp` is not named by
/// `--lp-basis`).
fn names_flag(help: &str, flag: &str) -> bool {
    help.match_indices(flag).any(|(i, _)| {
        !help[i + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
    })
}

/// Per-subcommand `--help` text (golden-tested; see
/// `crates/cli/tests/help_golden.rs`).
fn subcommand_help(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "solve" | "map" => {
            "\
gmm solve — map a design onto a board (alias: gmm map)

USAGE:
  gmm solve --design <d.json> --board <b.json> [options]

OPTIONS:
  --design <file>       design JSON (required)
  --board <file>        board JSON (required)
  --complete            one-step complete formulation (Table 3 baseline)
  --overlap             lifetime-based capacity modification
  --ilp-detailed        ILP detailed mapper instead of the constructive packer
  --lp-basis dense|lu   simplex basis factorization backend (default lu)
  --lp-pricing R        simplex pricing rule: dantzig (default), partial,
                        or devex; all reach the same optima
  --solve-mode M        ilp (default: prove optimality), heuristic (greedy
                        first-fit only, always `feasible`), or portfolio
                        (greedy seeds the branch-and-bound incumbent; a
                        deadline then returns the heuristic answer as
                        `feasible` instead of empty-handed); not available
                        with --complete
  --deadline-secs T     wall-clock budget; past it the solve stops and
                        reports termination `deadline-exceeded` (exit 5)
  --node-budget N       branch-and-bound node budget across the session
  --progress            stream phase/incumbent/node events to stderr
  --out <file>          write the detailed mapping JSON

Exit codes: 0 ok, 1 internal, 2 usage, 3 bad input, 4 infeasible,
5 deadline exceeded or cancelled."
        }
        "gen" => {
            "\
gmm gen — generate designs and boards

USAGE:
  gmm gen design --segments N [--seed S] [--out <f.json>]
  gmm gen board (--device XCV1000 [--srams N] | --table3-point I) [--out f]
  gmm gen kernel <fir|conv2d|fft|matmul|histogram> [--out <f.json>]"
        }
        "simulate" => {
            "\
gmm simulate — map a design and replay an access trace on the result

USAGE:
  gmm simulate --design <d.json> --board <b.json> [--random N]

OPTIONS:
  --random N   replay N random accesses instead of the profile trace"
        }
        "validate" => {
            "\
gmm validate — check a detailed mapping against a design and board

USAGE:
  gmm validate --design <d.json> --board <b.json> --mapping <m.json>
               [--max-sharing N]

OPTIONS:
  --max-sharing N   allow up to N segments per port (default 1)"
        }
        "export" => {
            "\
gmm export — write the global (or complete) ILP in MPS or LP format

USAGE:
  gmm export --design <d.json> --board <b.json> [--complete]
             [--format mps|lp] [--out <file>]"
        }
        "serve" => {
            "\
gmm serve — run the mapsrv batch daemon (JSON-lines over TCP)

USAGE:
  gmm serve [--addr 127.0.0.1:7171] [--workers N] [--cache-shards N]
            [--cache-cap K] [--cache-dir <dir>] [--no-persist]
            [--retain-jobs N] [--retain-secs T] [--time-limit-secs T]
            [--max-inflight J] [--solve-mode ilp|heuristic|portfolio]

--max-inflight J bounds admission: past J queued+running jobs, submits
answer the structured v2 `overloaded {retry_after_ms}` response instead
of queueing without bound (0 = unbounded, the default). Session clients
(`gmm batch`, the router) retry with the suggested backoff; v1 clients
see a plain error.

--solve-mode sets a daemon-wide solve policy: every submitted job is
forced to that mode (before its cache key is computed, so per-mode
cache slots stay consistent). Without it each job's own config decides.

Verbs (v1): submit (optional deadline_ms) / poll / result / cancel /
stats / shutdown. Jobs past their deadline answer `deadline`; cancelled
jobs answer `cancelled`; pruned job ids answer `expired`.

--cache-dir <dir> persists the solution cache across restarts: optimal
solves and LRU evictions land in an append-only checksummed log that is
replayed (and compacted) on startup, so a restarted daemon serves
repeat submissions byte-identically from disk (counted in stats as
disk_hits). The log also carries per-family warm-start hints that seed
branch-and-bound on near-miss instances (hint_hits / incumbent_seeded).
--no-persist ignores --cache-dir and runs memory-only.

Protocol v2 (negotiated per connection, v1 stays available): `hello`
negotiates {proto:2} and advertises capabilities, `submit_batch` takes
many jobs per round-trip, and `watch` turns the connection into a
server-push stream of JSON-lines events — `state` transitions
(terminal ones carry the full termination) and solver `progress`
frames. Event delivery is bounded per connection (drop-oldest progress,
counted in stats as events_dropped), so slow readers never stall
workers."
        }
        "route" => {
            "\
gmm route — front N mapsrv daemons with one sharded endpoint

USAGE:
  gmm route --backends host:port,host:port[,...] [--addr 127.0.0.1:7272]
            [--vnodes N] [--peer-fill]

OPTIONS:
  --backends a,b,...   running mapsrv addresses (required; also accepts
                       the flag repeated); order matters — router job
                       ids embed each backend's position, so keep the
                       list stable across router restarts
  --addr host:port     listen address (default 127.0.0.1:7272)
  --vnodes N           ring points per backend (default 64); more points
                       smooth the key split at ring-build cost
  --peer-fill          before routing a submit, ask the key's previous
                       ring owner for a cached answer via the
                       non-promoting `peek` verb — cheap ring resizes

The router speaks the daemon's own JSON-lines protocol on both sides:
clients connect exactly as they would to one mapsrv (v1 verbs and the
v2 session surface both work), and the router is a protocol-v2 client
of every backend. Jobs shard by the consistent-hash ring over their
content-addressed instance keys, so identical instances always reuse
the same backend's solution cache. Per-client watch streams from all
backends merge into one event stream.

Failure handling: a lost backend leaves the ring and its in-flight
jobs re-submit to the keys' new owners (stderr logs each loss with a
reconnects counter); a backend at its --max-inflight admission bound
answers `overloaded {retry_after_ms}`, which the router retries
briefly and then propagates to v2 clients (v1 clients see a plain
error). `stats` aggregates all backends: counters sum, latency
percentiles report the worst shard.

Send {\"verb\":\"shutdown\"} to stop the router (backends keep running)."
        }
        "batch" => {
            "\
gmm batch — stream instances through the job queue, print a summary

USAGE:
  gmm batch (--dir <d> | --manifest <m.json> | --stream N [--distinct D])
            [--seed S] [--addr host:port] [--workers N] [--repeat K]
            [--verify] [--progress] [--cache-cap K] [--cache-dir <dir>]
            [--no-persist] [--retain-jobs N] [--retain-secs T]
            [--cache-shards N] [--time-limit-secs T] [--max-inflight J]
            [--lp-basis dense|lu] [--lp-pricing dantzig|partial|devex]
            [--overlap] [--ilp-detailed] [--job-deadline-secs T]
            [--solve-mode ilp|heuristic|portfolio]

OPTIONS:
  --solve-mode M          per-job solve mode (see `gmm solve --help`);
                          portfolio seeds every branch-and-bound with the
                          greedy answer — the summary line's heuristic
                          counters show how often it engaged
  --progress              render live per-job state/phase/incumbent
                          events to stderr (local and --addr sessions
                          both stream; remote events ride the protocol-v2
                          watch stream)
  --cache-dir <dir>       persistent cache tier for the in-process queue
                          (see `gmm serve --help`); --no-persist ignores it
  --job-deadline-secs T   per-job solve deadline; jobs past it terminate
                          in the structured `deadline` state (exit 5 when
                          any job was deadline'd/cancelled and none failed)

The summary table carries each job's full Termination (optimal /
feasible / deadline-exceeded / cancelled / infeasible) plus per-round
termination counts.

Exit codes: 0 ok, 1 any job failed, 5 deadline'd/cancelled jobs only."
        }
        "table1" => "gmm table1 — print the paper's Table 1 device catalog\n\nUSAGE:\n  gmm table1",
        "table2" => {
            "\
gmm table2 — print the paper's Table 2 allocation options

USAGE:
  gmm table2 [--ports 3] [--depth 16]"
        }
        "fig2" => "gmm fig2 — run the paper's Figure 2 worked example\n\nUSAGE:\n  gmm fig2",
        "table3" => {
            "\
gmm table3 — regenerate Table 3 / Figure 4 (complete vs global)

USAGE:
  gmm table3 [--points 1..9] [--cap-secs 60] [--lp-basis dense|lu]
             [--lp-pricing dantzig|partial|devex]"
        }
        "bench" => {
            "\
gmm bench — simplex pricing ablation, written to BENCH_simplex.json

USAGE:
  gmm bench [--quick] [--stream N] [--seed S] [--points 1..9]
            [--cap-secs T] [--progress] [--out BENCH_simplex.json]

Runs the stream workload plus the selected Table 3 points once per
pricing rule (dantzig, partial, devex) through the gmm-api facade and
writes a JSON trajectory report: per rule, instances/sec over the
stream, pivots/sec and nodes/sec through the solver loops, total
refactorizations, and the peak eta-file fill-in.

OPTIONS:
  --quick       CI-sized smoke run (8 stream instances, Table 3 points
                1-2, 2 s caps); default is 24 instances, all 9 points,
                5 s caps
  --stream N    override the stream instance count
  --seed S      stream workload seed (default 0xBEEF)
  --points P    Table 3 points to time per rule (e.g. 1..3 or 1,4,9)
  --cap-secs T  per-point deadline; capped points are marked `capped`
  --progress    stream phase/incumbent/node events to stderr
  --out <file>  report path (default BENCH_simplex.json)

The run fails (exit 1) if devex pivots/sec drops below 0.8x the
dantzig baseline measured in the same run — the devex update must stay
cheap enough that its per-pivot overhead never dominates."
        }
        "arch-sweep" => {
            "\
gmm arch-sweep — score a grid of memory architectures over a design suite

USAGE:
  gmm arch-sweep [--capacities 2048,4096,8192] [--counts 4] [--widths 16]
                 [--suite 4] [--seed S] [--workers N]
                 [--solve-mode ilp|heuristic|portfolio]
                 [--out SWEEP_arch.json]

Expands the grid capacities x counts x widths into boards (each swept
on-chip BRAM type plus a fixed off-chip spill tier that keeps every
point mappable), maps every suite design on every board through the
batch job queue, and scores each architecture by the geometric mean of
its per-design mapped costs — the geomean keeps one outlier design from
dominating a suite-wide score. Prints the per-architecture table and
writes a schema-tagged JSON artifact (`gmm-arch-sweep/v1`) carrying
every scored architecture plus the Pareto front over (geomean cost,
total board capacity): the cheapest architecture at every capacity
budget.

OPTIONS:
  --capacities L  comma-separated per-instance BRAM capacities in bits
                  (default 2048,4096,8192)
  --counts L      comma-separated BRAM instance counts (default 4)
  --widths L      comma-separated maximum data widths (default 16)
  --suite N       designs drawn from the stream generator (default 4)
  --seed S        stream seed the suite is drawn from (default 0xBEEF)
  --workers N     queue worker threads (default: auto)
  --solve-mode M  solve mode for every job (default portfolio — the
                  greedy seed makes a full sweep cheap; optima are
                  unchanged)
  --out <file>    artifact path (default SWEEP_arch.json)

Exit codes: 0 ok, 1 no architecture scored (or internal failure)."
        }
        "check" => {
            "\
gmm check — explore the gmm-check concurrency models

USAGE:
  gmm check [--model cache|outbox|queue] [--preemption-bound P]
            [--min-schedules N] [--max-schedules N] [--seed S]

Runs each closed model of the service layer's concurrent types (the
solution cache, the watch outbox, the job queue's claim protocol)
under a deterministic scheduler that enumerates interleavings
depth-first with a bounded number of preemptions, then tops up with
seeded-random schedules to the floor. Every schedule re-runs the model
from scratch and re-checks its invariants; the first violating
schedule is reported with the decision trace that reproduces it.

Debug builds only: the schedule points and lock instrumentation are
compiled out of release binaries, so a release `gmm check` exits with
a usage error instead of silently exploring nothing.

OPTIONS:
  --model M             run one model instead of all (cache|outbox|queue)
  --preemption-bound P  max involuntary switches per schedule (default 2)
  --min-schedules N     fail any model explored fewer than N times
                        (default 1000; random top-up fills small DFS
                        spaces to this floor)
  --max-schedules N     hard cap on schedules per model (default 5000)
  --seed S              base seed for the random top-up phase

Exit codes: 0 all models hold, 1 a model failed or missed the floor,
2 usage error (including release builds)."
        }
        "lint" => {
            "\
gmm lint — workspace invariant lint

USAGE:
  gmm lint [--root <dir>]

Scans the workspace sources (no syn, no rustc plumbing) and enforces
the cross-cutting rules the compiler cannot see:

  panic-free-request-path  no .unwrap()/.expect()/panic! outside
                           #[cfg(test)] in the mapsrv request path
                           (server.rs, protocol.rs); malformed frames
                           must answer structured errors
  verb-round-trip          every wire verb in protocol.rs has a
                           fn <verb>_round_trip… test
  options-defaults         every pub #[non_exhaustive] *Options struct
                           has a Default and documents its defaults
  one-codec                outside crates/compat/, no impl Serialize or
                           impl Deserialize defines to_value or
                           from_value; write_json and read_json are
                           the only codecs

Audited exceptions live in lint.allow at the workspace root, one
`rule:file-suffix:substring` per line; malformed entries are findings.

OPTIONS:
  --root <dir>  workspace root (default: walk up from the current
                directory to the first [workspace] Cargo.toml)

Exit codes: 0 clean, 1 findings, 3 workspace root not found."
        }
        _ => return None,
    })
}

/// Tiny flag parser: `--key value` and boolean `--key`.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args }
    }
    fn get(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }
    fn has(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }
    /// Every value of a repeatable `--key value` flag, in order.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == key)
            .filter_map(|(i, _)| self.args.get(i + 1))
            .map(String::as_str)
            .collect()
    }
    fn positional(&self, idx: usize) -> Option<&str> {
        self.args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .nth(idx)
            .map(String::as_str)
    }
    /// Parse `--key value` into any `FromStr` type (usage error on junk).
    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| CliError::usage(format!("{key}: {e}"))),
        }
    }

    /// Parse `--key value` as a non-negative finite duration in seconds
    /// (`Duration::from_secs_f64` panics on negative/NaN input).
    fn parse_secs(&self, key: &str) -> Result<Option<Duration>, CliError> {
        match self.parse::<f64>(key)? {
            None => Ok(None),
            Some(s) if s.is_finite() && s >= 0.0 => Ok(Some(Duration::from_secs_f64(s))),
            Some(s) => Err(CliError::usage(format!(
                "{key}: must be a non-negative number of seconds, got {s}"
            ))),
        }
    }
}

fn load_design(path: &str) -> Result<Design, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("reading {path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| CliError::input(format!("parsing {path}: {e}")))
}

fn load_board(path: &str) -> Result<Board, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("reading {path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| CliError::input(format!("parsing {path}: {e}")))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    let text =
        serde_json::to_string_pretty(value).map_err(|e| CliError::internal(e.to_string()))?;
    std::fs::write(path, text).map_err(|e| CliError::internal(format!("writing {path}: {e}")))
}

fn lp_basis_from_flags(f: &Flags) -> Result<Option<gmm_ilp::BasisBackend>, CliError> {
    match f.get("--lp-basis") {
        None => Ok(None),
        Some("lu") | Some("sparse-lu") => Ok(Some(gmm_ilp::BasisBackend::SparseLu)),
        Some("dense") => Ok(Some(gmm_ilp::BasisBackend::Dense)),
        Some(other) => Err(CliError::usage(format!(
            "--lp-basis must be `dense` or `lu`, got `{other}`"
        ))),
    }
}

fn lp_pricing_from_flags(f: &Flags) -> Result<Option<gmm_ilp::PricingRule>, CliError> {
    match f.get("--lp-pricing") {
        None => Ok(None),
        Some(name) => match gmm_ilp::PricingRule::from_name(name) {
            Some(rule) => Ok(Some(rule)),
            None => Err(CliError::usage(format!(
                "--lp-pricing must be `dantzig`, `partial`, or `devex`, got `{name}`"
            ))),
        },
    }
}

fn solve_mode_from_flags(f: &Flags) -> Result<SolveMode, CliError> {
    match f.get("--solve-mode") {
        None => Ok(SolveMode::Ilp),
        Some(name) => SolveMode::from_name(name).ok_or_else(|| {
            CliError::usage(format!(
                "--solve-mode must be `ilp`, `heuristic`, or `portfolio`, got `{name}`"
            ))
        }),
    }
}

fn backend_from_flags(f: &Flags) -> Result<SolverBackend, CliError> {
    let mut backend = SolverBackend::default();
    if let Some(basis) = lp_basis_from_flags(f)? {
        backend.set_lp_basis(basis);
    }
    if let Some(pricing) = lp_pricing_from_flags(f)? {
        backend.set_lp_pricing(pricing);
    }
    Ok(backend)
}

fn cmd_solve(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let design = load_design(
        f.get("--design")
            .ok_or(CliError::Usage("--design required".into()))?,
    )?;
    let board = load_board(
        f.get("--board")
            .ok_or(CliError::Usage("--board required".into()))?,
    )?;

    let solve_mode = solve_mode_from_flags(&f)?;

    if f.has("--complete") {
        if solve_mode != SolveMode::Ilp {
            return Err(CliError::usage(
                "--solve-mode applies to the two-phase facade; \
                 the --complete baseline is ILP-only",
            ));
        }
        // The complete one-step baseline bypasses the two-phase facade,
        // but the session limits still apply to its (single) MIP solve.
        let mut opts = MapperOptions::new();
        opts.backend = backend_from_flags(&f)?;
        opts.overlap_aware = f.has("--overlap");
        let mut control = gmm_ilp::control::SolveControl::default();
        if f.has("--progress") {
            control.observer = Some(Arc::new(StderrProgress::new()));
        }
        let deadline = f.parse_secs("--deadline-secs")?;
        opts.backend
            .apply_control(deadline, f.parse::<u64>("--node-budget")?, &control);
        let t0 = Instant::now();
        let (assignment, stats, telemetry) = Mapper::new(opts)
            .map_complete_run(&design, &board)
            .map_err(classify_map_err)?;
        let elapsed = t0.elapsed();
        println!(
            "complete formulation: {} vars, {} constraints, {} nonzeros",
            stats.variables, stats.constraints, stats.nonzeros
        );
        println!("solved in {elapsed:?}");
        print_assignment(&design, &board, &assignment.type_of);
        // The solver's own stop reason decides the exit: a deadline that
        // fired mid-solve left a best-effort incumbent, not a proven
        // optimum — same exit-5 contract as the facade path.
        if let Some(reason @ (StopReason::Deadline | StopReason::Cancelled)) = telemetry.stop_reason
        {
            return Err(CliError::Interrupted(format!(
                "{} after {elapsed:?}; the assignment above is best-effort, \
                 not proven optimal",
                reason.as_str()
            )));
        }
        return Ok(());
    }

    // Everything else goes through the unified facade.
    let mut request = MapRequest::new(design.clone(), board.clone())
        .backend(backend_from_flags(&f)?)
        .overlap_aware(f.has("--overlap"))
        .solve_mode(solve_mode);
    if f.has("--ilp-detailed") {
        request = request.strategy(DetailedStrategy::Ilp(DetailedIlpOptions::default()));
    }
    if let Some(d) = f.parse_secs("--deadline-secs")? {
        request = request.deadline(d);
    }
    if let Some(n) = f.parse::<u64>("--node-budget")? {
        request = request.node_budget(n);
    }
    if f.has("--progress") {
        request = request.observer(Arc::new(StderrProgress::new()));
    }

    let report = request.execute().map_err(|e| match e {
        gmm_api::ApiError::Map(me) => classify_map_err(me),
        other => CliError::internal(other.to_string()),
    })?;

    println!(
        "termination: {} ({} nodes, {} pivots, {} warm-started, {} refactorizations, {} retries)",
        report.termination,
        report.nodes_explored,
        report.lp_iterations,
        report.warm_started_nodes,
        report.refactorizations,
        report.retries
    );
    if let Some(h) = report.heuristic_objective {
        println!(
            "heuristic incumbent: {h:.3}{}",
            if report.proved_optimal_from_heuristic {
                " — the ILP proved it optimal"
            } else {
                ""
            }
        );
    }
    if let Some(out) = &report.outcome {
        println!(
            "mapped {} segments in {:?} (global {:?}, detailed {:?})",
            design.num_segments(),
            report.total_time,
            report.global_time,
            report.detailed_time,
        );
        print_assignment(&design, &board, &out.global.type_of);
        println!(
            "cost: latency {:.0}, pin-delay {:.0}, pin-io {:.0}",
            out.cost.latency, out.cost.pin_delay, out.cost.pin_io
        );
        println!(
            "fragments: {}, instances used: {}",
            out.detailed.fragments.len(),
            out.detailed.instances_used()
        );
        if let Some(path) = f.get("--out") {
            write_json(path, &out.detailed)?;
            println!("detailed mapping written to {path}");
        }
    }
    match report.termination {
        Termination::Optimal | Termination::Feasible => Ok(()),
        Termination::Infeasible => Err(CliError::Infeasible(
            report
                .diagnostic
                .unwrap_or_else(|| "board cannot host the design".into()),
        )),
        Termination::DeadlineExceeded => Err(CliError::Interrupted(format!(
            "deadline exceeded after {:?} ({} nodes explored{})",
            report.total_time,
            report.nodes_explored,
            if report.outcome.is_some() {
                "; best-effort mapping printed above"
            } else {
                ""
            }
        ))),
        Termination::Cancelled => Err(CliError::Interrupted(format!(
            "cancelled after {:?}",
            report.total_time
        ))),
    }
}

fn print_assignment(design: &Design, board: &Board, type_of: &[gmm_arch::BankTypeId]) {
    let mut counts = vec![0usize; board.num_types()];
    for t in type_of {
        counts[t.0] += 1;
    }
    for (t, bank) in board.iter() {
        println!("  {:<24} <- {} segments", bank.name, counts[t.0]);
    }
    if design.num_segments() <= 24 {
        for (d, seg) in design.iter() {
            println!("    {} -> {}", seg, board.bank(type_of[d.0]).name);
        }
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let kind = f
        .positional(0)
        .ok_or(CliError::Usage("gen requires design|board|kernel".into()))?;
    match kind {
        "design" => {
            let segments: usize = f.parse("--segments")?.unwrap_or(16);
            if segments == 0 {
                return Err(CliError::usage("--segments must be at least 1"));
            }
            let seed = f.parse("--seed")?.unwrap_or(0xC0FFEE);
            let design = gmm_workloads::random_design(&RandomDesignSpec {
                segments,
                seed,
                ..RandomDesignSpec::default()
            });
            emit(&f, &design, "design")
        }
        "board" => {
            if let Some(point) = f.get("--table3-point") {
                let idx: usize = point
                    .parse()
                    .map_err(|e| CliError::usage(format!("--table3-point: {e}")))?;
                if !(1..=9).contains(&idx) {
                    return Err(CliError::usage("--table3-point must be 1..9"));
                }
                let board = table3_board(&TABLE3[idx - 1]);
                return emit(&f, &board, "board");
            }
            let device = f.get("--device").unwrap_or("XCV1000");
            let srams = f.parse("--srams")?.unwrap_or(4);
            let board =
                Board::prototyping(device, srams).map_err(|e| CliError::usage(e.to_string()))?;
            emit(&f, &board, "board")
        }
        "kernel" => {
            let name = f
                .positional(1)
                .ok_or(CliError::Usage("kernel name required".into()))?;
            let design = match name {
                "fir" => kernels::fir(16, 1024),
                "conv2d" => kernels::conv2d(128, 128, 3),
                "fft" => kernels::fft(1024),
                "matmul" => kernels::matmul(64, 8),
                "histogram" => kernels::histogram(128, 128, 256),
                other => return Err(CliError::usage(format!("unknown kernel `{other}`"))),
            };
            emit(&f, &design, "design")
        }
        other => Err(CliError::usage(format!("unknown gen target `{other}`"))),
    }
}

fn emit<T: serde::Serialize>(f: &Flags, value: &T, what: &str) -> Result<(), CliError> {
    match f.get("--out") {
        Some(path) => {
            write_json(path, value)?;
            println!("{what} written to {path}");
            Ok(())
        }
        None => {
            println!(
                "{}",
                serde_json::to_string_pretty(value)
                    .map_err(|e| CliError::internal(e.to_string()))?
            );
            Ok(())
        }
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let design = load_design(
        f.get("--design")
            .ok_or(CliError::Usage("--design required".into()))?,
    )?;
    let board = load_board(
        f.get("--board")
            .ok_or(CliError::Usage("--board required".into()))?,
    )?;
    let mapper = Mapper::new(MapperOptions::new());
    let out = mapper.map(&design, &board).map_err(classify_map_err)?;
    let trace = match f.parse::<usize>("--random")? {
        Some(n) => Trace::random(&design, n, 42),
        None => Trace::from_profiles(&design),
    };
    let report = simulate_mapping(&design, &board, &out.detailed, &trace)
        .map_err(|e| CliError::internal(e.to_string()))?;
    print!("{}", render_report(&design, &report));
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let design = load_design(
        f.get("--design")
            .ok_or(CliError::Usage("--design required".into()))?,
    )?;
    let board = load_board(
        f.get("--board")
            .ok_or(CliError::Usage("--board required".into()))?,
    )?;
    let path = f
        .get("--mapping")
        .ok_or(CliError::Usage("--mapping required".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("reading {path}: {e}")))?;
    let mapping: gmm_core::DetailedMapping =
        serde_json::from_str(&text).map_err(|e| CliError::input(format!("parsing {path}: {e}")))?;
    let policy = gmm_core::ValidationPolicy {
        max_port_sharing: f.parse("--max-sharing")?.unwrap_or(1),
    };
    let violations = gmm_core::validate_detailed_policy(&design, &board, &mapping, policy);
    let decode_errors = gmm_sim::check_adder_free(&mapping);
    if violations.is_empty() && decode_errors.is_empty() {
        println!(
            "OK: {} fragments, {} instances, adder-free decode",
            mapping.fragments.len(),
            mapping.instances_used()
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v:?}");
        }
        for (i, e) in &decode_errors {
            eprintln!("fragment {i}: {e}");
        }
        Err(CliError::internal(format!(
            "{} violations, {} decode errors",
            violations.len(),
            decode_errors.len()
        )))
    }
}

fn cmd_export(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let design = load_design(
        f.get("--design")
            .ok_or(CliError::Usage("--design required".into()))?,
    )?;
    let board = load_board(
        f.get("--board")
            .ok_or(CliError::Usage("--board required".into()))?,
    )?;
    let pre = gmm_core::PreTable::build(&design, &board);
    let matrix = gmm_core::CostMatrix::build(&design, &board, &pre);
    let weights = CostWeights::default();
    let model = if f.has("--complete") {
        gmm_core::complete::build_complete_model(&design, &board, &pre, &matrix, &weights, false)
            .map_err(classify_map_err)?
            .model
    } else {
        gmm_core::global::build_global_model(&design, &board, &pre, &matrix, &weights, false, &[])
            .map_err(classify_map_err)?
            .model
    };
    let text = match f.get("--format").unwrap_or("mps") {
        "mps" => gmm_ilp::io::to_mps(&model),
        "lp" => gmm_ilp::io::to_lp(&model),
        other => {
            return Err(CliError::usage(format!(
                "unknown format `{other}` (mps|lp)"
            )))
        }
    };
    match f.get("--out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::internal(format!("writing {path}: {e}")))?;
            println!(
                "wrote {} ({} vars, {} constraints)",
                path,
                model.num_vars(),
                model.num_constraints()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve / batch — the batch mapping service front end
// ---------------------------------------------------------------------------

fn job_config_from_flags(f: &Flags) -> Result<JobConfig, CliError> {
    Ok(JobConfig {
        lp_basis: lp_basis_from_flags(f)?
            .map(LpBasis::from)
            .unwrap_or(LpBasis::Lu),
        lp_pricing: lp_pricing_from_flags(f)?
            .map(LpPricing::from)
            .unwrap_or(LpPricing::Dantzig),
        overlap_aware: f.has("--overlap"),
        detailed_ilp: f.has("--ilp-detailed"),
        solve_mode: solve_mode_from_flags(f)?,
    })
}

fn queue_options_from_flags(f: &Flags) -> Result<QueueOptions, CliError> {
    let mut opts = QueueOptions::default();
    opts.workers = f.parse("--workers")?.unwrap_or(0);
    opts.cache_shards = f.parse("--cache-shards")?.unwrap_or(opts.cache_shards);
    opts.cache_cap = f.parse("--cache-cap")?.unwrap_or(opts.cache_cap);
    opts.retain_jobs = f.parse("--retain-jobs")?.unwrap_or(opts.retain_jobs);
    opts.retain_age = f.parse_secs("--retain-secs")?;
    opts.job_time_limit = f.parse_secs("--time-limit-secs")?;
    opts.max_inflight = f.parse("--max-inflight")?.unwrap_or(0);
    if !f.has("--no-persist") {
        opts.persist_dir = f.get("--cache-dir").map(std::path::PathBuf::from);
    }
    // A queue-wide policy only when the flag is present: `serve` forces
    // every client's jobs, local `batch` just mirrors its own job config.
    if f.get("--solve-mode").is_some() {
        opts.solve_mode = Some(solve_mode_from_flags(f)?);
    }
    Ok(opts)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let addr = f.get("--addr").unwrap_or("127.0.0.1:7171");
    let queue = Arc::new(JobQueue::new(queue_options_from_flags(&f)?));
    let workers = queue.num_workers();
    let server = MapServer::start(addr, queue)
        .map_err(|e| CliError::internal(format!("binding {addr}: {e}")))?;
    println!(
        "mapsrv listening on {} ({} workers); send {{\"verb\":\"shutdown\"}} to stop",
        server.local_addr(),
        workers
    );
    server.join();
    println!("mapsrv stopped");
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    // `--backends a,b,c` and repeated `--backends` both work, mixed.
    let backends: Vec<String> = f
        .get_all("--backends")
        .iter()
        .flat_map(|v| v.split(','))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if backends.is_empty() {
        return Err(CliError::usage(
            "route needs --backends host:port[,host:port...]",
        ));
    }
    let addr = f.get("--addr").unwrap_or("127.0.0.1:7272");
    let mut opts = gmm_cluster::RouterOptions::new(backends);
    opts.vnodes = f.parse("--vnodes")?.unwrap_or(0);
    opts.peer_fill = f.has("--peer-fill");
    let n = opts.backends.len();
    let peer_fill = opts.peer_fill;
    let router = gmm_cluster::Router::start(addr, opts)
        .map_err(|e| CliError::internal(format!("binding {addr}: {e}")))?;
    println!(
        "route listening on {} over {} backend(s) (peer-fill {}); \
         send {{\"verb\":\"shutdown\"}} to stop",
        router.local_addr(),
        n,
        if peer_fill { "on" } else { "off" },
    );
    router.join();
    println!("route stopped");
    Ok(())
}

/// One instance headed into the batch queue.
struct BatchInstance {
    name: String,
    design: Design,
    board: Board,
}

/// A design/board pair as stored in a `--dir` instance file.
#[derive(serde::Deserialize)]
struct InstanceFile {
    design: Design,
    board: Board,
}

fn load_batch_instances(f: &Flags) -> Result<Vec<BatchInstance>, CliError> {
    if let Some(dir) = f.get("--dir") {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| CliError::input(format!("reading {dir}: {e}")))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(CliError::input(format!(
                "{dir} contains no .json instances"
            )));
        }
        let mut out = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| CliError::input(format!("reading {}: {e}", p.display())))?;
            let inst: InstanceFile = serde_json::from_str(&text)
                .map_err(|e| CliError::input(format!("parsing {}: {e}", p.display())))?;
            out.push(BatchInstance {
                name: p
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.display().to_string()),
                design: inst.design,
                board: inst.board,
            });
        }
        return Ok(out);
    }

    if let Some(path) = f.get("--manifest") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::input(format!("reading {path}: {e}")))?;
        let value: serde::Value = serde_json::from_str(&text)
            .map_err(|e| CliError::input(format!("parsing {path}: {e}")))?;
        let entries = value
            .as_array()
            .ok_or_else(|| CliError::input(format!("{path}: manifest must be a JSON array")))?;
        let base = std::path::Path::new(path)
            .parent()
            .unwrap_or(std::path::Path::new("."));
        let resolve = |p: &str| {
            let pb = std::path::Path::new(p);
            if pb.is_absolute() {
                pb.to_path_buf()
            } else {
                base.join(pb)
            }
        };
        let mut out = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let design_path = e
                .get("design")
                .and_then(|v| v.as_str())
                .ok_or_else(|| CliError::input(format!("{path}: entry {i} missing `design`")))?;
            let board_path = e
                .get("board")
                .and_then(|v| v.as_str())
                .ok_or_else(|| CliError::input(format!("{path}: entry {i} missing `board`")))?;
            let name = e
                .get("name")
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .unwrap_or_else(|| format!("job{i}"));
            out.push(BatchInstance {
                name,
                design: load_design(&resolve(design_path).display().to_string())?,
                board: load_board(&resolve(board_path).display().to_string())?,
            });
        }
        if out.is_empty() {
            return Err(CliError::input(format!("{path}: manifest is empty")));
        }
        return Ok(out);
    }

    if let Some(n) = f.parse::<usize>("--stream")? {
        if n == 0 {
            return Err(CliError::usage("--stream must be at least 1"));
        }
        let seed = f.parse("--seed")?.unwrap_or(0xBEEF);
        let spec = StreamSpec {
            seed,
            ..StreamSpec::default()
        };
        let into_batch = |inst: gmm_workloads::StreamInstance| BatchInstance {
            name: inst.name,
            design: inst.design,
            board: inst.board,
        };
        // --distinct D cycles N submissions through D distinct instances
        // (retention soak shape); without it every instance is distinct.
        return match f.parse::<usize>("--distinct")? {
            Some(0) => Err(CliError::usage("--distinct must be at least 1")),
            Some(d) => Ok(cycling_instances(spec, d).take(n).map(into_batch).collect()),
            None => Ok(stream_instances(spec).take(n).map(into_batch).collect()),
        };
    }

    Err(CliError::usage(
        "batch needs an instance source: --dir, --manifest, or --stream N",
    ))
}

struct BatchRow {
    name: String,
    state: JobState,
    cached: bool,
    objective: Option<f64>,
    error: Option<String>,
    /// Full termination of the solve session, when known.
    termination: Option<Termination>,
    /// Full canonical solution JSON for verification.
    solution_json: Option<String>,
}

/// Render one live event to stderr (`batch --progress`).
fn render_batch_event(ev: &JobEvent, names: &std::collections::HashMap<u64, String>, t0: Instant) {
    let stamp = t0.elapsed().as_secs_f64();
    let name = |job: u64| {
        names
            .get(&job)
            .map(String::as_str)
            .unwrap_or("?")
            .to_string()
    };
    match ev {
        JobEvent::State {
            job,
            state,
            termination,
        } => match termination {
            Some(t) => eprintln!(
                "[{stamp:>7.3}s] job {job} ({}) state    {} [{}]",
                name(*job),
                state.as_str(),
                t.as_str()
            ),
            None => eprintln!(
                "[{stamp:>7.3}s] job {job} ({}) state    {}",
                name(*job),
                state.as_str()
            ),
        },
        JobEvent::Progress { job, frame } => match frame {
            ProgressFrame::Phase { phase } => {
                eprintln!(
                    "[{stamp:>7.3}s] job {job} ({}) phase    {phase}",
                    name(*job)
                )
            }
            ProgressFrame::Incumbent { objective, nodes } => eprintln!(
                "[{stamp:>7.3}s] job {job} ({}) incumbent {objective:.3} (node {nodes})",
                name(*job)
            ),
            ProgressFrame::Nodes { nodes } => {
                eprintln!(
                    "[{stamp:>7.3}s] job {job} ({}) nodes    {nodes}",
                    name(*job)
                )
            }
        },
        JobEvent::Stats(d) => eprintln!(
            "[{stamp:>7.3}s] stats depth {} p50 {}ms p95 {}ms (+{} done, +{} failed)",
            d.queue_depth, d.latency_p50_ms, d.latency_p95_ms, d.jobs_completed, d.jobs_failed
        ),
    }
}

fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let instances = load_batch_instances(&f)?;
    let config = job_config_from_flags(&f)?;
    let repeat: usize = f.parse("--repeat")?.unwrap_or(1).max(1);
    let verify = f.has("--verify");
    if verify && repeat < 2 {
        return Err(CliError::usage("--verify needs --repeat 2 or more"));
    }
    let job_deadline = f.parse_secs("--job-deadline-secs")?;
    let progress = f.has("--progress");
    let round_timeout = Duration::from_secs(600);

    let t0 = Instant::now();
    // Local and remote runs share one code path: a multiplexed Session
    // that submits the whole round in one batch, watches every job, and
    // waits by consuming the event stream — no sleep-polling in either
    // mode, and remote --progress renders the same live events local
    // runs see.
    let mut session = if let Some(addr) = f.get("--addr") {
        for local_only in [
            "--workers",
            "--cache-shards",
            "--cache-cap",
            "--cache-dir",
            "--no-persist",
            "--retain-jobs",
            "--retain-secs",
            "--time-limit-secs",
            "--max-inflight",
        ] {
            if f.has(local_only) {
                eprintln!(
                    "note: {local_only} configures the in-process queue and is \
                     ignored with --addr (the server's settings apply)"
                );
            }
        }
        Session::connect(addr)
            .map_err(|e| CliError::internal(format!("connecting to {addr}: {e}")))?
    } else {
        Session::local(Arc::new(JobQueue::new(queue_options_from_flags(&f)?)))
    };
    // Without --progress only state frames are needed (they drive the
    // waiting); skip generating/shipping solver progress traffic.
    session.stream_progress(progress);

    let client_err = |e: gmm_service::ClientError| CliError::internal(e.to_string());
    let mut rounds: Vec<Vec<BatchRow>> = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let specs: Vec<SubmitSpec> = instances
            .iter()
            .map(|inst| {
                let mut spec =
                    SubmitSpec::new(inst.design.clone(), inst.board.clone(), config.clone());
                if let Some(d) = job_deadline {
                    spec = spec.deadline_ms(d.as_millis() as u64);
                }
                spec
            })
            .collect();
        let receipts = session.submit_batch(specs).map_err(client_err)?;
        session.watch_all().map_err(client_err)?;
        if progress {
            let names: std::collections::HashMap<u64, String> = receipts
                .iter()
                .zip(&instances)
                .map(|(r, inst)| (r.job, inst.name.clone()))
                .collect();
            session
                .for_each_event(round_timeout, |ev| render_batch_event(ev, &names, t0))
                .map_err(client_err)?;
        }
        let outcomes = session.wait_all(round_timeout).map_err(|e| match e {
            gmm_service::ClientError::Expired { pending } => CliError::internal(format!(
                "batch timed out after {}s with {pending} job(s) unfinished",
                round_timeout.as_secs()
            )),
            other => client_err(other),
        })?;
        let rows = instances
            .iter()
            .zip(outcomes)
            .map(|(inst, out)| BatchRow {
                name: inst.name.clone(),
                state: out.state,
                cached: out.cached,
                objective: out.objective,
                error: out.error,
                termination: out.termination,
                solution_json: out
                    .solution
                    .as_ref()
                    .map(|s| serde_json::to_string(s).expect("canonical render")),
            })
            .collect();
        rounds.push(rows);
    }

    // In-process runs own the queue, so its failure counter is
    // authoritative even when aggressive --retain-jobs prunes a Failed
    // record to `expired` before this table reads it. (Against --addr the
    // daemon's counter covers every client, so rows are used instead.)
    let stats = session.stats().ok();
    let local = session.queue().cloned();
    let queue_failed = local.as_ref().and(stats).map(|s| s.jobs_failed);
    let stats_line = stats
        .map(|s| render_stats_line(if local.is_some() { "queue" } else { "server" }, &s))
        .unwrap_or_default();
    if let Some(queue) = local {
        queue.shutdown();
    }
    let elapsed = t0.elapsed();

    // Per-instance table (final round's states; cache column counts rounds).
    println!(
        "{:<28} {:>8} {:>18} {:>7} {:>14}  note",
        "instance", "state", "termination", "cached", "objective"
    );
    let last = rounds.last().expect("repeat >= 1");
    for (i, row) in last.iter().enumerate() {
        let cached_rounds = rounds.iter().filter(|r| r[i].cached).count();
        println!(
            "{:<28} {:>8} {:>18} {:>4}/{:<2} {:>14}  {}",
            row.name,
            row.state.as_str(),
            row.termination.map(|t| t.as_str()).unwrap_or("-"),
            cached_rounds,
            rounds.len(),
            row.objective
                .map(|o| format!("{o:.1}"))
                .unwrap_or_else(|| "-".into()),
            row.error.as_deref().unwrap_or(""),
        );
    }
    // Per-round termination tallies (the ROADMAP's "Termination in the
    // batch summary table" item).
    for (i, round) in rounds.iter().enumerate() {
        let count = |t: Termination| round.iter().filter(|r| r.termination == Some(t)).count();
        println!(
            "round {:>2}: {} optimal, {} feasible, {} deadline, {} cancelled, {} infeasible",
            i + 1,
            count(Termination::Optimal),
            count(Termination::Feasible),
            count(Termination::DeadlineExceeded),
            count(Termination::Cancelled),
            count(Termination::Infeasible),
        );
    }

    let total_jobs = instances.len() * repeat;
    let row_failed: usize = rounds
        .iter()
        .flat_map(|r| r.iter())
        .filter(|r| r.state == JobState::Failed)
        .count();
    // A pruned record hides its outcome: flag it rather than counting the
    // job as silently fine (or silently failed).
    let expired: usize = rounds
        .iter()
        .flat_map(|r| r.iter())
        .filter(|r| r.state == JobState::Expired)
        .count();
    if expired > 0 {
        eprintln!(
            "note: {expired} job record(s) expired before their outcome was read; \
             raise --retain-jobs (or --retain-secs) to keep batch-sized runs inspectable"
        );
    }
    let failed = row_failed.max(queue_failed.unwrap_or(0) as usize);
    // `reconnects` counts sessions the client re-established mid-batch
    // (server or router restarts survived via `attach`); the soak greps
    // for it staying visible here.
    println!(
        "\n{} instances x {} rounds = {} jobs in {:.2}s ({:.1} jobs/s, {} reconnects)",
        instances.len(),
        repeat,
        total_jobs,
        elapsed.as_secs_f64(),
        total_jobs as f64 / elapsed.as_secs_f64().max(1e-9),
        session.reconnects(),
    );
    if !stats_line.is_empty() {
        println!("{stats_line}");
    }

    if verify {
        verify_rounds(&instances, &rounds)?;
        println!("verify: all repeat rounds byte-identical and replay-identical");
    }

    if failed > 0 {
        return Err(CliError::internal(format!(
            "{failed} of {total_jobs} jobs failed (see table)"
        )));
    }
    // Deadline'd/cancelled jobs are structured outcomes, not failures —
    // but scripts still deserve a dedicated signal (exit 5).
    let interrupted: usize = rounds
        .iter()
        .flat_map(|r| r.iter())
        .filter(|r| matches!(r.state, JobState::Deadline | JobState::Cancelled))
        .count();
    if interrupted > 0 {
        return Err(CliError::Interrupted(format!(
            "{interrupted} of {total_jobs} jobs stopped by deadline/cancellation (see table)"
        )));
    }
    Ok(())
}

/// The batch summary's stats line: `prefix:` then every stats field as
/// ` name=value`, in wire order.
fn render_stats_line(prefix: &str, s: &ServiceStats) -> String {
    let mut line = format!("{prefix}:");
    for (name, value) in s.fields() {
        line.push_str(&format!(" {name}={value}"));
    }
    line
}

/// Schema tag of the `gmm arch-sweep` artifact.
const SWEEP_SCHEMA: &str = "gmm-arch-sweep/v1";

/// One scored architecture in the `gmm-arch-sweep/v1` artifact.
#[derive(Clone, serde::Serialize)]
struct SweepRow {
    name: String,
    capacity_bits: u64,
    instances: u32,
    width: u32,
    total_capacity_bits: u64,
    /// `null` when no suite design solved on this architecture.
    geomean_cost: Option<f64>,
    solved: u64,
    suite: u64,
}

/// The `gmm-arch-sweep/v1` artifact: every scored architecture plus the
/// Pareto front over (geomean cost, total capacity).
#[derive(serde::Serialize)]
struct SweepArtifact {
    schema: String,
    solve_mode: String,
    seed: u64,
    suite: u64,
    architectures: Vec<SweepRow>,
    pareto: Vec<SweepRow>,
}

/// Parse a `--key a,b,c` comma-separated list flag.
fn parse_list<T: std::str::FromStr>(f: &Flags, key: &str) -> Result<Option<Vec<T>>, CliError>
where
    T::Err: std::fmt::Display,
{
    let Some(spec) = f.get(key) else {
        return Ok(None);
    };
    let items: Vec<T> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|e| CliError::usage(format!("{key}: `{s}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(CliError::usage(format!("{key}: empty list")));
    }
    Ok(Some(items))
}

/// `gmm arch-sweep` — map a design suite onto a grid of candidate memory
/// architectures through the batch queue, score each by geometric-mean
/// mapped cost, and write the Pareto-front artifact.
fn cmd_arch_sweep(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let mut spec = gmm_workloads::SweepSpec::default();
    if let Some(v) = parse_list::<u64>(&f, "--capacities")? {
        spec.capacities = v;
    }
    if let Some(v) = parse_list::<u32>(&f, "--counts")? {
        spec.bank_counts = v;
    }
    if let Some(v) = parse_list::<u32>(&f, "--widths")? {
        spec.widths = v;
    }
    if let Some(n) = f.parse::<usize>("--suite")? {
        if n == 0 {
            return Err(CliError::usage("--suite must be at least 1"));
        }
        spec.suite = n;
    }
    if let Some(s) = f.parse::<u64>("--seed")? {
        spec.seed = s;
    }
    // Portfolio unless overridden: the greedy seed makes a full grid
    // cheap, and the ILP still proves the same optima.
    let mode = match f.get("--solve-mode") {
        None => SolveMode::Portfolio,
        Some(_) => solve_mode_from_flags(&f)?,
    };
    let out = f.get("--out").unwrap_or("SWEEP_arch.json");

    let suite = gmm_workloads::suite_designs(&spec);
    let grid = gmm_workloads::arch_grid(&spec, &suite);
    println!(
        "arch-sweep: {} architectures x {} designs = {} jobs (mode {mode})",
        grid.len(),
        suite.len(),
        grid.len() * suite.len(),
    );

    let config = JobConfig {
        solve_mode: mode,
        ..JobConfig::default()
    };
    let mut queue_opts = QueueOptions::default();
    queue_opts.workers = f.parse("--workers")?.unwrap_or(0);
    let mut session = Session::local(Arc::new(JobQueue::new(queue_opts)));
    session.stream_progress(false);
    let client_err = |e: gmm_service::ClientError| CliError::internal(e.to_string());

    // One flat batch over the whole grid x suite product: the shared job
    // list keeps every worker busy across architecture boundaries, and
    // `wait_all` hands outcomes back in submission order.
    let t0 = Instant::now();
    let specs: Vec<SubmitSpec> = grid
        .iter()
        .flat_map(|point| {
            suite.iter().map(|(_, design)| {
                SubmitSpec::new(design.clone(), point.board.clone(), config.clone())
            })
        })
        .collect();
    session.submit_batch(specs).map_err(client_err)?;
    session.watch_all().map_err(client_err)?;
    let outcomes = session
        .wait_all(Duration::from_secs(600))
        .map_err(client_err)?;

    let scores: Vec<gmm_workloads::ArchScore> = grid
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let chunk = &outcomes[i * suite.len()..(i + 1) * suite.len()];
            let costs: Vec<f64> = chunk
                .iter()
                .filter(|o| o.state == JobState::Done)
                .filter_map(|o| o.objective)
                .collect();
            gmm_workloads::ArchScore {
                name: point.name.clone(),
                total_capacity_bits: point.board.total_capacity_bits(),
                geomean_cost: gmm_workloads::geometric_mean(&costs),
                solved: costs.len(),
                suite: suite.len(),
            }
        })
        .collect();
    let front = gmm_workloads::pareto_front(&scores);

    println!(
        "{:<20} {:>9} {:>6} {:>6} {:>12} {:>8} {:>12}  pareto",
        "architecture", "cap/inst", "banks", "width", "total bits", "solved", "geomean"
    );
    for (i, (point, score)) in grid.iter().zip(&scores).enumerate() {
        println!(
            "{:<20} {:>9} {:>6} {:>6} {:>12} {:>5}/{:<2} {:>12}  {}",
            score.name,
            point.capacity_bits,
            point.instances,
            point.width,
            score.total_capacity_bits,
            score.solved,
            score.suite,
            if score.geomean_cost.is_nan() {
                "-".to_string()
            } else {
                format!("{:.2}", score.geomean_cost)
            },
            if front.contains(&i) { "*" } else { "" },
        );
    }
    if let Some(queue) = session.queue().cloned() {
        let s = queue.stats();
        println!(
            "swept {} jobs in {:.2}s; heuristic_solved={} heuristic_seeded={} \
             heuristic_infeasible={}",
            outcomes.len(),
            t0.elapsed().as_secs_f64(),
            s.heuristic_solved,
            s.heuristic_seeded,
            s.heuristic_infeasible,
        );
        queue.shutdown();
    }

    let row = |i: usize| {
        let (point, score) = (&grid[i], &scores[i]);
        SweepRow {
            name: score.name.clone(),
            capacity_bits: point.capacity_bits,
            instances: point.instances,
            width: point.width,
            total_capacity_bits: score.total_capacity_bits,
            // NaN (nothing solved) would leak a bare `NaN` token into the
            // artifact; `null` keeps it strict JSON.
            geomean_cost: (!score.geomean_cost.is_nan()).then_some(score.geomean_cost),
            solved: score.solved as u64,
            suite: score.suite as u64,
        }
    };
    let artifact = SweepArtifact {
        schema: SWEEP_SCHEMA.to_string(),
        solve_mode: mode.as_str().to_string(),
        seed: spec.seed,
        suite: suite.len() as u64,
        architectures: (0..grid.len()).map(row).collect(),
        pareto: front.iter().map(|&i| row(i)).collect(),
    };
    write_json(out, &artifact)?;
    println!(
        "wrote {out} ({} architectures, {} on the Pareto front)",
        grid.len(),
        front.len()
    );

    if scores.iter().all(|s| s.solved == 0) {
        return Err(CliError::internal(
            "no architecture mapped any suite design — the sweep scored nothing",
        ));
    }
    Ok(())
}

/// `gmm bench` — the simplex pricing ablation behind `BENCH_simplex.json`.
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    use gmm_bench::{run_trajectory_with, TrajectoryConfig};
    use gmm_ilp::PricingRule;

    let f = Flags::new(args);
    let mut cfg = if f.has("--quick") {
        TrajectoryConfig::quick()
    } else {
        TrajectoryConfig::full()
    };
    if let Some(n) = f.parse::<usize>("--stream")? {
        cfg.stream_count = n.max(1);
    }
    if let Some(seed) = f.parse::<u64>("--seed")? {
        cfg.stream_seed = seed;
    }
    if let Some(spec) = f.get("--points") {
        cfg.table3_points = parse_points(spec)?;
    }
    if let Some(cap) = f.parse_secs("--cap-secs")? {
        cfg.point_cap = cap;
    }
    let out = f.get("--out").unwrap_or("BENCH_simplex.json");

    println!(
        "bench: {} stream instances + table3 points {:?} per rule ({} rules, cap {:?}/point)",
        cfg.stream_count,
        cfg.table3_points,
        cfg.rules.len(),
        cfg.point_cap,
    );
    let observer: Option<Arc<dyn gmm_ilp::control::ProgressObserver>> = f
        .has("--progress")
        .then(|| Arc::new(StderrProgress::new()) as Arc<dyn gmm_ilp::control::ProgressObserver>);
    let report = run_trajectory_with(&cfg, observer);

    println!(
        "{:>8} {:>10} {:>12} {:>11} {:>10} {:>10} {:>9}",
        "rule", "inst/s", "pivots/s", "nodes/s", "pivots", "refactors", "eta-peak"
    );
    for r in &report.rules {
        println!(
            "{:>8} {:>10.1} {:>12.0} {:>11.0} {:>10} {:>10} {:>9}",
            r.rule,
            r.stream.instances_per_sec,
            r.stream.pivots_per_sec,
            r.stream.nodes_per_sec,
            r.stream.pivots,
            r.stream.refactorizations,
            r.stream.eta_nnz_peak,
        );
    }

    // Write the artifact before any guard verdict: a failing run's
    // numbers are exactly the ones worth inspecting.
    std::fs::write(out, report.to_json() + "\n")
        .map_err(|e| CliError::internal(format!("writing {out}: {e}")))?;
    println!("wrote {out}");

    // CI guard: the devex update is designed to be cheap (one extra flop
    // per scanned column plus an O(1) pivot update); if its pivot loop
    // throughput falls well below dantzig's in the same run, the rule has
    // regressed from an approximation into a tax. 0.8x absorbs run noise.
    if let (Some(d), Some(x)) = (
        report.rule(PricingRule::Dantzig),
        report.rule(PricingRule::Devex),
    ) {
        let floor = 0.8 * d.stream.pivots_per_sec;
        if x.stream.pivots_per_sec < floor {
            return Err(CliError::internal(format!(
                "devex pivot throughput regressed: {:.0} pivots/s < 0.8 x dantzig {:.0} pivots/s",
                x.stream.pivots_per_sec, d.stream.pivots_per_sec,
            )));
        }
    }
    Ok(())
}

/// Check that every repeat round returned byte-identical payloads and that
/// the cached mapping replays identically in the simulator.
///
/// Only `done` rows participate: a deadline'd/cancelled job's best-effort
/// payload is a function of wall-clock timing, so byte-identity across
/// rounds is not a promise the service makes for it.
fn verify_rounds(instances: &[BatchInstance], rounds: &[Vec<BatchRow>]) -> Result<(), CliError> {
    let cold = &rounds[0];
    for (i, inst) in instances.iter().enumerate() {
        if cold[i].state != JobState::Done {
            continue; // failed/deadline'd/cancelled cold solves are the caller's report
        }
        let Some(cold_json) = cold[i].solution_json.as_deref() else {
            continue;
        };
        for round in &rounds[1..] {
            // A done cold solve is cached; its resubmission must hit the
            // cache and be done too — anything else is a real anomaly.
            let Some(warm_json) = round[i].solution_json.as_deref() else {
                return Err(CliError::internal(format!(
                    "{}: cold solve succeeded but a repeat round {}",
                    inst.name,
                    if round[i].state == JobState::Done {
                        "returned no payload".to_string()
                    } else {
                        format!("ended {}", round[i].state.as_str())
                    }
                )));
            };
            let cold_detailed = extract_detailed(cold_json, &inst.name)?;
            let warm_detailed = extract_detailed(warm_json, &inst.name)?;
            gmm_sim::validate_cache_hit(&inst.design, &inst.board, &cold_detailed, &warm_detailed)
                .map_err(|e| CliError::internal(format!("{}: {e}", inst.name)))?;
            if cold_json != warm_json {
                return Err(CliError::internal(format!(
                    "{}: full payloads differ outside the detailed mapping",
                    inst.name
                )));
            }
        }
    }
    Ok(())
}

/// Pull the canonical `detailed` subtree back out of a solution payload.
fn extract_detailed(solution_json: &str, name: &str) -> Result<String, CliError> {
    let value: serde::Value = serde_json::from_str(solution_json)
        .map_err(|e| CliError::internal(format!("{name}: solution does not parse: {e}")))?;
    let detailed = value
        .get("detailed")
        .ok_or_else(|| CliError::internal(format!("{name}: solution has no `detailed` field")))?;
    serde_json::to_string(detailed).map_err(|e| CliError::internal(e.to_string()))
}

/// `gmm check` — run the concurrency model checker's clean models and
/// fail on any invariant violation or an exploration below the floor.
fn cmd_check(args: &[String]) -> Result<(), CliError> {
    if !cfg!(debug_assertions) {
        return Err(CliError::usage(
            "`gmm check` needs a debug build: the schedule points and lock \
             instrumentation are compiled out of release binaries (run \
             `cargo run -- check`)",
        ));
    }
    let f = Flags::new(args);
    let mut opts = ExploreOpts::default();
    if let Some(v) = f.parse("--preemption-bound")? {
        opts.preemption_bound = v;
    }
    if let Some(v) = f.parse("--min-schedules")? {
        opts.min_schedules = v;
    }
    if let Some(v) = f.parse("--max-schedules")? {
        opts.max_schedules = v;
    }
    if let Some(v) = f.parse("--seed")? {
        opts.seed = v;
    }
    // The floor is a promise; never let the cap silently undercut it.
    opts.max_schedules = opts.max_schedules.max(opts.min_schedules);
    let only = f.get("--model");

    let models = gmm_check::models::clean_models();
    if let Some(name) = only {
        if !models.iter().any(|m| m.name == name) {
            return Err(CliError::usage(format!(
                "unknown model `{name}` (have: {})",
                models.iter().map(|m| m.name).collect::<Vec<_>>().join(", ")
            )));
        }
    }
    let mut failures = 0usize;
    for model in models {
        if only.is_some_and(|o| o != model.name) {
            continue;
        }
        let t0 = Instant::now();
        let report = explore(model.name, &opts, model.build);
        println!(
            "model {:<7} {:>5} schedules explored ({} DFS{}) in {:.2}s — {}",
            model.name,
            report.schedules,
            report.dfs_schedules,
            if report.dfs_complete {
                ", space exhausted"
            } else {
                ""
            },
            t0.elapsed().as_secs_f64(),
            model.covers,
        );
        if let Some(failure) = &report.failure {
            println!("  FAILED {failure}");
            failures += 1;
        } else if report.schedules < opts.min_schedules {
            println!(
                "  FAILED only {} schedules explored (floor {})",
                report.schedules, opts.min_schedules
            );
            failures += 1;
        }
    }
    if failures > 0 {
        return Err(CliError::internal(format!("{failures} model(s) failed")));
    }
    Ok(())
}

/// `gmm lint` — run the workspace invariant scanner; nonzero on any
/// finding not covered by `lint.allow`.
fn cmd_lint(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let root = match f.get("--root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| CliError::internal(format!("current dir: {e}")))?;
            gmm_check::lint::find_repo_root(&cwd).ok_or_else(|| {
                CliError::input(
                    "no workspace root (a Cargo.toml with [workspace]) above the \
                     current directory; pass --root",
                )
            })?
        }
    };
    let report = gmm_check::lint::run(&root)
        .map_err(|e| CliError::input(format!("lint scan under {}: {e}", root.display())))?;
    for finding in &report.findings {
        println!("{finding}");
    }
    println!(
        "lint: {} file(s) scanned, {} finding(s), {} allowed by lint.allow",
        report.files_scanned,
        report.findings.len(),
        report.allowed
    );
    if report.clean() {
        Ok(())
    } else {
        Err(CliError::internal(format!(
            "{} lint finding(s)",
            report.findings.len()
        )))
    }
}

fn cmd_table1() -> Result<(), CliError> {
    println!("Table 1: FPGA on-chip RAMs\n");
    println!(
        "{:<14} {:<10} {:>12} {:>8}  configurations",
        "Family", "RAM", "# banks", "bits"
    );
    let rows = [
        ("Xilinx Virtex", gmm_arch::Family::Virtex, gmm_arch::VIRTEX),
        (
            "Altera Flex10K",
            gmm_arch::Family::Flex10K,
            gmm_arch::FLEX10K,
        ),
        (
            "Altera Apex E",
            gmm_arch::Family::Apex20K,
            gmm_arch::APEX20K,
        ),
    ];
    for (label, family, devices) in rows {
        let min = devices.iter().map(|d| d.ram_blocks).min().unwrap();
        let max = devices.iter().map(|d| d.ram_blocks).max().unwrap();
        let configs: Vec<String> = family
            .configurations()
            .iter()
            .map(|c| c.to_string())
            .collect();
        println!(
            "{:<14} {:<10} {:>5} -> {:<4} {:>8}  {}",
            label,
            family.ram_name(),
            min,
            max,
            family.block_bits(),
            configs.join(", ")
        );
    }
    Ok(())
}

fn cmd_table2(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let ports: u32 = f.parse("--ports")?.unwrap_or(3);
    let depth: u32 = f.parse("--depth")?.unwrap_or(16);
    println!("Table 2: allocation options of a {ports}-port {depth}-word bank\n");
    println!("{:<20} accepted-by-Figure-3", "words per port");
    for opt in enumerate_port_allocations(ports, depth) {
        let words: Vec<String> = opt.words.iter().map(u32::to_string).collect();
        println!(
            "{:<20} {}",
            words.join(", "),
            if opt.accepted { "yes" } else { "NO (rejected)" }
        );
    }
    Ok(())
}

fn cmd_fig2() -> Result<(), CliError> {
    use gmm_arch::{BankType, Placement, RamConfig};
    let bank = BankType::new(
        "fig2",
        12,
        3,
        vec![
            RamConfig::new(128, 1),
            RamConfig::new(64, 2),
            RamConfig::new(32, 4),
            RamConfig::new(16, 8),
        ],
        1,
        1,
        Placement::OnChip,
    )
    .map_err(|e| CliError::internal(e.to_string()))?;
    let e = gmm_core::preprocess::preprocess_pair(&bank, 55, 17);
    println!("Figure 2: a 55x17 data structure on a 3-port bank");
    println!("configurations: 128x1, 64x2, 32x4, 16x8\n");
    println!("alpha = {}   beta = {}", e.split.alpha, e.split.beta);
    println!(
        "full columns = {}, remainder width = {}",
        e.split.full_cols, e.split.rem_width
    );
    println!(
        "full rows = {}, remainder depth = {}\n",
        e.full_rows, e.rem_depth
    );
    println!("FP  (full instances)        = {:>3} ports", e.fp);
    println!("WP  (width-remainder col)   = {:>3} ports", e.wp);
    println!("DP  (depth-remainder row)   = {:>3} ports", e.dp);
    println!("WDP (corner)                = {:>3} ports", e.wdp);
    println!("CP  = {}", e.cp());
    println!("CW  = {}   CD = {}", e.cw, e.cd);
    Ok(())
}

fn cmd_table3(args: &[String]) -> Result<(), CliError> {
    let f = Flags::new(args);
    let cap = f
        .parse_secs("--cap-secs")?
        .unwrap_or(Duration::from_secs(60));
    let points: Vec<usize> = match f.get("--points") {
        Some(spec) => parse_points(spec)?,
        None => (1..=9).collect(),
    };

    println!("Table 3: ILP execution times, complete vs global/detailed");
    println!("(time cap per solve: {cap:?}; '>' marks capped runs)\n");
    println!(
        "{:>5} {:>9} {:>7} {:>7} {:>8} | {:>12} {:>12} {:>8} | {:>10} {:>10}",
        "point",
        "#segs",
        "#banks",
        "#ports",
        "#configs",
        "complete(s)",
        "global(s)",
        "speedup",
        "paper-c(s)",
        "paper-g(s)"
    );

    for idx in points {
        let point = TABLE3[idx - 1];
        let design = table3_design(&point, 0xF00D);
        let board = table3_board(&point);

        let mut backend = SolverBackend::Serial(MipOptions {
            time_limit: Some(cap),
            ..MipOptions::default()
        });
        if let Some(basis) = lp_basis_from_flags(&f)? {
            backend.set_lp_basis(basis);
        }
        if let Some(pricing) = lp_pricing_from_flags(&f)? {
            backend.set_lp_pricing(pricing);
        }
        let mut opts = MapperOptions::new();
        opts.backend = backend;
        let mapper = Mapper::new(opts);

        // Global/detailed (includes all pre-processing, as in the paper).
        let t0 = Instant::now();
        let two_phase = mapper.map(&design, &board);
        let global_time = t0.elapsed();

        // Complete.
        let t1 = Instant::now();
        let complete = mapper.map_complete(&design, &board);
        let complete_time = t1.elapsed();

        let complete_capped = complete_time >= cap;
        let gsecs = global_time.as_secs_f64();
        let csecs = complete_time.as_secs_f64();
        let speedup = csecs / gsecs.max(1e-9);
        let status = match (&two_phase, &complete) {
            (Ok(a), Ok((b, _))) => {
                let w = CostWeights::default();
                let ca = a.cost.weighted(&w);
                let cb = b.cost.weighted(&w);
                if (ca - cb).abs() < 1e-6 || complete_capped {
                    ""
                } else {
                    " COST-MISMATCH"
                }
            }
            (Err(e), _) => {
                // Global/detailed failing is a real problem worth flagging.
                println!("  global/detailed error: {e}");
                " GLOBAL-FAILED"
            }
            (Ok(_), Err(_)) if complete_capped => "", // cap marker suffices
            (Ok(_), Err(_)) => " (complete failed)",
        };
        // A capped complete time is a lower bound, and so is its speedup.
        let bound = if complete_capped { ">" } else { "" };
        println!(
            "{:>5} {:>9} {:>7} {:>7} {:>8} | {:>1}{:>11.2} {:>12.2} {:>8} | {:>10.1} {:>10.1}{}",
            point.index,
            point.segments,
            point.banks,
            point.ports,
            point.configs,
            bound,
            csecs,
            gsecs,
            format!("{bound}{speedup:.1}x"),
            point.paper_complete_secs,
            point.paper_global_secs,
            status,
        );
    }
    println!("\npaper platform: CPLEX on a 248 MHz SUN Ultra-30; shapes, not");
    println!("absolute seconds, are expected to match (see README, \"Paper artifacts\").");
    Ok(())
}

fn parse_points(spec: &str) -> Result<Vec<usize>, CliError> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        if let Some((a, b)) = part.split_once("..") {
            let a: usize = a
                .parse()
                .map_err(|e| CliError::usage(format!("--points: {e}")))?;
            let b: usize = b
                .parse()
                .map_err(|e| CliError::usage(format!("--points: {e}")))?;
            out.extend(a..=b);
        } else {
            out.push(
                part.parse()
                    .map_err(|e| CliError::usage(format!("--points: {e}")))?,
            );
        }
    }
    if out.iter().any(|&p| !(1..=9).contains(&p)) {
        return Err(CliError::usage("--points must be within 1..9"));
    }
    Ok(out)
}
