//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <solve|service-hot|service-churn|routed-hot> \
//!     --seed <n> --seconds <s> --trace <0|1> [--corrupt 1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that measures the per-layer split. Human-readable
//! lines (environment, every metric with its unit) come first; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--corrupt 1` damages the bench's
//! own copy of one reference answer, so the correctness gate must fail.
//! See `benchmark/NOTES.md` for the workloads and metrics.

mod check;
mod inputs;
mod layers;
mod pace;
mod probe;
mod sut;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gmm_service::{JobConfig, SubmitSpec};
use gmm_workloads::StreamInstance;

use check::Gate;
use inputs::{draws, pool, reference, request, solve_stream, Reference, Workload, BATCH};
use sut::Sut;
use trace::{cpu_model, median, peak_rss_mb, percentile, process_cpu, thread_cpu, Tracer};

/// The system under test is set up this many times per run; `setup_s`
/// is the median.
const SETUP_REPEATS: usize = 9;
/// Requests the solve workload constructs during set-up (about 10 ms of
/// work, so that scheduling noise is a small part of it).
const SOLVE_SETUP_JOBS: usize = 1024;
/// Rounds one client connection sends before it hangs up and a new one
/// takes over, as consecutive `gmm batch` runs of 1024 jobs would. The
/// router keeps every job of a connection until it closes.
const CLIENT_ROUNDS: usize = 1024 / BATCH;
/// Threads that generate load: the one client thread.
const LOAD_THREADS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut corrupt) = (1u64, 10.0f64, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            "--corrupt" => corrupt = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: want 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        corrupt,
    })
}

/// A named metric with its unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    metrics: Vec<Metric>,
    gate: Gate,
    /// Counts that must repeat exactly for a seed (traced runs only).
    exact: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gmm-benchmark: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        // An incorrect run still prints its result; `correct` says so.
        Ok(_) => {}
        Err(e) => {
            eprintln!("gmm-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark and prints the result; returns whether it was correct.
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = args.workload.connections();
    println!(
        "env nproc={nproc} cpu=\"{}\" rustc=\"{}\" load_threads={LOAD_THREADS} connections={connections} server_workers={}",
        cpu_model(),
        env!("BENCH_RUSTC_VERSION"),
        inputs::SERVER_WORKERS,
    );
    if LOAD_THREADS.max(connections) > nproc {
        return Err(format!(
            "refusing to run: the load generator uses {} threads/connections but nproc is {nproc}",
            LOAD_THREADS.max(connections)
        ));
    }
    let out = match (args.workload, args.trace) {
        (Workload::Solve, false) => solve_e2e(args)?,
        (Workload::Solve, true) => solve_traced(args)?,
        (_, false) => tcp_e2e(args)?,
        (_, true) => tcp_traced(args)?,
    };

    let mut correct = out.gate.failed == 0 && out.gate.attempted > 0;
    if let Some(e) = out.gate.first_error() {
        println!(
            "check FAILED ({} of {}): {e}",
            out.gate.failed, out.gate.attempted
        );
    }
    if !out.exact.is_empty() {
        if let Err(e) = cross_check(args, &out.exact) {
            println!("nondeterminism: {e}");
            correct = false;
        }
    }
    println!(
        "check attempted={} failed={} replayed={} failed_ratio={} ratio",
        out.gate.attempted,
        out.gate.failed,
        out.gate.replayed,
        out.gate.failed as f64 / out.gate.attempted.max(1) as f64
    );
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.gate.attempted,
        out.gate.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Where traced runs leave their span files and exact counts.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compare this run's exact counts with an earlier run of the same
/// binary, workload and seed, and record them for the next run.
fn cross_check(args: &Args, exact: &[Metric]) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("read own binary: {e}"))?;
    let build = exe.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    });
    let path = out_dir().join(format!(
        "counts-{}-{}-{build:016x}.txt",
        args.workload.name(),
        args.seed
    ));
    let text: String = exact.iter().map(|(n, v, _)| format!("{n} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before != text => Err(format!(
            "exact counts differ from an earlier run of this build ({}):\nbefore:\n{before}now:\n{text}",
            path.display()
        )),
        Ok(_) => Ok(()),
        Err(_) => {
            std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {}: {e}", out_dir().display()))?;
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The timed phase, cut into [`SLICES`] equal slices of wall time. Each
/// slice gets its own throughput and percentiles, scaled to the reference
/// pace by the slice's own probes (see [`pace`]), and the run reports
/// their medians, so a burst of interference from outside the process
/// moves one slice, not the run.
struct Timed {
    start: Instant,
    slice: Duration,
    latencies: Vec<Vec<f64>>,
    busy: Vec<Duration>,
    /// Pace probe times (ms) per slice.
    probes: Vec<Vec<f64>>,
    last_probe: Instant,
}

/// Slices per timed phase.
const SLICES: usize = 10;

impl Timed {
    fn new(seconds: f64) -> Timed {
        Timed {
            start: Instant::now(),
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
            latencies: vec![Vec::new(); SLICES],
            busy: vec![Duration::ZERO; SLICES],
            probes: vec![Vec::new(); SLICES],
            last_probe: Instant::now(),
        }
    }

    fn running(&self) -> bool {
        self.start.elapsed() < self.slice * SLICES as u32
    }

    fn slice_now(&self) -> usize {
        ((self.start.elapsed().as_secs_f64() / self.slice.as_secs_f64()) as usize).min(SLICES - 1)
    }

    /// Book `jobs` jobs that finished together after `elapsed` of
    /// system time, into the slice in which they finished, and probe the
    /// machine's pace if [`pace::EVERY`] has passed since the last probe.
    fn add(&mut self, jobs: usize, elapsed: Duration) {
        let k = self.slice_now();
        self.latencies[k].extend(std::iter::repeat_n(secs(elapsed) * 1e3, jobs));
        self.busy[k] += elapsed;
        if self.last_probe.elapsed() >= pace::EVERY {
            self.probes[k].push(pace::probe());
            self.last_probe = Instant::now();
        }
    }

    fn jobs(&self) -> usize {
        self.latencies.iter().map(Vec::len).sum()
    }

    /// The end-to-end metrics at the reference pace, given the system's
    /// CPU time, the set-up times (s) and each set-up's slowdown.
    fn metrics(&self, cpu: Duration, setup: &[(f64, f64)]) -> Vec<Metric> {
        let full: Vec<usize> = (0..SLICES)
            .filter(|&k| !self.latencies[k].is_empty())
            .collect();
        let all_probes: Vec<f64> = self.probes.concat();
        let run_slowdown = pace::slowdown(&all_probes);
        // A slice without probes (only when one call outlasts a slice)
        // takes the run's slowdown.
        let slowdown = |k: usize| match self.probes[k].as_slice() {
            [] => run_slowdown,
            p => pace::slowdown(p),
        };
        let per =
            |f: &dyn Fn(usize) -> f64| median(&full.iter().map(|&k| f(k)).collect::<Vec<_>>());
        let fewest = full
            .iter()
            .map(|&k| self.latencies[k].len())
            .min()
            .unwrap_or(0);
        println!(
            "samples jobs={} slices={} fewest_per_slice={fewest} beyond_p99_in_that_slice={} probes={}",
            self.jobs(),
            full.len(),
            fewest - (0.99 * fewest as f64).ceil() as usize,
            all_probes.len(),
        );
        let slowdowns: Vec<f64> = full.iter().map(|&k| slowdown(k)).collect();
        println!("pace slowdown per slice={slowdowns:.3?} run={run_slowdown:.3}");
        println!(
            "setup_s reps={:?} slowdowns={:.3?}",
            setup.iter().map(|s| s.0).collect::<Vec<_>>(),
            setup.iter().map(|s| s.1).collect::<Vec<_>>()
        );
        let throughput = |k: usize| self.latencies[k].len() as f64 / secs(self.busy[k]).max(1e-9);
        let cpu_ms = secs(cpu) * 1e3 / self.jobs().max(1) as f64;
        println!(
            "raw throughput_jobs_s={} latency_p50_ms={} latency_p99_ms={} setup_s={} cpu_ms_per_job={cpu_ms}",
            per(&throughput),
            per(&|k| percentile(&self.latencies[k], 0.5)),
            per(&|k| percentile(&self.latencies[k], 0.99)),
            median(&setup.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        vec![
            (
                "throughput_jobs_s",
                per(&|k| throughput(k) * slowdown(k)),
                "jobs/s",
            ),
            (
                "latency_p50_ms",
                per(&|k| percentile(&self.latencies[k], 0.5) / slowdown(k)),
                "ms",
            ),
            (
                "latency_p99_ms",
                per(&|k| percentile(&self.latencies[k], 0.99) / slowdown(k)),
                "ms",
            ),
            (
                "setup_s",
                median(&setup.iter().map(|(t, s)| t / s).collect::<Vec<_>>()),
                "s",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("cpu_ms_per_job", cpu_ms / run_slowdown, "ms"),
        ]
    }
}

// ---------------------------------------------------------------- solve

fn solve_e2e(args: &Args) -> Result<Outcome, String> {
    let mode = args.workload.mode();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up goes first, so peak memory holds one.
        drop(built.take());
        let slowdown = pace::slowdown_now();
        let t = Instant::now();
        let mut stream = solve_stream(args.seed);
        let requests: Vec<_> = stream
            .by_ref()
            .take(SOLVE_SETUP_JOBS)
            .map(|inst| (request(&inst, mode), inst))
            .collect();
        setup.push((secs(t.elapsed()), slowdown));
        built = Some((stream, requests));
    }
    let (mut stream, queued) = built.expect("at least one set-up");
    let mut queued = queued.into_iter();
    let mut gate = Gate::new(args.seed);
    let mut cpu = Duration::ZERO;
    let mut timed = Timed::new(args.seconds);
    while timed.running() {
        let (req, inst) = queued.next().unwrap_or_else(|| {
            let inst = stream.next().expect("the instance stream is endless");
            (request(&inst, mode), inst)
        });
        let c0 = thread_cpu();
        let t0 = Instant::now();
        let report = req.execute();
        let dt = t0.elapsed();
        cpu += thread_cpu() - c0;
        timed.add(1, dt);
        let tamper = args.corrupt && gate.attempted == 0;
        gate.solve(&inst, report, tamper);
    }
    Ok(Outcome {
        metrics: timed.metrics(cpu, &setup),
        gate,
        exact: Vec::new(),
    })
}

/// The traced solve run: a fixed list of stream instances, first
/// executed untraced, then traced with every stage timed on its own.
fn solve_traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mode = w.mode();
    let insts: Vec<StreamInstance> = solve_stream(args.seed).take(w.trace_jobs()).collect();
    let mut gate = Gate::new(args.seed);

    let untraced = Instant::now();
    for inst in &insts {
        std::hint::black_box(request(inst, mode).execute().is_ok());
    }
    let untraced = untraced.elapsed();

    let mut tr = Tracer::new();
    let mut samples = Vec::with_capacity(insts.len());
    let mut refs = Vec::with_capacity(insts.len());
    let mut traced = Duration::ZERO;
    for (j, inst) in insts.iter().enumerate() {
        let t0 = Instant::now();
        let r = tr.time("api.execute", 0, j as u64, || request(inst, mode).execute());
        traced += t0.elapsed();
        gate.solve(inst, r, false);
        samples.push(layers::stage_pass(inst, mode, &mut tr, j as u64)?);
        refs.push(reference(inst, w)?);
    }

    let all: Vec<usize> = (0..insts.len()).collect();
    let svc = layers::service_pass(&insts, &refs, &w.config(), w.cache_cap(), &[], &all);
    let hot = pool(Workload::ServiceHot, args.seed);
    let hot_refs = hot
        .iter()
        .map(|i| reference(i, Workload::ServiceHot))
        .collect::<Result<Vec<_>, _>>()?;
    let hot_jobs: Vec<usize> = (0..hot.len()).collect();
    let probe = probe::probe(
        &hot,
        &hot_refs,
        &Workload::ServiceHot.config(),
        Workload::ServiceHot.cache_cap(),
        &hot_jobs,
        w.probe_frames(),
        args.seed,
    )?;

    let stages: f64 = samples.iter().map(|s| s.stages_us(mode)).sum();
    let executed = tr.total_us("api.execute");
    let split = Split {
        unaccounted_pct: 100.0 * (executed - stages) / executed.max(1e-9),
        trace_overhead_pct: 100.0 * (secs(traced) / secs(untraced).max(1e-9) - 1.0),
        queue_wait_us: 0.0,
        run_us: 0.0,
    };
    finish_traced(args, &tr, gate, &samples, &svc, &probe, &split)
}

// ------------------------------------------------------------------ TCP

fn references(
    w: Workload,
    pool: &[StreamInstance],
    corrupt: bool,
) -> Result<Vec<Reference>, String> {
    let mut refs = pool
        .iter()
        .map(|inst| reference(inst, w))
        .collect::<Result<Vec<_>, _>>()?;
    if corrupt {
        check::corrupt(&mut refs[0].payload);
    }
    Ok(refs)
}

fn specs(pool: &[StreamInstance], config: &JobConfig, idx: &[usize]) -> Vec<SubmitSpec> {
    idx.iter()
        .map(|&i| {
            SubmitSpec::new(
                pool[i].design.clone(),
                pool[i].board.clone(),
                config.clone(),
            )
        })
        .collect()
}

/// Set the system under test up [`SETUP_REPEATS`] times; keep the last.
/// Returns each set-up's time (s) with the slowdown measured before it.
fn set_up(w: Workload, pool: &[StreamInstance]) -> Result<(Sut, Vec<(f64, f64)>), String> {
    let mut times = Vec::new();
    loop {
        let slowdown = pace::slowdown_now();
        let t = Instant::now();
        let sut = Sut::start(w, pool)?;
        times.push((secs(t.elapsed()), slowdown));
        if times.len() == SETUP_REPEATS {
            return Ok((sut, times));
        }
        sut.stop();
    }
}

fn tcp_e2e(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let pool = pool(w, args.seed);
    let refs = references(w, &pool, args.corrupt)?;
    let config = w.config();
    let (mut sut, setup) = set_up(w, &pool)?;

    let mut gate = Gate::new(args.seed);
    let mut rng = draws(w, args.seed);
    let mut timed = Timed::new(args.seconds);
    let (cpu0, main0, mut main_in_rounds) = (process_cpu(), thread_cpu(), Duration::ZERO);
    let mut result = Ok(());
    for n in 0.. {
        if !timed.running() {
            break;
        }
        if n > 0 && n % CLIENT_ROUNDS == 0 {
            if let Err(e) = sut.reconnect() {
                result = Err(e);
                break;
            }
        }
        let idx: Vec<usize> = (0..BATCH).map(|_| rng.below(pool.len())).collect();
        let batch = specs(&pool, &config, &idx);
        let m0 = thread_cpu();
        let r = sut.round(batch);
        main_in_rounds += thread_cpu() - m0;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        timed.add(idx.len(), r.elapsed);
        for (out, &i) in r.outcomes.iter().zip(&idx) {
            gate.remote(&pool[i], &refs[i], out);
        }
    }
    // Client-side checking is the bench's own work, not the system's.
    let bench_cpu = (thread_cpu() - main0).saturating_sub(main_in_rounds);
    let cpu = (process_cpu() - cpu0).saturating_sub(bench_cpu);
    println!(
        "stalls {} (routed rounds recovered after a lost event)",
        sut.stalls
    );
    sut.stop();
    result?;
    Ok(Outcome {
        metrics: timed.metrics(cpu, &setup),
        gate,
        exact: Vec::new(),
    })
}

/// The traced TCP run: the workload's fixed job list, once untraced and
/// once traced on a freshly set-up system, then the in-process layer
/// passes and the wire probe.
fn tcp_traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let pool = pool(w, args.seed);
    let refs = references(w, &pool, args.corrupt)?;
    let config = w.config();
    let mut rng = draws(w, args.seed);
    let jobs: Vec<usize> = (0..w.trace_jobs()).map(|_| rng.below(pool.len())).collect();
    let mut gate = Gate::new(args.seed);

    let mut sut = Sut::start(w, &pool)?;
    let mut untraced = Duration::ZERO;
    for idx in jobs.chunks(BATCH) {
        let r = sut.round(specs(&pool, &config, idx))?;
        untraced += r.elapsed;
        for (out, &i) in r.outcomes.iter().zip(idx) {
            gate.remote(&pool[i], &refs[i], out);
        }
    }
    sut.stop();

    let mut sut = Sut::start(w, &pool)?;
    let mut tr = Tracer::new();
    let mut traced = Duration::ZERO;
    for (n, idx) in jobs.chunks(BATCH).enumerate() {
        let r = sut.traced_round(specs(&pool, &config, idx), &mut tr, (n * BATCH) as u64)?;
        traced += r.elapsed;
        for (out, &i) in r.outcomes.iter().zip(idx) {
            gate.remote(&pool[i], &refs[i], out);
        }
    }
    let stats = sut
        .session()
        .stats()
        .map_err(|e| format!("stats verb: {e}"))?;
    println!(
        "stats-verb cache_hits={} cache_misses={} cache_evictions={} router_reconnects={} stalls={}",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        sut.router_reconnects(),
        sut.stalls
    );
    sut.stop();

    let samples = pool
        .iter()
        .enumerate()
        .map(|(j, inst)| layers::stage_pass(inst, w.mode(), &mut Tracer::new(), j as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let prefill: Vec<usize> = (0..pool.len()).collect();
    let svc = layers::service_pass(&pool, &refs, &config, w.cache_cap(), &prefill, &jobs);
    let probe = probe::probe(
        &pool,
        &refs,
        &config,
        w.cache_cap(),
        &jobs,
        w.probe_frames(),
        args.seed,
    )?;
    println!("probe-stalls {}", probe.stalls);

    // Attributed per round: the union of the jobs' queue-wait and run
    // spans, plus each job's client frame render and parse and server
    // keying and cache read, at their in-process medians.
    let (event_gaps, events) = tr.self_time("session.events");
    let per_job = svc.frame_render_us + svc.frame_parse_us + svc.instance_key_us + svc.cache_get_us;
    let rounds = tr.total_us("round");
    let attributed = (events - event_gaps) + per_job * jobs.len() as f64;
    let split = Split {
        unaccounted_pct: 100.0 * (rounds - attributed) / rounds.max(1e-9),
        trace_overhead_pct: 100.0 * (secs(traced) / secs(untraced).max(1e-9) - 1.0),
        queue_wait_us: tr.median_us("service.queue_wait"),
        run_us: tr.median_us("service.run"),
    };
    finish_traced(args, &tr, gate, &samples, &svc, &probe, &split)
}

struct Split {
    unaccounted_pct: f64,
    trace_overhead_pct: f64,
    queue_wait_us: f64,
    run_us: f64,
}

fn finish_traced(
    args: &Args,
    tr: &Tracer,
    gate: Gate,
    samples: &[layers::StageSample],
    svc: &layers::ServicePass,
    probe: &probe::Probe,
    split: &Split,
) -> Result<Outcome, String> {
    let spans = out_dir().join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tr.write(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!("spans {}", spans.display());

    let mut metrics = layers::stage_metrics(samples, args.workload.mode());
    metrics.extend([
        ("service.instance_key_us", svc.instance_key_us, "us"),
        ("service.canonical_json_us", svc.canonical_json_us, "us"),
        ("service.frame_render_us", svc.frame_render_us, "us"),
        ("service.frame_parse_us", svc.frame_parse_us, "us"),
        ("service.submit_rtt_us", probe.direct_submit_us, "us"),
        ("service.result_rtt_us", probe.direct_result_us, "us"),
        ("service.payload_bytes", svc.payload_bytes as f64, "bytes"),
        ("service.cache_get_us", svc.cache_get_us, "us"),
        ("service.cache_insert_us", svc.cache_insert_us, "us"),
        ("service.cache_hit_ratio", svc.cache_hit_ratio, "ratio"),
        (
            "service.cache_evictions",
            svc.cache_evictions as f64,
            "count",
        ),
        ("service.queue_wait_us", split.queue_wait_us, "us"),
        ("service.run_us", split.run_us, "us"),
        ("cluster.submit_rtt_us", probe.routed_submit_us, "us"),
        ("cluster.result_rtt_us", probe.routed_result_us, "us"),
        ("cluster.hop_us", probe.hop_us, "us"),
        ("cluster.rerender_us", probe.rerender_us, "us"),
        (
            "cluster.backend_share_max",
            probe.backend_share_max,
            "ratio",
        ),
        ("cluster.reconnects", probe.reconnects as f64, "count"),
        ("unaccounted_pct", split.unaccounted_pct, "%"),
        ("trace_overhead_pct", split.trace_overhead_pct, "%"),
    ]);
    let exact_names = [
        "ilp.pivots",
        "ilp.nodes",
        "ilp.refactorizations",
        "service.payload_bytes",
        "service.cache_hit_ratio",
    ];
    let exact = metrics
        .iter()
        .filter(|m| exact_names.contains(&m.0))
        .copied()
        .collect();
    Ok(Outcome {
        metrics,
        gate,
        exact,
    })
}
