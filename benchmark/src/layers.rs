//! In-process, single-threaded timing of the layers a job passes
//! through: `core`, `ilp`, `heur` and `api` per instance, and the
//! `service` building blocks (keying, canonical JSON, frame serde, the
//! solution cache) per job. Every call here goes through a crate's public
//! API; nothing inside the crates is instrumented.

use std::time::Instant;

use gmm_api::{ApiError, SolveMode};
use gmm_core::cost::assignment_cost;
use gmm_core::global::build_global_model;
use gmm_core::{map_detailed, CostMatrix, CostWeights, GlobalAssignment, PreTable};
use gmm_heur::{greedy_solve_with, HeurOptions};
use gmm_service::{
    canonical_json, instance_key, CacheEntry, JobConfig, JobState, Request, Response,
    SolutionCache, SubmitSpec,
};
use gmm_workloads::StreamInstance;

use crate::inputs::{job_backend, request, Reference};
use crate::trace::{median, Tracer};

/// Shard count of the replayed cache (the service default).
const CACHE_SHARDS: usize = 16;

/// Stage times (µs) and solver counters of one instance.
#[derive(Debug, Default, Clone)]
pub struct StageSample {
    pub preprocess: f64,
    pub cost_matrix: f64,
    pub greedy: f64,
    pub model_build: f64,
    pub ilp_solve: f64,
    pub detailed: f64,
    pub pivots: u64,
    pub nodes: u64,
    pub refactorizations: u64,
    pub warm_started: u64,
    /// `MapRequest::execute` of the same instance, timed on its own.
    pub execute: f64,
    pub retries: u64,
    pub seeded: bool,
}

impl StageSample {
    /// The stages `execute` runs in `mode` (the greedy only outside ILP mode).
    pub fn stages_us(&self, mode: SolveMode) -> f64 {
        let greedy = if mode == SolveMode::Ilp {
            0.0
        } else {
            self.greedy
        };
        self.preprocess
            + self.cost_matrix
            + greedy
            + self.model_build
            + self.ilp_solve
            + self.detailed
    }
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Run one instance stage by stage through the public `core`, `heur`
/// and `ilp` functions the pipeline is built from, then through
/// `MapRequest::execute` for the API overhead. The stages record spans
/// under one `stages` root.
pub fn stage_pass(
    inst: &StreamInstance,
    mode: SolveMode,
    tr: &mut Tracer,
    job: u64,
) -> Result<StageSample, String> {
    let (design, board) = (&inst.design, &inst.board);
    let weights = CostWeights::default();
    let mut s = StageSample::default();
    // One untimed run first, so no stage pays for cold caches.
    let req = request(inst, mode);
    std::hint::black_box(req.execute().is_ok());
    let root = tr.open("stages", 0, job);

    let t = Instant::now();
    let pre = PreTable::build(design, board);
    s.preprocess = us(t);
    tr.record("core.preprocess", t, Instant::now(), root, job);

    let t = Instant::now();
    let matrix = CostMatrix::build(design, board, &pre);
    s.cost_matrix = us(t);
    tr.record("core.cost_matrix", t, Instant::now(), root, job);

    let t = Instant::now();
    let greedy = greedy_solve_with(design, board, &pre, &matrix, &HeurOptions::new(), &[]);
    s.greedy = us(t);
    tr.record("heur.greedy", t, Instant::now(), root, job);

    let t = Instant::now();
    let gm = build_global_model(design, board, &pre, &matrix, &weights, false, &[])
        .map_err(|e| format!("{}: model build: {e}", inst.name))?;
    s.model_build = us(t);
    tr.record("core.model_build", t, Instant::now(), root, job);

    // Portfolio mode installs the greedy assignment as the incumbent seed,
    // exactly as `MapRequest::execute` does.
    let mut backend = job_backend();
    if let (SolveMode::Portfolio, Ok(g)) = (mode, &greedy) {
        let mut x = vec![0.0; gm.model.num_vars()];
        for (d, t) in g.assignment.type_of.iter().enumerate() {
            if let Some(v) = gm.z[d][t.0] {
                x[v.index()] = 1.0;
            }
        }
        backend.mip_options_mut().incumbent_seed = Some(x);
    }
    let t = Instant::now();
    let result = backend
        .solve(&gm.model)
        .map_err(|e| format!("{}: ilp solve: {e}", inst.name))?;
    s.ilp_solve = us(t);
    tr.record("ilp.solve", t, Instant::now(), root, job);
    s.pivots = result.lp_iterations;
    s.nodes = result.nodes_explored;
    s.refactorizations = result.refactorizations;
    s.warm_started = result.warm_started_nodes;

    let x = result.best_solution.as_ref().ok_or_else(|| {
        format!(
            "{}: ilp solve ended {:?} without a point",
            inst.name, result.status
        )
    })?;
    let type_of =
        gm.z.iter()
            .map(|row| {
                row.iter()
                    .position(|v| v.is_some_and(|v| x[v.index()] > 0.5))
                    .map(gmm_arch::BankTypeId)
                    .ok_or_else(|| format!("{}: a segment has no bank type", inst.name))
            })
            .collect::<Result<Vec<_>, String>>()?;
    let global = GlobalAssignment {
        cost: assignment_cost(&matrix, &type_of),
        type_of,
    };
    // A first-attempt detailed failure is not an error here: `execute`
    // then retries, and `core.retries` counts it.
    let t = Instant::now();
    std::hint::black_box(map_detailed(design, board, &pre, &global).is_ok());
    s.detailed = us(t);
    tr.record("core.detailed", t, Instant::now(), root, job);
    tr.close(root);

    // Timed after the stages, so that both see warm caches.
    let t = Instant::now();
    let report = req.execute();
    s.execute = us(t);
    let report = report.map_err(|e: ApiError| format!("{}: execute: {e}", inst.name))?;
    s.retries = report.retries as u64;
    s.seeded = report.incumbent_seeded > 0;
    Ok(s)
}

/// Aggregates of [`stage_pass`] over a set of instances.
pub fn stage_metrics(
    samples: &[StageSample],
    mode: SolveMode,
) -> Vec<(&'static str, f64, &'static str)> {
    let col = |f: fn(&StageSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let total = |f: fn(&StageSample) -> u64| samples.iter().map(f).sum::<u64>();
    let solve_total: f64 = samples.iter().map(|s| s.ilp_solve).sum();
    let (pivots, nodes) = (total(|s| s.pivots), total(|s| s.nodes));
    let overhead: Vec<f64> = samples
        .iter()
        .map(|s| s.execute - s.stages_us(mode))
        .collect();
    let seeded = samples.iter().filter(|s| s.seeded).count();
    vec![
        ("core.preprocess_us", col(|s| s.preprocess), "us"),
        ("core.cost_matrix_us", col(|s| s.cost_matrix), "us"),
        ("core.model_build_us", col(|s| s.model_build), "us"),
        ("core.detailed_us", col(|s| s.detailed), "us"),
        ("core.retries", total(|s| s.retries) as f64, "count"),
        ("ilp.solve_us", col(|s| s.ilp_solve), "us"),
        ("ilp.us_per_pivot", solve_total / pivots.max(1) as f64, "us"),
        ("ilp.us_per_node", solve_total / nodes.max(1) as f64, "us"),
        ("ilp.pivots", pivots as f64, "count"),
        ("ilp.nodes", nodes as f64, "count"),
        (
            "ilp.refactorizations",
            total(|s| s.refactorizations) as f64,
            "count",
        ),
        (
            "ilp.warm_started_ratio",
            total(|s| s.warm_started) as f64 / nodes.max(1) as f64,
            "ratio",
        ),
        ("api.overhead_us", median(&overhead), "us"),
        ("heur.greedy_us", col(|s| s.greedy), "us"),
        (
            "heur.seeded_ratio",
            seeded as f64 / samples.len().max(1) as f64,
            "ratio",
        ),
    ]
}

/// Per-job medians of the service building blocks over a job list, and
/// a single-threaded replay of its key sequence through a
/// `SolutionCache` of the workload's capacity.
pub struct ServicePass {
    pub instance_key_us: f64,
    pub canonical_json_us: f64,
    pub frame_render_us: f64,
    pub frame_parse_us: f64,
    pub payload_bytes: u64,
    pub cache_get_us: f64,
    pub cache_insert_us: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: u64,
}

/// `prefill` names the pool entries the system under test was filled
/// with before timing (in order); `jobs` the pool index of every job.
pub fn service_pass(
    pool: &[StreamInstance],
    refs: &[Reference],
    config: &JobConfig,
    cache_cap: usize,
    prefill: &[usize],
    jobs: &[usize],
) -> ServicePass {
    let mut key_us = Vec::with_capacity(jobs.len());
    let mut canon_us = Vec::with_capacity(jobs.len());
    let mut render_us = Vec::with_capacity(jobs.len());
    let mut parse_us = Vec::with_capacity(jobs.len());
    let mut payload_bytes = 0u64;
    let mut keys = Vec::with_capacity(jobs.len());
    for &i in jobs {
        let (inst, r) = (&pool[i], &refs[i]);
        let t = Instant::now();
        keys.push(std::hint::black_box(instance_key(
            &inst.design,
            &inst.board,
            config,
        )));
        key_us.push(us(t));

        let t = Instant::now();
        std::hint::black_box(canonical_json(&r.solution));
        canon_us.push(us(t));

        let frame = Request::SubmitBatch {
            jobs: vec![SubmitSpec::new(
                inst.design.clone(),
                inst.board.clone(),
                config.clone(),
            )],
            watch: true,
            progress: false,
        };
        let t = Instant::now();
        std::hint::black_box(serde_json::to_string(&frame).expect("in-tree serde_json renders"));
        render_us.push(us(t));

        let line = result_frame(r);
        let t = Instant::now();
        let value: serde_json::Value = serde_json::from_str(&line).expect("rendered frame parses");
        std::hint::black_box(
            serde_json::from_value::<Response>(value).expect("result frame decodes"),
        );
        parse_us.push(us(t));
        payload_bytes += r.payload.len() as u64;
    }

    let cache = SolutionCache::new(CACHE_SHARDS, cache_cap);
    let entry = |i: usize| CacheEntry {
        solution_json: refs[i].payload.clone(),
        objective: refs[i].objective,
    };
    for &i in prefill {
        cache.insert(
            instance_key(&pool[i].design, &pool[i].board, config),
            entry(i),
        );
    }
    let base = cache.stats();
    let mut get_us = Vec::with_capacity(jobs.len());
    let mut insert_us = Vec::new();
    for (k, &i) in keys.iter().zip(jobs) {
        let t = Instant::now();
        let hit = cache.get(*k);
        get_us.push(us(t));
        if hit.is_none() {
            let e = entry(i);
            let t = Instant::now();
            cache.insert(*k, e);
            insert_us.push(us(t));
        }
    }
    let st = cache.stats();
    let (hits, misses) = (st.hits - base.hits, st.misses - base.misses);
    ServicePass {
        instance_key_us: median(&key_us),
        canonical_json_us: median(&canon_us),
        frame_render_us: median(&render_us),
        frame_parse_us: median(&parse_us),
        payload_bytes,
        cache_get_us: median(&get_us),
        cache_insert_us: median(&insert_us),
        cache_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        cache_evictions: st.evictions - base.evictions,
    }
}

/// The `result` response frame a client receives for a finished job.
pub fn result_frame(r: &Reference) -> String {
    let solution: serde_json::Value =
        serde_json::from_str(&r.payload).expect("canonical payload parses");
    serde_json::to_string(&Response::ResultReady {
        job: 1,
        state: JobState::Done,
        cached: true,
        objective: Some(r.objective),
        solution: Some(solution),
        error: None,
    })
    .expect("in-tree serde_json renders")
}
