//! Workload definitions and their seeded inputs. Everything here only
//! generates inputs; none of it is timed.

use gmm_api::{MapRequest, SolveMode};
use gmm_core::SolverBackend;
use gmm_ilp::branch::MipOptions;
use gmm_service::{canonical_json, instance_key, JobConfig, JobSolution, LpBasis, LpPricing};
use gmm_workloads::{stream_instances, InstanceStream, StreamInstance, StreamSpec};

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solve,
    ServiceHot,
    ServiceChurn,
    RoutedHot,
}

/// Worker threads of the system under test (all TCP workloads).
pub const SERVER_WORKERS: usize = 2;
/// Jobs per `submit_batch` round; larger than the worker count so the
/// churn workload queues.
pub const BATCH: usize = 8;
/// Distinct small instances behind the hot workloads (fits `HOT_CACHE_CAP`).
pub const HOT_POOL: usize = 64;
pub const HOT_CACHE_CAP: usize = 256;
/// The churn pool is four times the cache capacity: about a quarter of
/// the uniform draws hit.
pub const CHURN_CACHE_CAP: usize = 16;
pub const CHURN_POOL: usize = 4 * CHURN_CACHE_CAP;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Solve,
        Workload::ServiceHot,
        Workload::ServiceChurn,
        Workload::RoutedHot,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solve => "solve",
            Workload::ServiceHot => "service-hot",
            Workload::ServiceChurn => "service-churn",
            Workload::RoutedHot => "routed-hot",
        }
    }

    pub fn mode(self) -> SolveMode {
        match self {
            Workload::ServiceChurn => SolveMode::Portfolio,
            _ => SolveMode::Ilp,
        }
    }

    /// Solution-cache capacity per daemon (the solve workload has no
    /// cache; its replay uses the service default).
    pub fn cache_cap(self) -> usize {
        match self {
            Workload::Solve => 4096,
            Workload::ServiceHot | Workload::RoutedHot => HOT_CACHE_CAP,
            Workload::ServiceChurn => CHURN_CACHE_CAP,
        }
    }

    /// Load-generator connections (the solve workload calls in-process).
    pub fn connections(self) -> usize {
        match self {
            Workload::Solve => 0,
            _ => 1,
        }
    }

    pub fn config(self) -> JobConfig {
        JobConfig {
            solve_mode: self.mode(),
            ..JobConfig::default()
        }
    }

    /// Jobs in the traced run's fixed job list.
    pub fn trace_jobs(self) -> usize {
        match self {
            Workload::Solve => 160,
            Workload::ServiceHot | Workload::RoutedHot => 2048,
            Workload::ServiceChurn => 1024,
        }
    }

    /// Single-job frames the wire probe sends down each path.
    pub fn probe_frames(self) -> usize {
        match self {
            Workload::Solve => 24,
            Workload::ServiceChurn => 64,
            Workload::ServiceHot | Workload::RoutedHot => 192,
        }
    }
}

/// splitmix64 finalizer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small seeded generator for job draws and check sampling.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0 = mix(self.0);
        (self.0 % n as u64) as usize
    }
}

/// The 24–48-segment instance stream of the solve workload.
pub fn solve_stream(seed: u64) -> InstanceStream {
    stream_instances(StreamSpec {
        segments: (24, 48),
        seed: mix(seed ^ 0x501e),
    })
}

/// The small (6–14 segment) pool behind a TCP workload. Instance `i` has
/// `6 + i % 9` segments, so every seed's pool has the same size mix and
/// only the instances' contents depend on the seed.
pub fn pool(w: Workload, seed: u64) -> Vec<StreamInstance> {
    let (n, tag) = match w {
        Workload::ServiceChurn => (CHURN_POOL, 0xc4a2),
        _ => (HOT_POOL, 0x4077),
    };
    (0..n)
        .map(|i| {
            let segments = 6 + i % 9;
            stream_instances(StreamSpec {
                segments: (segments, segments),
                seed: mix(seed ^ tag ^ ((i as u64) << 20)),
            })
            .next()
            .expect("the instance stream is endless")
        })
        .collect()
}

/// Seeded uniform draws of pool indices. The hot and routed workloads
/// share one sequence for a given seed.
pub fn draws(w: Workload, seed: u64) -> Rng {
    let tag = match w {
        Workload::ServiceChurn => 0xd4a3,
        _ => 0xd407,
    };
    Rng::new(seed ^ tag)
}

/// The engine configuration a `mapsrv` worker uses for a default
/// `JobConfig` (LU basis, Dantzig pricing, serial branch-and-bound).
pub fn job_backend() -> SolverBackend {
    let mut mip = MipOptions::default();
    mip.simplex.basis = LpBasis::Lu.into();
    mip.simplex.pricing = LpPricing::Dantzig.into();
    SolverBackend::Serial(mip)
}

pub fn request(inst: &StreamInstance, mode: SolveMode) -> MapRequest {
    MapRequest::new(inst.design.clone(), inst.board.clone())
        .backend(job_backend())
        .solve_mode(mode)
}

/// In-process reference answer for one pool instance: the canonical
/// payload bytes every TCP answer for its key must equal.
pub struct Reference {
    pub key_hex: String,
    pub solution: JobSolution,
    pub payload: String,
    pub objective: f64,
}

pub fn reference(inst: &StreamInstance, w: Workload) -> Result<Reference, String> {
    let report = request(inst, w.mode())
        .execute()
        .map_err(|e| format!("{}: reference solve failed: {e}", inst.name))?;
    if report.termination != gmm_api::Termination::Optimal {
        return Err(format!(
            "{}: reference solve ended {:?}",
            inst.name, report.termination
        ));
    }
    let outcome = report.outcome.ok_or("optimal report without outcome")?;
    let solution = JobSolution {
        global: outcome.global,
        detailed: outcome.detailed,
    };
    Ok(Reference {
        key_hex: instance_key(&inst.design, &inst.board, &w.config()).to_hex(),
        payload: canonical_json(&solution),
        solution,
        objective: report.objective.unwrap_or(0.0),
    })
}
