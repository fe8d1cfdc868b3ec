//! The wire probe: the same single-job frames sent to a key's owning
//! `mapsrv` directly and through a `Router` over two backends, one at a
//! time, so the router hop shows as a paired difference.

use std::net::SocketAddr;
use std::time::Instant;

use gmm_cluster::ShardMap;
use gmm_service::{instance_key, JobConfig, MapServer, Response, SubmitSpec};
use gmm_workloads::StreamInstance;

use crate::inputs::{Reference, Rng};
use crate::layers::result_frame;
use crate::sut::{fill_owners, start_router, start_server, Sut};
use crate::trace::median;

pub struct Probe {
    pub direct_submit_us: f64,
    pub direct_result_us: f64,
    pub routed_submit_us: f64,
    pub routed_result_us: f64,
    /// Median over frames of routed minus direct (submit + result) RTT.
    pub hop_us: f64,
    /// Parse and re-render of a backend `result` frame, as the router does.
    pub rerender_us: f64,
    /// Share of `jobs` owned by the busier backend on this ring.
    pub backend_share_max: f64,
    pub reconnects: u64,
    /// Routed probes that lost an event (see [`crate::sut`]).
    pub stalls: u64,
}

/// Probe `frames` seeded draws from `pool`. `jobs` (pool indices) is the
/// workload's job list, whose keys give the backend share.
#[allow(clippy::too_many_arguments)]
pub fn probe(
    pool: &[StreamInstance],
    refs: &[Reference],
    config: &JobConfig,
    cache_cap: usize,
    jobs: &[usize],
    frames: usize,
    seed: u64,
) -> Result<Probe, String> {
    let servers = vec![start_server(1, cache_cap)?, start_server(1, cache_cap)?];
    let addrs: Vec<SocketAddr> = servers.iter().map(MapServer::local_addr).collect();
    let spec = |i: usize| {
        SubmitSpec::new(
            pool[i].design.clone(),
            pool[i].board.clone(),
            config.clone(),
        )
    };
    fill_owners(&servers, (0..pool.len()).map(spec).collect())?;
    let router = start_router(&servers)?;
    let mut routed = Sut::new(router.local_addr(), Some(router), servers)?;
    let direct = addrs
        .iter()
        .map(|&a| Sut::new(a, None, Vec::new()))
        .collect::<Result<Vec<_>, _>>();
    let measured = direct.and_then(|mut direct| {
        let p = measure(
            pool,
            refs,
            config,
            jobs,
            frames,
            seed,
            &mut routed,
            &mut direct,
            &addrs,
        );
        direct.into_iter().for_each(Sut::stop);
        p
    });
    let reconnects = routed.router_reconnects();
    let stalls = routed.stalls;
    routed.stop();
    let mut p = measured?;
    p.reconnects = reconnects;
    p.stalls = stalls;
    Ok(p)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    pool: &[StreamInstance],
    refs: &[Reference],
    config: &JobConfig,
    jobs: &[usize],
    frames: usize,
    seed: u64,
    routed: &mut Sut,
    direct: &mut [Sut],
    addrs: &[SocketAddr],
) -> Result<Probe, String> {
    let spec = |i: usize| {
        SubmitSpec::new(
            pool[i].design.clone(),
            pool[i].board.clone(),
            config.clone(),
        )
    };
    // The router builds its ring with the default vnode count.
    let names: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    let ring = ShardMap::new(&names, 0);
    let owner_of = |i: usize| {
        let key = instance_key(&pool[i].design, &pool[i].board, config);
        usize::from(ring.owner(key.0) != names[0])
    };

    let mut draws = Rng::new(seed ^ 0x960be);
    let (mut ds, mut dr, mut rs, mut rr, mut hop, mut rerender) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for f in 0..frames {
        let i = draws.below(pool.len());
        let owner = owner_of(i);
        // Alternate which path goes first so neither always runs warm.
        let (d, r) = if f % 2 == 0 {
            let d = direct[owner].single(spec(i))?;
            (d, routed.single(spec(i))?)
        } else {
            let r = routed.single(spec(i))?;
            (direct[owner].single(spec(i))?, r)
        };
        ds.push(d.0);
        dr.push(d.1);
        rs.push(r.0);
        rr.push(r.1);
        hop.push((r.0 + r.1) - (d.0 + d.1));

        let line = result_frame(&refs[i]);
        let t = Instant::now();
        let value: serde_json::Value =
            serde_json::from_str(&line).map_err(|e| format!("frame: {e}"))?;
        let resp: Response = serde_json::from_value(value).map_err(|e| format!("frame: {e}"))?;
        std::hint::black_box(serde_json::to_string(&resp).map_err(|e| format!("frame: {e}"))?);
        rerender.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for s in direct.iter_mut().chain([routed]) {
        s.drain()?;
    }
    let on_second = jobs.iter().filter(|&&i| owner_of(i) == 1).count();
    let busiest = on_second.max(jobs.len() - on_second);
    Ok(Probe {
        direct_submit_us: median(&ds),
        direct_result_us: median(&dr),
        routed_submit_us: median(&rs),
        routed_result_us: median(&rr),
        hop_us: median(&hop),
        rerender_us: median(&rerender),
        backend_share_max: busiest as f64 / jobs.len().max(1) as f64,
        reconnects: 0,
        stalls: 0,
    })
}
