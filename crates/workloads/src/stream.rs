//! Endless streams of randomized Table-3-style instances for load testing.
//!
//! The [`table3`](crate::table3) module reproduces the paper's nine design
//! points *exactly* — good for benchmarks, too slow and too fixed for
//! hammering a service. This module emits an unbounded, seeded sequence of
//! *scaled-down* instances with the same physical shape (a multi-config
//! dual-port on-chip type plus single-config off-chip SRAM, segments drawn
//! from the same small/medium/large classes, feasibility enforced by
//! construction through port rationing) but sized so a single solve takes
//! milliseconds, not minutes. That is what a throughput experiment wants:
//! many distinct, quickly-solvable, representative instances.

use crate::random::{board_from_specs, TypeSpec};
use gmm_arch::{Board, Placement};
use gmm_design::{Design, DesignBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of an instance stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Inclusive range of segments per instance.
    pub segments: (usize, usize),
    /// Base seed; instance `i` derives its own RNG stream from `seed` and
    /// `i`, so streams are reproducible and instances are independent.
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            segments: (6, 14),
            seed: 0xBEEF,
        }
    }
}

/// One generated instance.
#[derive(Debug, Clone)]
pub struct StreamInstance {
    /// `stream-<seed>-<index>`, stable across runs.
    pub name: String,
    pub design: Design,
    pub board: Board,
}

/// Iterator over the stream. Unbounded: cap it with `.take(n)`.
#[derive(Debug, Clone)]
pub struct InstanceStream {
    spec: StreamSpec,
    index: u64,
}

/// Open the stream described by `spec`.
pub fn stream_instances(spec: StreamSpec) -> InstanceStream {
    InstanceStream { spec, index: 0 }
}

impl Iterator for InstanceStream {
    type Item = StreamInstance;

    fn next(&mut self) -> Option<StreamInstance> {
        let i = self.index;
        self.index += 1;
        Some(generate(&self.spec, i))
    }
}

/// Iterator cycling through a bounded pool of distinct instances.
///
/// Where [`InstanceStream`] emits an endless sequence of *distinct*
/// instances (every submission a cache miss), this cycles through the
/// first `distinct` instances of the same stream over and over — the
/// shape a retention soak wants: with a solution-cache capacity `K <
/// distinct`, every lap re-requests keys the LRU has since evicted, so
/// the eviction and re-solve paths are exercised continuously while the
/// total key universe stays bounded and reproducible.
#[derive(Debug, Clone)]
pub struct CyclingStream {
    spec: StreamSpec,
    distinct: u64,
    index: u64,
}

/// Cycle through the first `distinct` instances of `spec`'s stream
/// (`distinct` is clamped to at least 1). Instance `i` of this iterator
/// is byte-for-byte instance `i % distinct` of [`stream_instances`].
pub fn cycling_instances(spec: StreamSpec, distinct: usize) -> CyclingStream {
    CyclingStream {
        spec,
        distinct: (distinct.max(1)) as u64,
        index: 0,
    }
}

impl Iterator for CyclingStream {
    type Item = StreamInstance;

    fn next(&mut self) -> Option<StreamInstance> {
        let i = self.index;
        self.index += 1;
        Some(generate(&self.spec, i % self.distinct))
    }
}

fn generate(spec: &StreamSpec, index: u64) -> StreamInstance {
    // splitmix64 over (seed, index) keeps per-instance streams independent
    // even for adjacent indices.
    let mut state = spec.seed ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D049BB133111EB);
    let mut rng = StdRng::seed_from_u64(state ^ (state >> 31));

    let (lo, hi) = spec.segments;
    let segments = rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));

    // Physical side, Table-3 shaped: on-chip multi-config dual-port
    // BlockRAM plus single-config off-chip SRAM. Feasibility must hold by
    // construction, not by luck: the worst segment drawn below is
    // 4096x24, which on a 16384x16 SRAM-DP reserves 2 columns x 4096
    // rounded rows x 16 bits = 131Kb (half an instance) and consumes 2 of
    // its 2 ports. One dual-port SRAM per segment therefore covers the
    // whole design even if every draw comes out worst-case; the on-chip
    // type and a single-port SRAM exist to give the optimizer real
    // choices, not to carry the load.
    let spare_ports = rng.gen_range(2u32..=6);
    let onchip_dp = rng.gen_range(2u32..=4);
    let offchip_dp = (segments as u32).max(2);
    let offchip_sp = rng.gen_range(1u32..=2);

    let mut specs = vec![TypeSpec {
        name: "BlockRAM-DP".into(),
        instances: onchip_dp,
        ports: 2,
        capacity_bits: 4096,
        multi_config: true,
        read_latency: 1,
        write_latency: 1,
        placement: Placement::OnChip,
    }];
    specs.push(TypeSpec {
        name: "SRAM-DP".into(),
        instances: offchip_dp,
        ports: 2,
        capacity_bits: 262_144,
        multi_config: false,
        read_latency: 2,
        write_latency: 2,
        placement: Placement::DirectOffChip,
    });
    specs.push(TypeSpec {
        name: "SRAM-SP".into(),
        instances: offchip_sp,
        ports: 1,
        capacity_bits: 524_288,
        multi_config: false,
        read_latency: 3,
        write_latency: 3,
        placement: Placement::IndirectOffChip { hops: 1 },
    });
    let name = format!("stream-{:x}-{index}", spec.seed);
    let board = board_from_specs(&name, &specs);

    // Logical side: the Table 3 class mix with large draws rationed to the
    // spare port budget, exactly like `table3_design`.
    let mut large_left = spare_ports / 2;
    let mut b = DesignBuilder::new(name.clone());
    for s in 0..segments {
        let class = rng.gen_range(0..10);
        let (depth, width) = match class {
            0..=5 => (rng.gen_range(16..=256), rng.gen_range(1..=8)),
            6..=8 => (rng.gen_range(256..=1024), rng.gen_range(4..=16)),
            _ if large_left > 0 => {
                large_left -= 1;
                (rng.gen_range(1024..=4096), rng.gen_range(8..=24))
            }
            _ => (rng.gen_range(256..=1024), rng.gen_range(4..=16)),
        };
        b.segment(format!("ds{s}"), depth, width)
            .expect("nonzero dims by construction");
    }
    StreamInstance {
        name,
        design: b.build().expect("segments >= 1 by construction"),
        board,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_reproducible() {
        let a: Vec<StreamInstance> = stream_instances(StreamSpec::default()).take(5).collect();
        let b: Vec<StreamInstance> = stream_instances(StreamSpec::default()).take(5).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.design, y.design);
            assert_eq!(x.board, y.board);
        }
    }

    #[test]
    fn instances_are_distinct() {
        let v: Vec<StreamInstance> = stream_instances(StreamSpec::default()).take(8).collect();
        for i in 0..v.len() {
            for j in i + 1..v.len() {
                assert_ne!(v[i].design, v[j].design, "instances {i} and {j} collide");
            }
        }
    }

    #[test]
    fn segment_counts_respect_spec() {
        let spec = StreamSpec {
            segments: (3, 5),
            seed: 7,
        };
        for inst in stream_instances(spec).take(20) {
            assert!((3..=5).contains(&inst.design.num_segments()));
        }
    }

    #[test]
    fn every_streamed_instance_is_mappable() {
        use gmm_core::pipeline::{Mapper, MapperOptions};
        let mapper = Mapper::new(MapperOptions::new());
        for inst in stream_instances(StreamSpec::default()).take(25) {
            let out = mapper
                .map(&inst.design, &inst.board)
                .unwrap_or_else(|e| panic!("{} unmappable: {e}", inst.name));
            assert_eq!(out.global.type_of.len(), inst.design.num_segments());
        }
    }

    #[test]
    fn cycling_stream_repeats_the_pool_exactly() {
        let spec = StreamSpec::default();
        let pool: Vec<StreamInstance> = stream_instances(spec.clone()).take(3).collect();
        let cycled: Vec<StreamInstance> = cycling_instances(spec, 3).take(7).collect();
        for (i, inst) in cycled.iter().enumerate() {
            let expect = &pool[i % 3];
            assert_eq!(inst.name, expect.name, "lap {} diverged", i / 3);
            assert_eq!(inst.design, expect.design);
            assert_eq!(inst.board, expect.board);
        }
    }

    #[test]
    fn cycling_stream_clamps_distinct_to_one() {
        let v: Vec<StreamInstance> = cycling_instances(StreamSpec::default(), 0)
            .take(3)
            .collect();
        assert_eq!(v[0].design, v[1].design);
        assert_eq!(v[1].design, v[2].design);
    }

    #[test]
    fn boards_are_table3_shaped() {
        for inst in stream_instances(StreamSpec::default()).take(6) {
            // Multi-config on-chip type present, off-chip single-config too.
            assert!(inst.board.num_types() >= 2);
            let ports = inst.board.total_ports();
            assert!(
                ports as usize >= inst.design.num_segments(),
                "port budget must cover one port per segment"
            );
        }
    }
}
