//! Ablations over the design choices DESIGN.md calls out:
//!
//! * **constructive vs ILP** detailed mapper (time and fragmentation);
//! * pre-processing throughput on a full Table 3 point (the cost of the
//!   paper's `CP/CW/CD` tables, which the global formulation's speed
//!   depends on).

use criterion::{criterion_group, criterion_main, Criterion};
use gmm_core::pipeline::{DetailedStrategy, Mapper, MapperOptions};
use gmm_core::{CostMatrix, DetailedIlpOptions, PreTable};
use gmm_workloads::{table3_board, table3_design, TABLE3};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Point 6 is the largest point that still solves in milliseconds with
    // the global formulation: a good ablation target.
    let point = &TABLE3[5];
    let design = table3_design(point, 0xF00D);
    let board = table3_board(point);

    let mut g = c.benchmark_group("ablation/detailed_mapper");
    g.sample_size(10);
    g.bench_function("constructive", |b| {
        let mut opts = MapperOptions::new();
        opts.detailed = DetailedStrategy::Constructive;
        let mapper = Mapper::new(opts);
        b.iter(|| black_box(mapper.map(&design, &board).unwrap()))
    });
    g.bench_function("ilp", |b| {
        let mut opts = MapperOptions::new();
        opts.detailed = DetailedStrategy::Ilp(DetailedIlpOptions::default());
        let mapper = Mapper::new(opts);
        b.iter(|| black_box(mapper.map(&design, &board).unwrap()))
    });
    g.finish();

    // Report the quality side of the detailed ablation once.
    {
        let mapper = Mapper::new(MapperOptions::new());
        let constructive = mapper.map(&design, &board).unwrap();
        let mut opts = MapperOptions::new();
        opts.detailed = DetailedStrategy::Ilp(DetailedIlpOptions::default());
        let ilp = Mapper::new(opts).map(&design, &board).unwrap();
        println!(
            "\nablation/detailed_mapper quality: constructive uses {} instances, ILP uses {}\n",
            constructive.detailed.instances_used(),
            ilp.detailed.instances_used()
        );
    }

    let mut g = c.benchmark_group("ablation/preprocess");
    g.sample_size(20);
    g.bench_function("pretable_point6", |b| {
        b.iter(|| black_box(PreTable::build(&design, &board)))
    });
    g.bench_function("cost_matrix_point6", |b| {
        let pre = PreTable::build(&design, &board);
        b.iter(|| black_box(CostMatrix::build(&design, &board, &pre)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
