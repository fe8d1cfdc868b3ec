//! **Figure 2** — the 55x17 worked example of the pre-processing step.
//!
//! Asserts the paper's exact numbers (FP=18, WP=3, DP=4, WDP=1, CP=26,
//! CW=17, CD=56) and benches the `CP/CW/CD` computation across segment
//! shapes — this runs once per (segment, type) pair inside the mapper, so
//! its throughput matters for large designs.

use criterion::{criterion_group, criterion_main, Criterion};
use gmm_arch::{BankType, Placement, RamConfig};
use gmm_core::preprocess::preprocess_pair;
use std::hint::black_box;

fn fig2_bank() -> BankType {
    BankType::new(
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
    .unwrap()
}

fn print_and_assert_fig2() {
    let e = preprocess_pair(&fig2_bank(), 55, 17);
    println!("\n=== Figure 2: 55x17 structure, 3-port multi-config bank ===");
    println!("alpha {}  beta {}", e.split.alpha, e.split.beta);
    println!(
        "FP={} WP={} DP={} WDP={}  CP={}  CW={}  CD={}",
        e.fp,
        e.wp,
        e.dp,
        e.wdp,
        e.cp(),
        e.cw,
        e.cd
    );
    assert_eq!((e.fp, e.wp, e.dp, e.wdp), (18, 3, 4, 1));
    assert_eq!(e.cp(), 26);
    assert_eq!(e.cw, 17);
    assert_eq!(e.cd, 56);
    println!("(matches the paper exactly)\n");
}

fn bench(c: &mut Criterion) {
    print_and_assert_fig2();
    let bank = fig2_bank();
    c.bench_function("fig2/preprocess_55x17", |b| {
        b.iter(|| black_box(preprocess_pair(black_box(&bank), 55, 17)))
    });
    c.bench_function("fig2/preprocess_sweep", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for depth in [1u32, 7, 16, 55, 100, 129, 4096] {
                for width in [1u32, 3, 8, 16, 17, 33] {
                    acc += preprocess_pair(&bank, depth, width).cp() as u64;
                }
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
