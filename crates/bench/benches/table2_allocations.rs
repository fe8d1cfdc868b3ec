//! **Table 2** — allocation options of a 3-port, 16-word memory bank.
//!
//! Prints the reproduced table (with the Figure-3 acceptance verdicts,
//! including the paper's explicit `(8, 8, 0)` rejection) and benches the
//! enumeration across bank shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmm_core::enumerate_port_allocations;
use std::hint::black_box;

fn print_and_assert_table2() {
    println!("\n=== Table 2: 3-port 16-word bank allocation options ===");
    let opts = enumerate_port_allocations(3, 16);
    for o in &opts {
        println!(
            "  {:>2} {:>2} {:>2}  {}",
            o.words[0],
            o.words[1],
            o.words[2],
            if o.accepted {
                ""
            } else {
                "rejected by Figure 3"
            }
        );
    }
    let verdict = |w: &[u32]| opts.iter().find(|o| o.words == w).unwrap().accepted;
    assert!(verdict(&[16, 0, 0]));
    assert!(!verdict(&[8, 8, 0]), "the paper's worked rejection");
    assert!(verdict(&[8, 4, 0]));
    assert!(verdict(&[4, 4, 4]));
    assert!(verdict(&[0, 0, 0]));
    println!("({} options; (8,8,0) correctly rejected)\n", opts.len());
}

fn bench(c: &mut Criterion) {
    print_and_assert_table2();
    let mut g = c.benchmark_group("table2/enumerate");
    for (ports, depth) in [(2u32, 16u32), (3, 16), (3, 64), (4, 256)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{ports}p{depth}w")),
            &(ports, depth),
            |b, &(p, d)| b.iter(|| black_box(enumerate_port_allocations(p, d))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
