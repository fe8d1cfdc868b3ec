//! **Table 1** — FPGA on-chip RAM catalog.
//!
//! Table 1 is input data, not a measurement; this bench (a) prints and
//! asserts the reproduced table, and (b) measures catalog operations
//! (lookup + bank materialization) so regressions in the architecture
//! model surface here.

use criterion::{criterion_group, criterion_main, Criterion};
use gmm_arch::{find_device, Family, APEX20K, FLEX10K, VIRTEX};
use std::hint::black_box;

fn print_and_assert_table1() {
    println!("\n=== Table 1: FPGA on-chip RAMs ===");
    let rows = [
        (
            "Xilinx Virtex",
            Family::Virtex,
            VIRTEX,
            (8u32, 208u32),
            4096u64,
        ),
        ("Altera Flex 10K", Family::Flex10K, FLEX10K, (9, 20), 2048),
        ("Altera Apex E", Family::Apex20K, APEX20K, (12, 216), 2048),
    ];
    for (label, family, devices, (lo, hi), bits) in rows {
        let min = devices.iter().map(|d| d.ram_blocks).min().unwrap();
        let max = devices.iter().map(|d| d.ram_blocks).max().unwrap();
        assert_eq!((min, max), (lo, hi), "{label} bank range");
        assert_eq!(family.block_bits(), bits, "{label} block size");
        assert_eq!(family.configurations().len(), 5, "{label} config count");
        let configs: Vec<String> = family
            .configurations()
            .iter()
            .map(|c| c.to_string())
            .collect();
        println!(
            "{:<16} {:<9} {:>3} -> {:<3} {:>5} bits  [{}]",
            label,
            family.ram_name(),
            min,
            max,
            bits,
            configs.join(", ")
        );
    }
    println!("(ranges, sizes, and configuration ladders match the paper)\n");
}

fn bench(c: &mut Criterion) {
    print_and_assert_table1();
    c.bench_function("table1/device_lookup", |b| {
        b.iter(|| {
            for name in ["XCV50", "XCV3200E", "EPF10K70", "EP20K1500E"] {
                black_box(find_device(black_box(name)).unwrap());
            }
        })
    });
    c.bench_function("table1/bank_materialization", |b| {
        b.iter(|| {
            for d in VIRTEX.iter().chain(FLEX10K).chain(APEX20K) {
                black_box(d.on_chip_bank());
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
