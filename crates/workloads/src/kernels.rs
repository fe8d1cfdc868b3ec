//! Realistic DSP/image-processing workloads — the application class the
//! paper's introduction motivates ("with signal and image processing
//! applications, memory mapping becomes a crucial step").
//!
//! Each kernel returns a [`Design`] with meaningful segments, access
//! profiles derived from the algorithm's operation counts, and lifetimes
//! reflecting its phase structure.

use gmm_design::{AccessProfile, Design, DesignBuilder, Lifetime};

/// An N-tap FIR filter over a block of samples: coefficient ROM, sliding
/// window, input and output buffers.
pub fn fir(taps: u32, block: u32) -> Design {
    let mut b = DesignBuilder::new(format!("fir{taps}"));
    let coeffs = b.segment("coeffs", taps, 16).unwrap();
    let window = b.segment("window", taps, 16).unwrap();
    let input = b.segment("input", block, 16).unwrap();
    let output = b.segment("output", block, 18).unwrap();
    // Per output sample: taps coefficient reads, taps window reads + 1
    // write, 1 input read, 1 output write.
    let per = block as u64;
    b.profile(coeffs, AccessProfile::new(per * taps as u64, taps as u64));
    b.profile(window, AccessProfile::new(per * taps as u64, per));
    b.profile(input, AccessProfile::new(per, per));
    b.profile(output, AccessProfile::new(0, per));
    // Everything is live together (streaming).
    for id in [coeffs, window, input, output] {
        b.lifetime(id, Lifetime::new(0, 100).unwrap());
    }
    b.build().unwrap()
}

/// 2-D convolution of a `w x h` 8-bit image with a `k x k` kernel:
/// line buffers, kernel ROM, input tile, output tile.
pub fn conv2d(w: u32, h: u32, k: u32) -> Design {
    let mut b = DesignBuilder::new(format!("conv2d-{w}x{h}-k{k}"));
    let image = b.segment("image", w * h / 4, 32).unwrap(); // packed words
    let kernel = b.segment("kernel", k * k, 12).unwrap();
    // k-1 line buffers of one image row each.
    let mut lines = Vec::new();
    for i in 0..k.saturating_sub(1) {
        lines.push(b.segment(format!("line{i}"), w, 8).unwrap());
    }
    let out = b.segment("result", w * h / 4, 32).unwrap();
    let pixels = (w * h) as u64;
    b.profile(image, AccessProfile::new(pixels / 4, pixels / 4));
    b.profile(
        kernel,
        AccessProfile::new(pixels * (k * k) as u64, (k * k) as u64),
    );
    for &l in &lines {
        b.profile(l, AccessProfile::new(pixels, pixels));
    }
    b.profile(out, AccessProfile::new(0, pixels / 4));
    let all: Vec<_> = [image, kernel, out].into_iter().chain(lines).collect();
    for id in all {
        b.lifetime(id, Lifetime::new(0, 100).unwrap());
    }
    b.build().unwrap()
}

/// In-place radix-2 FFT of size `n`: twiddle ROM plus two ping-pong
/// buffers with phase-disjoint scratch.
pub fn fft(n: u32) -> Design {
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    let stages = n.trailing_zeros() as u64;
    let mut b = DesignBuilder::new(format!("fft{n}"));
    let twiddle = b.segment("twiddle", n / 2, 32).unwrap();
    let ping = b.segment("ping", n, 32).unwrap();
    let pong = b.segment("pong", n, 32).unwrap();
    let bitrev = b.segment("bitrev_scratch", n, 16).unwrap();
    let butterflies = stages * (n as u64 / 2);
    b.profile(twiddle, AccessProfile::new(butterflies, n as u64 / 2));
    b.profile(ping, AccessProfile::new(butterflies, butterflies));
    b.profile(pong, AccessProfile::new(butterflies, butterflies));
    b.profile(bitrev, AccessProfile::new(n as u64, n as u64));
    // Bit-reversal scratch is only live during the input permutation, so
    // it may overlap with the output half of the ping-pong pair.
    b.lifetime(twiddle, Lifetime::new(0, 100).unwrap());
    b.lifetime(ping, Lifetime::new(0, 100).unwrap());
    b.lifetime(pong, Lifetime::new(10, 100).unwrap());
    b.lifetime(bitrev, Lifetime::new(0, 10).unwrap());
    b.build().unwrap()
}

/// Blocked matrix multiply `C = A * B` of `n x n` 16-bit matrices with
/// `t x t` tiles.
pub fn matmul(n: u32, tile: u32) -> Design {
    let mut b = DesignBuilder::new(format!("matmul{n}-t{tile}"));
    let a = b.segment("A", n * n, 16).unwrap();
    let bm = b.segment("B", n * n, 16).unwrap();
    let c = b.segment("C", n * n, 32).unwrap();
    let tile_a = b.segment("tileA", tile * tile, 16).unwrap();
    let tile_b = b.segment("tileB", tile * tile, 16).unwrap();
    let acc = b.segment("acc", tile * tile, 40).unwrap();
    let n3 = (n as u64).pow(3);
    let n2 = (n as u64).pow(2);
    b.profile(a, AccessProfile::new(n3 / tile as u64, n2));
    b.profile(bm, AccessProfile::new(n3 / tile as u64, n2));
    b.profile(c, AccessProfile::new(n2, n2));
    b.profile(tile_a, AccessProfile::new(n3, n3 / tile as u64));
    b.profile(tile_b, AccessProfile::new(n3, n3 / tile as u64));
    b.profile(acc, AccessProfile::new(n3, n3));
    for id in [a, bm, c, tile_a, tile_b, acc] {
        b.lifetime(id, Lifetime::new(0, 100).unwrap());
    }
    b.build().unwrap()
}

/// Histogram equalization: image pass 1 builds the histogram, pass 2
/// applies the remap table — classic two-phase lifetimes.
pub fn histogram(w: u32, h: u32, bins: u32) -> Design {
    let mut b = DesignBuilder::new(format!("histeq-{w}x{h}"));
    let image = b.segment("image", w * h / 4, 32).unwrap();
    let hist = b.segment("histogram", bins, 24).unwrap();
    let cdf = b.segment("cdf", bins, 24).unwrap();
    let remap = b.segment("remap", bins, 8).unwrap();
    let out = b.segment("out_image", w * h / 4, 32).unwrap();
    let pixels = (w * h) as u64;
    b.profile(image, AccessProfile::new(pixels / 2, pixels / 4));
    b.profile(
        hist,
        AccessProfile::new(pixels + bins as u64, pixels + bins as u64),
    );
    b.profile(cdf, AccessProfile::new(bins as u64 * 2, bins as u64));
    b.profile(remap, AccessProfile::new(pixels, bins as u64));
    b.profile(out, AccessProfile::new(0, pixels / 4));
    // Phase 1 [0,10): image + histogram. Phase 2 [10,20): cdf/remap built.
    // Phase 3 [20,30): image remapped to out.
    b.lifetime(image, Lifetime::new(0, 30).unwrap());
    b.lifetime(hist, Lifetime::new(0, 15).unwrap());
    b.lifetime(cdf, Lifetime::new(10, 20).unwrap());
    b.lifetime(remap, Lifetime::new(15, 30).unwrap());
    b.lifetime(out, Lifetime::new(20, 30).unwrap());
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fir_structure() {
        let d = fir(16, 1024);
        assert_eq!(d.num_segments(), 4);
        let coeffs = d.find("coeffs").unwrap();
        // Coefficients are read far more than written.
        let p = d.profile(coeffs);
        assert!(p.reads > 100 * p.writes);
    }

    #[test]
    fn conv2d_line_buffers() {
        let d = conv2d(64, 64, 3);
        assert_eq!(d.num_segments(), 3 + 2); // image, kernel, out + 2 lines
        assert!(d.find("line0").is_some());
        assert!(d.find("line1").is_some());
        assert!(d.find("line2").is_none());
    }

    #[test]
    fn fft_phase_overlap() {
        let d = fft(1024);
        let bitrev = d.find("bitrev_scratch").unwrap();
        let pong = d.find("pong").unwrap();
        // Scratch dies before pong is born: they may share storage.
        assert!(!d.conflicts().conflicts(bitrev, pong));
        let ping = d.find("ping").unwrap();
        assert!(d.conflicts().conflicts(bitrev, ping));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        fft(1000);
    }

    #[test]
    fn histogram_phases() {
        let d = histogram(128, 128, 256);
        let hist = d.find("histogram").unwrap();
        let out = d.find("out_image").unwrap();
        assert!(!d.conflicts().conflicts(hist, out));
    }

    #[test]
    fn matmul_totals() {
        let d = matmul(64, 8);
        assert_eq!(d.num_segments(), 6);
        assert!(d.total_bits() > 3 * 64 * 64 * 16);
    }

    #[test]
    fn kernels_map_on_prototyping_board() {
        use gmm_core::pipeline::{Mapper, MapperOptions};
        let board = gmm_arch::Board::prototyping("XCV1000", 6).unwrap();
        let mapper = Mapper::new(MapperOptions::new());
        for design in [fir(16, 512), fft(1024), histogram(64, 64, 256)] {
            let out = mapper
                .map(&design, &board)
                .unwrap_or_else(|e| panic!("{} failed to map: {e}", design.num_segments()));
            let v = gmm_core::validate_detailed(&design, &board, &out.detailed);
            assert!(v.is_empty(), "{v:?}");
        }
    }
}
