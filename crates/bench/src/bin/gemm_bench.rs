//! Micro-benchmarks for the SIMD inference kernels (DESIGN.md §4k).
//!
//! Two comparisons, both on the serving policy's layer shapes:
//!
//! **Single-op GEMV** — the scalar AoS baseline ([`Matrix::matvec`],
//! one dot product per output row, a serial add chain each) versus the
//! SoA kernel ([`autophase_nn::simd::gemv_kt`], k-major weights, lanes
//! spanning outputs, independent accumulation chains). The headline
//! speedup is the geometric mean across the layer shapes and
//! `--min-speedup <x>` turns it into a regression gate.
//!
//! **Batched forward** — one [`SoaMlp::forward_batch`] per gathered
//! batch versus per-observation [`Mlp::forward`], at the batch sizes the
//! serving engine actually sees ({1, 8, 64}); reported as observations
//! per second plus the per-batch amortization factor.
//!
//! Results land in `BENCH_gemm.json`. The kernels are bit-identical to
//! the scalar reference by construction (pinned by the nn crate's
//! differential suite); this binary re-checks every output it times, so
//! the numbers can never come from a kernel that drifted.
//!
//! Usage: `cargo run --release -p autophase-bench --bin gemm_bench
//! [-- --min-speedup <x>]`.

use autophase_nn::matrix::Matrix;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_nn::{simd, BatchWorkspace, SoaMlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The serving policy's layer shapes (56-wide observations, two hidden
/// layers, 46 actions) plus the training value head.
const SHAPES: [(usize, usize); 4] = [(56, 256), (256, 256), (256, 46), (256, 1)];

/// Batch sizes the engine's drained batches span (1 up to its
/// `max_batch` of 64).
const BATCHES: [usize; 3] = [1, 8, 64];

fn min_speedup_from_args() -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--min-speedup" {
            return w[1].parse().ok();
        }
    }
    None
}

/// Time `f` over enough repetitions to dominate timer noise, returning
/// seconds per call.
fn time_per_call(mut f: impl FnMut(), calls: usize) -> f64 {
    // Warm-up: page in buffers, settle the frequency governor.
    for _ in 0..calls / 10 + 1 {
        f();
    }
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() / calls as f64
}

struct GemvResult {
    rows: usize,
    cols: usize,
    scalar_ns: f64,
    simd_ns: f64,
    speedup: f64,
}

/// Scalar AoS `matvec` vs SoA `gemv_kt` on one `rows x cols` layer.
fn bench_gemv(rows: usize, cols: usize, rng: &mut StdRng) -> GemvResult {
    let mut w = Matrix::zeros(rows, cols);
    for v in w.data_mut() {
        *v = rng.gen::<f64>() - 0.5;
    }
    let x: Vec<f64> = (0..cols).map(|_| rng.gen::<f64>() - 0.5).collect();
    // k-major transpose of the same weights, as SoaMlp lays them out.
    let mut wt = vec![0.0; rows * cols];
    for n in 0..rows {
        for k in 0..cols {
            wt[k * rows + n] = w.get(n, k);
        }
    }
    let width = simd::picked();

    // The kernels must agree bitwise before anything is timed.
    let reference = w.matvec(&x);
    let mut y = vec![0.0; rows];
    simd::gemv_kt(&wt, &x, &mut y, width);
    assert_eq!(
        reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{rows}x{cols}: SIMD gemv diverged from scalar matvec"
    );

    let calls = (20_000_000 / (rows * cols)).max(200);
    let mut sink = 0.0f64;
    let scalar_s = time_per_call(
        || {
            let out = w.matvec(&x);
            sink += out[0];
        },
        calls,
    );
    let mut y = vec![0.0; rows];
    let simd_s = time_per_call(
        || {
            simd::gemv_kt(&wt, &x, &mut y, width);
            sink += y[0];
        },
        calls,
    );
    std::hint::black_box(sink);
    GemvResult {
        rows,
        cols,
        scalar_ns: scalar_s * 1e9,
        simd_ns: simd_s * 1e9,
        speedup: scalar_s / simd_s,
    }
}

struct BatchResult {
    batch: usize,
    scalar_obs_per_sec: f64,
    batched_obs_per_sec: f64,
    speedup: f64,
}

/// Per-observation `Mlp::forward` vs one `forward_batch` on the serving
/// policy shape, at engine batch size `batch`.
fn bench_batched_forward(net: &Mlp, soa: &SoaMlp, batch: usize, rng: &mut StdRng) -> BatchResult {
    let obs: Vec<Vec<f64>> = (0..batch)
        .map(|_| {
            (0..net.input_dim())
                .map(|_| rng.gen::<f64>() - 0.5)
                .collect()
        })
        .collect();
    let mut ws = BatchWorkspace::new();

    // Bit-identity check on the exact inputs being timed.
    ws.begin(soa);
    for o in &obs {
        ws.push_input(o);
    }
    soa.forward_batch(&mut ws);
    for (b, o) in obs.iter().enumerate() {
        let want: Vec<u64> = net.forward(o).iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = ws.logits(b).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "batch {batch} row {b}: batched forward diverged");
    }

    let calls = (2_000 / batch).max(30);
    let mut sink = 0.0f64;
    let scalar_s = time_per_call(
        || {
            for o in &obs {
                sink += net.forward(o)[0];
            }
        },
        calls,
    );
    let batched_s = time_per_call(
        || {
            ws.begin(soa);
            for o in &obs {
                ws.push_input(o);
            }
            soa.forward_batch(&mut ws);
            sink += ws.logits(0)[0];
        },
        calls,
    );
    std::hint::black_box(sink);
    BatchResult {
        batch,
        scalar_obs_per_sec: batch as f64 / scalar_s,
        batched_obs_per_sec: batch as f64 / batched_s,
        speedup: scalar_s / batched_s,
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let width = simd::picked();
    println!("kernel width: {} ({} lanes)", width.name(), width.lanes());

    println!("single-op GEMV (scalar AoS matvec vs SoA gemv_kt):");
    let mut gemv: Vec<GemvResult> = Vec::new();
    for &(rows, cols) in &SHAPES {
        let r = bench_gemv(rows, cols, &mut rng);
        println!(
            "  {:>3}x{:<3}  scalar {:>8.1} ns  simd {:>8.1} ns  speedup {:>5.2}x",
            r.rows, r.cols, r.scalar_ns, r.simd_ns, r.speedup
        );
        gemv.push(r);
    }
    let gemv_speedup = (gemv.iter().map(|r| r.speedup.ln()).sum::<f64>() / gemv.len() as f64).exp();
    println!("  geometric-mean GEMV speedup: {gemv_speedup:.2}x");

    let net = Mlp::new(&[56, 256, 256, 46], Activation::Tanh, 7);
    let soa = SoaMlp::from_mlp(&net);
    println!("batched forward on the 56-256-256-46 policy:");
    let mut fwd: Vec<BatchResult> = Vec::new();
    for &b in &BATCHES {
        let r = bench_batched_forward(&net, &soa, b, &mut rng);
        println!(
            "  batch {:>2}  per-obs {:>9.0} obs/s  batched {:>9.0} obs/s  speedup {:>5.2}x",
            r.batch, r.scalar_obs_per_sec, r.batched_obs_per_sec, r.speedup
        );
        fwd.push(r);
    }

    let gemv_json = gemv
        .iter()
        .map(|r| {
            format!(
                "    {{ \"shape\": \"{}x{}\", \"scalar_ns\": {:.1}, \"simd_ns\": {:.1}, \"speedup\": {:.2} }}",
                r.rows, r.cols, r.scalar_ns, r.simd_ns, r.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let fwd_json = fwd
        .iter()
        .map(|r| {
            format!(
                "    {{ \"batch\": {}, \"per_obs_forward_obs_per_sec\": {:.0}, \
                 \"batched_forward_obs_per_sec\": {:.0}, \"speedup\": {:.2} }}",
                r.batch, r.scalar_obs_per_sec, r.batched_obs_per_sec, r.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"gemm_bench\",\n  \"kernel_width\": \"{}\",\n  \
         \"bit_identical\": true,\n  \"gemv\": [\n{gemv_json}\n  ],\n  \
         \"gemv_speedup_geomean\": {gemv_speedup:.2},\n  \"batched_forward\": [\n{fwd_json}\n  ]\n}}\n",
        width.name()
    );
    match std::fs::write("BENCH_gemm.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_gemm.json"),
        Err(e) => eprintln!("could not write BENCH_gemm.json: {e}"),
    }

    if let Some(floor) = min_speedup_from_args() {
        if gemv_speedup < floor {
            eprintln!("FAIL: GEMV speedup {gemv_speedup:.2}x is below the {floor}x floor");
            std::process::exit(1);
        }
        println!("GEMV speedup {gemv_speedup:.2}x meets the {floor}x floor");
    }
}
