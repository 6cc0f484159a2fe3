//! Before/after benchmarks for the rollout engine's two big levers.
//!
//! **Incremental evaluation** (single worker): one environment collecting
//! serially over a medium multi-program corpus, with
//! `EnvConfig::incremental` off ("before": every step re-verifies,
//! re-extracts, and re-profiles the whole module) versus on ("after":
//! copy-on-write modules, pass-derived change sets, per-function
//! feature/schedule caches, the snapshot memo, and the content-addressed
//! evaluation cache make a step cost proportional to what the pass
//! changed). The headline
//! speedup lands in `BENCH_incremental.json`, and `--min-speedup <x>`
//! turns the binary into a regression gate that fails below the floor.
//!
//! **Parallel collection + shared [`EvalCache`]**: serial collection on
//! one environment versus a worker pool of environments sharing one
//! cache, so any module state profiled once — by any worker, in any
//! round — is a table lookup ever after.
//!
//! In both comparisons the two paths collect the *same* episode indices
//! under the *same* seeds, and episode-indexed collection makes the
//! batches bit-identical (the binary asserts this every round), so the
//! comparison is pure throughput: identical work, measured in
//! environment steps per second.
//!
//! All statistics are recorded through the workspace telemetry layer and
//! rendered by its summary sink (`--telemetry summary`, the default for
//! this binary): per-pass timing, HLS profile costs, EvalCache hit rate,
//! worker utilization, and the headline steps/s gauges all come out of
//! one table, and a machine-readable copy lands in
//! `results/rollout_bench_telemetry.jsonl`.
//!
//! Usage: `cargo run --release -p autophase-bench --bin rollout_bench
//! [-- --scale small|medium|paper] [--telemetry summary|jsonl|prom|off]
//! [--min-speedup <x>]`.

use autophase_bench::{Scale, TelemetryMode, TelemetrySession};
use autophase_core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase_core::EvalCache;
use autophase_ir::Module;
use autophase_progen::{generate_valid, GenConfig};
use autophase_rl::env::Environment;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_rl::rollout::{self, Batch};
use autophase_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

const EPISODE_LEN: usize = 12;
const SEED: u64 = 8;

/// Parse `--min-speedup <x>` from argv (no floor when absent).
fn min_speedup_from_args() -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--min-speedup" {
            return w[1].parse().ok();
        }
    }
    None
}

/// The medium corpus for the incremental comparison: the suite's
/// multi-function programs plus generated many-helper ones, so change
/// sets routinely dirty one function out of many — the regime
/// incremental evaluation is built for. (The single-function suite
/// programs are covered by the parallel/EvalCache comparison below;
/// per-function caching is definitionally a no-op on them.)
fn incremental_corpus() -> Vec<(String, Module)> {
    let mut corpus: Vec<(String, Module)> = autophase_benchmarks::suite()
        .into_iter()
        .filter(|b| matches!(b.name, "adpcm" | "blowfish" | "dhrystone" | "sha"))
        .map(|b| (b.name.to_string(), b.module))
        .collect();
    let cfg = GenConfig {
        max_helpers: 8,
        max_stmts: 8,
        max_trip: 8,
        ..GenConfig::default()
    };
    for seed in [11u64, 94, 233, 1042, 4711] {
        corpus.push((format!("gen{seed}"), generate_valid(&cfg, seed)));
    }
    corpus
}

fn env_config() -> EnvConfig {
    EnvConfig {
        observation: ObservationKind::Combined,
        feature_norm: FeatureNorm::InstCount,
        reward: RewardKind::Log,
        episode_len: EPISODE_LEN,
        filtered_features: true,
        filtered_passes: true,
        ..EnvConfig::default()
    }
}

fn batches_equal(a: &Batch, b: &Batch) -> bool {
    a.episode_returns == b.episode_returns
        && a.transitions.len() == b.transitions.len()
        && a.transitions.iter().zip(&b.transitions).all(|(x, y)| {
            x.obs == y.obs
                && x.action == y.action
                && x.reward == y.reward
                && x.logp == y.logp
                && x.done == y.done
        })
}

fn main() {
    let telemetry = TelemetrySession::start_with_default("rollout_bench", TelemetryMode::Summary);
    let scale = Scale::from_args();
    let (warmup_iters, rounds, episodes_per_round) =
        scale.pick((16, 16, 24), (20, 16, 32), (40, 30, 96));

    let program = autophase_benchmarks::suite()
        .into_iter()
        .find(|b| b.name == "gsm")
        .expect("gsm benchmark present")
        .module;

    // Warm up a policy so the benchmark measures the steady state of
    // training, where the policy has sharpened and revisits good
    // sequences — exactly the regime the cache is built for.
    let mut warm_env = PhaseOrderEnv::single(program.clone(), env_config());
    let ppo = PpoConfig {
        hidden: vec![32, 32],
        horizon: 96,
        minibatch: 32,
        max_episode_len: EPISODE_LEN,
        ..PpoConfig::default()
    };
    let mut agent = PpoAgent::new(
        warm_env.observation_dim(),
        warm_env.num_actions(),
        &ppo,
        SEED,
    );
    eprintln!("warming up policy ({warmup_iters} serial PPO iterations on gsm)...");
    agent.train(&mut warm_env, warmup_iters);

    // ---- Incremental evaluation: full recompute vs. change-set driven ----
    // Single worker, serial collection, nothing shared: the
    // full-recompute env never consults a cache and the incremental env
    // uses its private one, so the speedup is the incremental path's.
    let corpus = incremental_corpus();
    let corpus_names: Vec<&str> = corpus.iter().map(|(n, _)| n.as_str()).collect();
    let inc_rounds = scale.pick(6, 16, 32);
    let inc_eps = scale.pick(12, 24, 64);
    eprintln!(
        "incremental comparison: {inc_rounds} rounds x {inc_eps} episodes over {} programs...",
        corpus.len()
    );
    let run_serial = |env: &mut PhaseOrderEnv| -> (Vec<Batch>, f64, u64) {
        let t = Instant::now();
        let mut batches = Vec::with_capacity(inc_rounds);
        for r in 0..inc_rounds {
            batches.push(rollout::collect_episodes(
                env,
                &agent.policy,
                &agent.value,
                inc_eps,
                (r * inc_eps) as u64,
                EPISODE_LEN,
                rollout::episode_seed(0xFACE, r as u64),
            ));
        }
        (batches, t.elapsed().as_secs_f64(), env.samples())
    };
    let modules: Vec<Module> = corpus.iter().map(|(_, m)| m.clone()).collect();
    let mut full_env = PhaseOrderEnv::new(
        modules.clone(),
        EnvConfig {
            incremental: false,
            ..env_config()
        },
    );
    let (full_batches, full_secs, full_samples) = run_serial(&mut full_env);
    let mut inc_env = PhaseOrderEnv::new(modules, env_config());
    let (inc_batches, inc_secs, inc_samples) = run_serial(&mut inc_env);
    for (r, (a, b)) in full_batches.iter().zip(&inc_batches).enumerate() {
        assert!(
            batches_equal(a, b),
            "round {r}: incremental batch diverged from the full-recompute one"
        );
    }
    let inc_steps: usize = inc_batches.iter().map(|b| b.transitions.len()).sum();
    let full_sps = inc_steps as f64 / full_secs;
    let inc_sps = inc_steps as f64 / inc_secs;
    let inc_speedup = inc_sps / full_sps;
    telemetry::set_gauge("bench.incremental_full_steps_per_sec", "", full_sps);
    telemetry::set_gauge("bench.incremental_steps_per_sec", "", inc_sps);
    telemetry::set_gauge("bench.incremental_speedup", "", inc_speedup);
    println!(
        "incremental evaluation on {} programs ({inc_steps} env steps per path, 1 worker)",
        corpus.len()
    );
    println!(
        "  full recompute: {full_sps:.1} steps/s ({full_samples} profiler runs)  \
         incremental: {inc_sps:.1} steps/s ({inc_samples} profiler runs)  \
         speedup: {inc_speedup:.2}x"
    );
    println!("determinism: all {inc_rounds} incremental batches bit-identical to full ones");
    let json = format!(
        "{{\n  \"benchmark\": \"rollout_bench_incremental\",\n  \"corpus\": [{}],\n  \
         \"workers\": 1,\n  \"rounds\": {inc_rounds},\n  \"episodes_per_round\": {inc_eps},\n  \
         \"episode_len\": {EPISODE_LEN},\n  \"env_steps\": {inc_steps},\n  \
         \"full_recompute\": {{ \"secs\": {full_secs:.3}, \"steps_per_sec\": {full_sps:.1}, \
         \"profiler_runs\": {full_samples} }},\n  \
         \"incremental\": {{ \"secs\": {inc_secs:.3}, \"steps_per_sec\": {inc_sps:.1}, \
         \"profiler_runs\": {inc_samples} }},\n  \"speedup\": {inc_speedup:.2},\n  \
         \"bit_identical\": true\n}}\n",
        corpus_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    match std::fs::write("BENCH_incremental.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_incremental.json"),
        Err(e) => eprintln!("could not write BENCH_incremental.json: {e}"),
    }

    let total_eps = rounds * episodes_per_round;
    let total_steps_hint = total_eps * EPISODE_LEN;
    eprintln!(
        "collecting {rounds} rounds x {episodes_per_round} episodes (<= {total_steps_hint} steps) per path..."
    );

    // Before: serial collection on one environment (private cache).
    let mut serial_env = PhaseOrderEnv::single(program.clone(), env_config());
    let mut serial_batches = Vec::with_capacity(rounds);
    let t0 = telemetry::maybe_now();
    for r in 0..rounds {
        serial_batches.push(rollout::collect_episodes(
            &mut serial_env,
            &agent.policy,
            &agent.value,
            episodes_per_round,
            (r * episodes_per_round) as u64,
            EPISODE_LEN,
            rollout::episode_seed(0xBEEF, r as u64),
        ));
    }
    let serial_secs = t0.map(|t| t.elapsed().as_secs_f64());
    let steps: usize = serial_batches.iter().map(|b| b.transitions.len()).sum();

    // After: the worker pool, every environment sharing one cache.
    // One worker per core (the engine is bit-identical for any count, so
    // a single-core machine honestly runs one worker and the speedup is
    // the cache's alone).
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let cache = Arc::new(EvalCache::default());
    let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
        .map(|_| {
            Box::new(PhaseOrderEnv::with_cache(
                vec![program.clone()],
                env_config(),
                Arc::clone(&cache),
            )) as Box<dyn Environment + Send>
        })
        .collect();
    let t1 = telemetry::maybe_now();
    for (r, reference) in serial_batches.iter().enumerate() {
        let batch = rollout::collect_episodes_parallel(
            &mut envs,
            &agent.policy,
            &agent.value,
            episodes_per_round,
            (r * episodes_per_round) as u64,
            EPISODE_LEN,
            rollout::episode_seed(0xBEEF, r as u64),
        );
        assert!(
            batches_equal(reference, &batch),
            "round {r}: parallel+cached batch diverged from the serial one"
        );
    }
    let cached_secs = t1.map(|t| t.elapsed().as_secs_f64());

    // Publish the headline gauges; the summary sink renders everything
    // (per-pass timing, HLS costs, cache hit rate, worker utilization,
    // and these steps/s numbers) in one table.
    telemetry::set_gauge("bench.env_steps", "", steps as f64);
    telemetry::set_gauge("bench.workers", "", workers as f64);
    if let (Some(s), Some(c)) = (serial_secs, cached_secs) {
        let serial_sps = steps as f64 / s;
        let cached_sps = steps as f64 / c;
        telemetry::set_gauge("bench.serial_steps_per_sec", "", serial_sps);
        telemetry::set_gauge("bench.cached_steps_per_sec", "", cached_sps);
        telemetry::set_gauge("bench.speedup", "", cached_sps / serial_sps);
    }
    cache.publish_telemetry();

    println!("rollout throughput on gsm ({steps} env steps per path, {workers} workers)");
    println!("determinism: all {rounds} parallel batches bit-identical to serial ones");
    telemetry.finish();

    if let Some(floor) = min_speedup_from_args() {
        if inc_speedup < floor {
            eprintln!("FAIL: incremental speedup {inc_speedup:.2}x is below the {floor}x floor");
            std::process::exit(1);
        }
        println!("incremental speedup {inc_speedup:.2}x meets the {floor}x floor");
    }
}
