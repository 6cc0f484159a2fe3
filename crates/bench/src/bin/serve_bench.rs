//! Load generator for the compile service (`autophase-serve`).
//!
//! One run tells the whole serving story end to end:
//!
//! 1. **Train** a small PPO policy under the serving configuration
//!    (`serve_env_config()`), checkpoint it, and reload it — the daemon
//!    runs off the reloaded weights, so the save/load path is on the
//!    critical path of every number below.
//! 2. **Seed** the store with one cold compile per corpus program.
//! 3. **Warm phase** — concurrent clients replay the corpus; every
//!    answer must come from the persistent store. Headline:
//!    `warm_reqs_per_sec` (target: ≥ 5k req/s).
//! 4. **Cold phase** — every request is a program the store has never
//!    seen (fresh fingerprints via module renaming), so every answer
//!    runs the full policy path: batched inference rollout plus two
//!    profiles. Headline: `cold_p99_ms` (target: < 100 ms at
//!    `--scale medium`).
//! 5. **Chaos phase** — injected policy faults mid-load; every request
//!    must still be answered (degraded to the baseline ordering), with
//!    zero errors.
//!
//! Results land in `BENCH_serve.json`; the server's own telemetry
//! (queue depth, per-stage latency, store hit rate, batch sizes) renders
//! through `--telemetry summary` (the default here).
//!
//! Usage: `cargo run --release -p autophase-bench --bin serve_bench
//! [-- --scale small|medium|paper] [--telemetry summary|jsonl|prom|off]`.

use autophase_bench::{Scale, TelemetryMode, TelemetrySession};
use autophase_core::PhaseOrderEnv;
use autophase_ir::printer::print_module;
use autophase_rl::checkpoint::PolicyCheckpoint;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_env_config, serve_layout};
use autophase_serve::protocol::Source;
use autophase_serve::server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 20;
/// Generous per-request deadline: the bench measures latency honestly
/// rather than engineering drops, and "zero dropped in-deadline
/// requests" is an assertion, not an aspiration.
const DEADLINE_MS: u64 = 10_000;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_serve_bench_{}_{name}",
        std::process::id()
    ))
}

/// The corpus: the paper's nine-benchmark suite, as wire-format IR.
fn corpus() -> Vec<(String, String)> {
    autophase_benchmarks::suite()
        .into_iter()
        .map(|b| (b.name.to_string(), print_module(&b.module)))
        .collect()
}

/// `program` with a fresh module name — a fresh fingerprint, so the
/// store treats it as never seen while the compile work is unchanged.
fn renamed(ir: &str, tag: &str) -> String {
    let mut m = autophase_ir::parser::parse_module(ir).expect("corpus IR parses");
    m.name = format!("{}__{tag}", m.name);
    print_module(&m)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect to daemon");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    client
}

fn main() {
    let telemetry = TelemetrySession::start_with_default("serve_bench", TelemetryMode::Summary);
    let scale = Scale::from_args();

    // ---- 1. Train under the serving configuration, checkpoint, reload.
    let train_iters = scale.pick(2, 10, 60);
    let programs: Vec<_> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    let mut env = PhaseOrderEnv::new(programs, serve_env_config());
    let mut agent = PpoAgent::new(
        serve_layout().obs_dim(),
        serve_layout().num_actions(),
        &PpoConfig::small(),
        SEED,
    );
    eprintln!("serve_bench: training PPO for {train_iters} iterations under serve_env_config()");
    let t0 = Instant::now();
    let curve = agent.train(&mut env, train_iters);
    let train_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "serve_bench: trained in {train_secs:.1}s (reward {:.3} -> {:.3})",
        curve.first().copied().unwrap_or(0.0),
        curve.last().copied().unwrap_or(0.0)
    );

    let ckpt_path = tmp_path("policy.ckpt");
    PolicyCheckpoint::from_ppo(&agent)
        .save(&ckpt_path)
        .expect("save checkpoint");
    let policy = PolicyCheckpoint::load(&ckpt_path)
        .expect("reload checkpoint")
        .policy;

    // ---- Daemon, chaos-capable, on a fresh store.
    let store_path = tmp_path("store.log");
    let _ = std::fs::remove_file(&store_path);
    let server = Server::start(
        policy,
        ServerConfig {
            store_path: store_path.clone(),
            chaos: true,
            workers: 8,
            queue_cap: 256,
            ..ServerConfig::default()
        },
    )
    .expect("daemon starts");
    let addr = server.addr();
    let corpus = corpus();

    // ---- 2. Seed: one cold compile per program populates the store.
    {
        let mut client = connect(addr);
        for (name, ir) in &corpus {
            let reply = client
                .compile(ir, Some(DEADLINE_MS), false)
                .unwrap_or_else(|e| panic!("seeding {name}: {e}"));
            assert_eq!(reply.source, Source::Policy, "{name} seeded twice?");
        }
    }
    assert_eq!(server.store_len(), corpus.len());

    // ---- 3. Warm phase: concurrent clients, every answer off the store.
    let warm_threads = 8usize;
    let warm_reqs_per_thread = scale.pick(100, 1500, 10_000);
    eprintln!("serve_bench: warm phase, {warm_threads} clients x {warm_reqs_per_thread} requests");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..warm_threads)
        .map(|t| {
            let corpus = corpus.clone();
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let mut non_store = 0usize;
                for i in 0..warm_reqs_per_thread {
                    let (name, ir) = &corpus[(t + i) % corpus.len()];
                    let reply = client
                        .compile(ir, Some(DEADLINE_MS), false)
                        .unwrap_or_else(|e| panic!("warm {name}: {e}"));
                    if reply.source != Source::Store {
                        non_store += 1;
                    }
                }
                non_store
            })
        })
        .collect();
    let mut warm_non_store = 0usize;
    for h in handles {
        warm_non_store += h.join().expect("warm client panicked");
    }
    let warm_secs = t0.elapsed().as_secs_f64();
    let warm_total = warm_threads * warm_reqs_per_thread;
    let warm_rps = warm_total as f64 / warm_secs;
    assert_eq!(warm_non_store, 0, "warm request missed the store");
    eprintln!("serve_bench: warm {warm_total} requests in {warm_secs:.2}s = {warm_rps:.0} req/s");

    // ---- 4. Cold phase: unique fingerprints, full policy path, p99.
    let cold_reqs = scale.pick(30, 300, 2000);
    eprintln!("serve_bench: cold phase, {cold_reqs} never-seen programs");
    let mut client = connect(addr);
    let mut latencies_ms = Vec::with_capacity(cold_reqs);
    for i in 0..cold_reqs {
        let (_, ir) = &corpus[i % corpus.len()];
        let fresh = renamed(ir, &format!("cold{i}"));
        let t = Instant::now();
        let reply = client
            .compile(&fresh, Some(DEADLINE_MS), false)
            .unwrap_or_else(|e| panic!("cold {i}: {e}"));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(reply.source, Source::Policy, "cold {i} was not cold");
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cold_p50 = percentile(&latencies_ms, 0.50);
    let cold_p99 = percentile(&latencies_ms, 0.99);
    eprintln!("serve_bench: cold p50 {cold_p50:.2} ms, p99 {cold_p99:.2} ms");

    // ---- 5. Chaos phase: faults mid-load, zero errors.
    let chaos_reqs = scale.pick(10, 100, 500);
    client.chaos(chaos_reqs as u32).expect("arm chaos");
    let mut baseline_answers = 0usize;
    for i in 0..chaos_reqs {
        let (_, ir) = &corpus[i % corpus.len()];
        let fresh = renamed(ir, &format!("chaos{i}"));
        let reply = client
            .compile(&fresh, Some(DEADLINE_MS), false)
            .unwrap_or_else(|e| panic!("chaos {i} dropped: {e}"));
        if reply.source == Source::Baseline {
            baseline_answers += 1;
        }
    }
    assert!(baseline_answers > 0, "chaos faults never reached a request");
    eprintln!(
        "serve_bench: chaos {chaos_reqs} requests, {baseline_answers} degraded to baseline, 0 dropped"
    );

    // Per-stage latency breakdown, straight off the daemon's STATS verb:
    // the before/after baseline future inference/profiling work will be
    // measured against.
    let stage_ns = autophase_bench::stage_breakdown_json(&client.stats().expect("daemon stats"));

    let store_len = server.store_len();
    server.shutdown();
    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(&ckpt_path);

    let corpus_names: Vec<String> = corpus.iter().map(|(n, _)| format!("\"{n}\"")).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"serve_bench\",\n  \"scale\": \"{scale:?}\",\n  \
         \"corpus\": [{}],\n  \"train_iters\": {train_iters},\n  \"train_secs\": {train_secs:.1},\n  \
         \"warm\": {{ \"clients\": {warm_threads}, \"requests\": {warm_total}, \"secs\": {warm_secs:.3}, \
         \"reqs_per_sec\": {warm_rps:.0}, \"store_misses\": {warm_non_store} }},\n  \
         \"cold\": {{ \"requests\": {cold_reqs}, \"p50_ms\": {cold_p50:.2}, \"p99_ms\": {cold_p99:.2} }},\n  \
         \"chaos\": {{ \"requests\": {chaos_reqs}, \"degraded_to_baseline\": {baseline_answers}, \"dropped\": 0 }},\n  \
         \"stage_ns\": {stage_ns},\n  \
         \"store_entries_final\": {store_len}\n}}\n",
        corpus_names.join(", ")
    );
    print!("{json}");
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
    telemetry.finish();
}
