//! Concurrent cold load for the compile service: `--clients N`
//! closed-loop clients each send never-seen programs (the suite under
//! fresh module names, so every request runs the full policy rollout
//! and both profiles) to one daemon for `--seconds S`.
//!
//! It prints one JSON line: requests answered, throughput, latency
//! percentiles, and the inference engine's batch sizes from `STATS`.
//! Run it at 1, 2 and 4 clients to see how the engine's batching
//! behaves under concurrent rollouts.
//!
//! Usage: `cargo run --release -p autophase-bench --bin cold_clients
//! [-- --clients 4] [--seconds 8]`.

use autophase_core::PhaseOrderEnv;
use autophase_ir::parser::parse_module;
use autophase_ir::printer::print_module;
use autophase_rl::checkpoint::PolicyCheckpoint;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_env_config, serve_layout};
use autophase_serve::protocol::Source;
use autophase_serve::server::{Server, ServerConfig};
use std::time::{Duration, Instant};

const SEED: u64 = 20;
const DEADLINE_MS: u64 = 60_000;

fn arg(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map_or(default, |w| {
        w[1].parse().unwrap_or_else(|e| panic!("{name}: {e}"))
    })
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    sorted_ms[((sorted_ms.len() - 1) as f64 * p).round() as usize]
}

fn main() {
    let clients = arg("--clients", 4.0) as usize;
    let seconds = arg("--seconds", 8.0);
    assert!(clients > 0 && seconds > 0.0, "need clients and seconds");

    // A briefly trained policy under the serving configuration.
    let programs: Vec<_> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    let corpus: Vec<String> = programs.iter().map(print_module).collect();
    let mut env = PhaseOrderEnv::new(programs, serve_env_config());
    let mut agent = PpoAgent::new(
        serve_layout().obs_dim(),
        serve_layout().num_actions(),
        &PpoConfig::small(),
        SEED,
    );
    agent.train(&mut env, 2);
    let policy = PolicyCheckpoint::from_ppo(&agent).policy;

    let store_path = std::env::temp_dir().join(format!(
        "autophase_cold_clients_{}_store.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store_path);
    let server = Server::start(
        policy,
        ServerConfig {
            workers: clients.max(2),
            store_path: store_path.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("daemon starts");
    let addr = server.addr();
    eprintln!("cold_clients: {clients} clients for {seconds} s");

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let corpus = corpus.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to daemon");
                let mut latencies_ms = Vec::new();
                let mut i = 0;
                while Instant::now() < deadline {
                    let mut m = parse_module(&corpus[(t + i) % corpus.len()]).expect("suite IR");
                    m.name = format!("{}__c{t}_{i}", m.name);
                    let ir = print_module(&m);
                    i += 1;
                    let sent = Instant::now();
                    let reply = client
                        .compile(&ir, Some(DEADLINE_MS), false)
                        .unwrap_or_else(|e| panic!("client {t} request {i}: {e}"));
                    assert_eq!(
                        reply.source,
                        Source::Policy,
                        "a cold request missed the policy"
                    );
                    latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client panicked"))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("daemon stats");
    let batches = stats.hist("serve.batch_size", "").expect("batch sizes");
    server.shutdown();
    let _ = std::fs::remove_file(&store_path);

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{{\"clients\": {clients}, \"requests\": {}, \"reqs_per_sec\": {:.1}, \
         \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"batches\": {}, \"mean_batch\": {:.3}, \"max_batch\": {}}}",
        latencies_ms.len(),
        latencies_ms.len() as f64 / secs,
        percentile(&latencies_ms, 0.50),
        percentile(&latencies_ms, 0.90),
        percentile(&latencies_ms, 0.99),
        batches.count,
        batches.sum as f64 / batches.count.max(1) as f64,
        batches.max
    );
}
