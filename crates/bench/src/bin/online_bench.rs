//! Online-learning drill for the compile service: measure what the
//! in-daemon learner actually buys, and what a live policy hot-swap
//! actually costs.
//!
//! Three phases against real daemons:
//!
//! 1. **Online improvement** — a daemon boots on a *random* policy with
//!    the learner on (`auto_promote`). An unseen mini-corpus (the suite
//!    programs under fresh module names) is compiled once before any
//!    swap ("pre"), the learner trains on streamed experience until it
//!    has published and auto-promoted at least one version, and the
//!    same corpus — renamed again, so every fingerprint is fresh — is
//!    compiled "post". Per-program cycle deltas and the daemon's own
//!    per-version improvement-over-`-O3` accounting are reported.
//! 2. **Swap drill** — four background clients hammer cold compiles
//!    while the admin client performs 20 `PROMOTE` round-trips
//!    alternating two healthy versions. Headline: swap-latency p99 and
//!    **zero** dropped or failed background requests across all swaps.
//! 3. **Corrupt-candidate leg** — `CHAOS swap=1` destroys the next
//!    candidate's bytes mid-promotion; the promotion must refuse, the
//!    candidate quarantines, and the background load keeps answering.
//!
//! Results land in `BENCH_online.json`. Usage:
//! `cargo run --release -p autophase-bench --bin online_bench
//! [-- --smoke]` (`--smoke`: shorter training deadline, for CI).

use autophase_bench::{TelemetryMode, TelemetrySession};
use autophase_ir::printer::print_module;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_rl::checkpoint::{Algo, PolicyCheckpoint};
use autophase_rl::registry::ModelRegistry;
use autophase_serve::client::Client;
use autophase_serve::engine::serve_layout;
use autophase_serve::learner::LearnerConfig;
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::SERVE_EPISODE_LEN;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0B11_BEEF;
const DEADLINE_MS: u64 = 60_000;
const SWAPS: usize = 20;
const WORKERS: usize = 4;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_online_bench_{}_{name}",
        std::process::id()
    ))
}

fn wipe(path: &PathBuf) {
    let _ = std::fs::remove_dir_all(path);
    let _ = std::fs::remove_file(path);
}

/// The unseen mini-corpus: the paper suite as wire IR. Every phase
/// renames these, so the daemon never sees a fingerprint twice.
fn corpus() -> Vec<String> {
    autophase_benchmarks::suite()
        .into_iter()
        .map(|b| print_module(&b.module))
        .collect()
}

fn renamed(ir: &str, tag: &str) -> String {
    let mut m = autophase_ir::parser::parse_module(ir).expect("corpus IR parses");
    m.name = format!("{}__{tag}", m.name);
    print_module(&m)
}

fn random_policy(seed: u64) -> Mlp {
    Mlp::new(
        &[serve_layout().obs_dim(), 32, serve_layout().num_actions()],
        Activation::Tanh,
        seed,
    )
}

fn healthy_ckpt(seed: u64) -> PolicyCheckpoint {
    PolicyCheckpoint {
        algo: Algo::Ppo,
        policy: random_policy(seed),
        value: Mlp::new(
            &[serve_layout().obs_dim(), 8, 1],
            Activation::Tanh,
            seed ^ 0xF00,
        ),
    }
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect to daemon");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    client
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Compile every corpus program under fresh names; return per-program
/// cycles (in corpus order).
fn compile_round(client: &mut Client, corpus: &[String], tag: &str) -> Vec<u64> {
    corpus
        .iter()
        .enumerate()
        .map(|(i, ir)| {
            let reply = client
                .compile(&renamed(ir, &format!("{tag}{i}")), Some(DEADLINE_MS), false)
                .unwrap_or_else(|e| panic!("{tag} p{i}: compile failed: {e}"));
            reply.cycles
        })
        .collect()
}

/// Phase 1: the learner closes the loop on a live daemon. Returns
/// (pre cycles, post cycles, swaps, per-version JSON fragments).
#[allow(clippy::type_complexity)]
fn improvement_phase(train_deadline: Duration) -> (Vec<u64>, Vec<u64>, u64, Vec<String>) {
    let store = tmp_path("learn.log");
    let registry_dir = tmp_path("learn_registry");
    wipe(&store);
    wipe(&registry_dir);
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        learner: Some(LearnerConfig {
            min_batch: SERVE_EPISODE_LEN,
            publish_every: 1,
            auto_promote: true,
            ..LearnerConfig::default()
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(random_policy(SEED), cfg).expect("learner daemon starts");
    let mut client = connect(server.addr());
    let corpus = corpus();

    eprintln!(
        "online_bench: phase 1 — pre-swap compile of {} unseen programs",
        corpus.len()
    );
    let pre = compile_round(&mut client, &corpus, "pre");

    eprintln!("online_bench: training on streamed experience until auto-promotion");
    let deadline = Instant::now() + train_deadline;
    let mut round = 0u32;
    loop {
        if Instant::now() >= deadline {
            eprintln!("online_bench: WARNING — no auto-promotion within the deadline");
            break;
        }
        let _ = compile_round(&mut client, &corpus, &format!("tr{round}_"));
        round += 1;
        let snap = client.models().expect("MODEL answers");
        if snap.serving.is_some_and(|v| v > 0) {
            break;
        }
    }

    eprintln!("online_bench: post-swap compile of the corpus under fresh fingerprints");
    let post = compile_round(&mut client, &corpus, "post");

    let snap = client.models().expect("MODEL answers");
    let versions: Vec<String> = snap
        .versions
        .iter()
        .filter(|v| v.requests > 0)
        .map(|v| {
            format!(
                "{{ \"version\": {}, \"samples\": {}, \"requests\": {}, \"wins\": {}, \
                 \"store_inserts\": {}, \"mean_improvement_vs_o3\": {:.6} }}",
                v.version, v.samples, v.requests, v.wins, v.store_inserts, v.mean_improvement
            )
        })
        .collect();
    let swaps = snap.swaps;
    assert!(swaps >= 1, "learner must have hot-swapped at least once");

    server.shutdown();
    wipe(&store);
    wipe(&registry_dir);
    (pre, post, swaps, versions)
}

/// Phases 2+3: swap latency under live load, then the corrupt-candidate
/// leg. Returns (sorted swap latencies ms, answered, quarantined path
/// existed).
fn swap_drill() -> (Vec<f64>, u64, bool) {
    let store = tmp_path("swap.log");
    let registry_dir = tmp_path("swap_registry");
    wipe(&store);
    wipe(&registry_dir);
    {
        let mut reg = ModelRegistry::open(&registry_dir).expect("registry opens");
        reg.publish(&healthy_ckpt(1), 100, 1).expect("publish v1");
        reg.publish(&healthy_ckpt(2), 200, 2).expect("publish v2");
        reg.publish(&healthy_ckpt(3), 300, 3).expect("publish v3");
    }
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        admin: true,
        chaos: true,
        ..ServerConfig::default()
    };
    let server = Server::start(random_policy(SEED), cfg).expect("swap daemon starts");
    let addr = server.addr();

    // Background load: cold compiles only (fresh names per iteration),
    // so every request crosses the engine while swaps land.
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let corpus = corpus();
                let mut client = connect(addr);
                let mut it = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (i, ir) in corpus.iter().enumerate() {
                        let fresh = renamed(ir, &format!("w{w}i{it}p{i}"));
                        client
                            .compile(&fresh, Some(DEADLINE_MS), false)
                            .unwrap_or_else(|e| {
                                panic!("worker {w} iter {it} p{i}: request dropped: {e}")
                            });
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    it += 1;
                }
            })
        })
        .collect();

    eprintln!("online_bench: phase 2 — {SWAPS} PROMOTE round-trips under {WORKERS} live clients");
    let mut admin = connect(addr);
    let mut latencies_ms = Vec::with_capacity(SWAPS);
    for s in 0..SWAPS {
        let v = 1 + (s as u64 & 1); // alternate v1 / v2
        let t = Instant::now();
        admin
            .promote(v)
            .unwrap_or_else(|e| panic!("swap {s} to v{v} failed: {e}"));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::thread::sleep(Duration::from_millis(5));
    }

    eprintln!("online_bench: phase 3 — corrupt candidate injected mid-promotion");
    admin.chaos_swap(1).expect("arm swap corruption");
    assert!(
        admin.promote(3).is_err(),
        "corrupt candidate must refuse promotion"
    );
    let quarantined = registry_dir.join("v3.ckpt.quarantined").exists();
    assert!(
        quarantined,
        "corrupt candidate must quarantine for forensics"
    );
    // The old policy is still the one serving: the drill's own probe.
    let snap = admin.models().expect("MODEL answers");
    assert_eq!(
        snap.serving,
        Some(2),
        "corruption must not change the serving version"
    );

    // Let the load run a beat past the failed promotion, then stop.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker thread survives the drill");
    }
    let answered = answered.load(Ordering::Relaxed);
    assert!(answered > 0, "background load must have run");

    server.shutdown();
    wipe(&store);
    wipe(&registry_dir);
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (latencies_ms, answered, quarantined)
}

fn main() {
    let telemetry = TelemetrySession::start_with_default("online_bench", TelemetryMode::Summary);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let train_deadline = Duration::from_secs(if smoke { 20 } else { 120 });

    let (pre, post, learn_swaps, versions) = improvement_phase(train_deadline);
    let improved = pre.iter().zip(&post).filter(|(a, b)| b < a).count();
    let regressed = pre.iter().zip(&post).filter(|(a, b)| b > a).count();
    let ties = pre.len() - improved - regressed;
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    eprintln!(
        "online_bench: online learning over {} programs: {improved} improved, {ties} unchanged, \
         {regressed} regressed (mean cycles {:.0} -> {:.0}, {learn_swaps} hot-swaps)",
        pre.len(),
        mean(&pre),
        mean(&post),
    );

    let (latencies_ms, answered, quarantined) = swap_drill();
    let p99 = percentile(&latencies_ms, 0.99);
    let p50 = percentile(&latencies_ms, 0.50);
    eprintln!(
        "online_bench: {SWAPS} hot-swaps under load: p50 {p50:.2} ms, p99 {p99:.2} ms; \
         {answered} background requests answered, 0 dropped; corrupt candidate quarantined"
    );

    let fmt_u64 = |v: &[u64]| {
        v.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"benchmark\": \"online_bench\",\n  \"smoke\": {smoke},\n  \
         \"online_learning\": {{\n    \"programs\": {},\n    \
         \"pre_swap_cycles\": [{}],\n    \"post_swap_cycles\": [{}],\n    \
         \"improved_programs\": {improved},\n    \"unchanged_programs\": {ties},\n    \
         \"regressed_programs\": {regressed},\n    \"pre_mean_cycles\": {:.1},\n    \
         \"post_mean_cycles\": {:.1},\n    \"hot_swaps\": {learn_swaps},\n    \
         \"versions\": [{}]\n  }},\n  \
         \"swap_drill\": {{\n    \"promotions\": {SWAPS},\n    \
         \"background_workers\": {WORKERS},\n    \
         \"background_requests_answered\": {answered},\n    \
         \"background_requests_dropped\": 0,\n    \
         \"swap_p50_ms\": {p50:.3},\n    \"swap_p99_ms\": {p99:.3},\n    \
         \"corrupt_candidate_refused\": true,\n    \
         \"corrupt_candidate_quarantined\": {quarantined}\n  }}\n}}\n",
        pre.len(),
        fmt_u64(&pre),
        fmt_u64(&post),
        mean(&pre),
        mean(&post),
        versions.join(", "),
    );
    print!("{json}");
    match std::fs::write("BENCH_online.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_online.json"),
        Err(e) => eprintln!("could not write BENCH_online.json: {e}"),
    }
    telemetry.finish();
}
