//! The `serve_cold` and `serve_mixed` workloads: the compile daemon
//! under closed-loop clients, driven only through the client protocol.
//!
//! Set-up trains a policy under `serve_env_config()`, round-trips it
//! through a checkpoint file, and starts an in-process daemon with
//! `workers = nproc` on a fresh store file. For `serve_mixed` it also
//! seeds a warm set into the store with one cold compile per program.
//!
//! * `serve_cold`: one client sends never-seen programs back to back.
//! * `serve_mixed`: one client replays the warm set while a second
//!   streams never-seen programs; both share the daemon's store.
//!
//! After the measured window, [`score`] sends the fixed quality set as
//! cold requests; their answers give `cycles_vs_o3`.
//!
//! The traced run measures half its time untraced (for the daemon's
//! `STATS` view and the tracing overhead) and half traced. In the traced
//! half every request is followed by an in-process [`Replay`] of the
//! public calls the daemon makes for it, in the daemon's order, each
//! inside a span.

use crate::inputs::{self, mix, Program};
use crate::provenance::{cpu_jiffies, steal_share};
use crate::stats::{geomean_ratio, windowed, Windowed};
use crate::trace::Tracer;
use autophase_core::env::{PhaseOrderEnv, FILTERED_PASSES};
use autophase_core::Quarantine;
use autophase_features::{inst_count_filtered, IncrementalFeatures};
use autophase_hls::profile::profile_module;
use autophase_hls::HlsConfig;
use autophase_ir::fingerprint::fingerprint_module;
use autophase_ir::interp::run_main;
use autophase_ir::parser::parse_module;
use autophase_ir::verify::verify_module;
use autophase_nn::mlp::Mlp;
use autophase_passes::checked::{apply_checked, apply_checked_changeset, FuelBudget};
use autophase_rl::checkpoint::PolicyCheckpoint;
use autophase_rl::env::Environment;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_serve::client::{Client, CompileReply};
use autophase_serve::engine::EngineConfig;
use autophase_serve::store::BestEntry;
use autophase_serve::{
    serve_env_config, serve_layout, BestStore, CompactionPolicy, InferenceEngine, Server,
    ServerConfig, Source, StatsSnapshot,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// PPO iterations of the served policy's training.
pub const TRAIN_ITERS: usize = 8;
/// Episodes per training iteration.
pub const EPISODES_PER_ITER: usize = 16;
/// Never-seen programs available to the cold stream: about twice what
/// the cold path answers in a 20-second window today. A window that
/// exhausts them ends early, for both clients of `serve_mixed`; its
/// rates stay per second of measuring.
pub const COLD: usize = 4000;
/// Programs in the warm set of `serve_mixed`.
pub const WARM: usize = 64;
/// Per-request deadline: generous, so the daemon never refuses on time.
const DEADLINE_MS: u64 = 10_000;
/// One in this many cold replies is re-checked client-side.
const CHECK_EVERY: u64 = 8;
/// At most this many cold replies are re-checked per run.
const MAX_CHECKS: usize = 48;
/// Interpreter budget for the behaviour check.
const RUN_FUEL: u64 = 20_000_000;
/// Sub-windows a measured phase is split into (see `stats::windowed`).
pub const SUB_WINDOWS: usize = 20;

/// A daemon ready to serve, and the inputs to serve it.
pub struct ServeSetup {
    server: Option<Server>,
    dir: PathBuf,
    /// The reloaded policy the daemon serves.
    pub policy: Mlp,
    /// The checkpoint's bytes, to prove set-ups are identical.
    pub ckpt_bytes: Vec<u8>,
    /// The cold stream.
    pub cold: Vec<Program>,
    /// The fixed quality set, sent after the measured window.
    pub quality: Vec<Program>,
    /// `-O3` cycles of the quality set.
    pub quality_o3: Vec<u64>,
    /// The warm set (empty for `serve_cold`).
    pub warm: Vec<Program>,
    /// The daemon's answer to each warm program when it was seeded.
    pub warm_answers: Vec<CompileReply>,
}

impl ServeSetup {
    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("daemon running").addr()
    }

    /// Stop the daemon and delete its files.
    pub fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(client)
}

/// Build inputs, train and checkpoint the policy, start the daemon in
/// `dir` (created fresh), and for `mixed` seed the warm set.
pub fn setup(seed: u64, workers: usize, mixed: bool, dir: &Path) -> Result<ServeSetup, String> {
    let warm_n = if mixed { WARM } else { 0 };
    let train = inputs::training_set(workers);
    let quality = inputs::quality_set(&train, workers);
    let seen: Vec<_> = train.iter().chain(&quality).cloned().collect();
    let mut corpus = inputs::corpus(seed, COLD + warm_n, &seen, workers);
    let warm = inputs::with_ir(corpus.split_off(COLD));
    let cold = inputs::with_ir(corpus);
    let quality_o3 = inputs::o3_references(&quality.iter().collect::<Vec<_>>(), workers);
    let quality = inputs::with_ir(quality);

    let layout = serve_layout();
    let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
        .map(|_| {
            Box::new(PhaseOrderEnv::new(train.clone(), serve_env_config()))
                as Box<dyn Environment + Send>
        })
        .collect();
    let mut agent = PpoAgent::new(
        layout.obs_dim(),
        layout.num_actions(),
        &PpoConfig::small(),
        inputs::AGENT_SEED,
    );
    agent.train_parallel(&mut envs, EPISODES_PER_ITER, TRAIN_ITERS);

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ckpt_path = dir.join("policy.ckpt");
    PolicyCheckpoint::from_ppo(&agent)
        .save(&ckpt_path)
        .map_err(|e| format!("save checkpoint: {e}"))?;
    let ckpt = PolicyCheckpoint::load(&ckpt_path).map_err(|e| format!("load checkpoint: {e}"))?;
    let server = Server::start(
        ckpt.policy.clone(),
        ServerConfig {
            workers,
            store_path: dir.join("store.log"),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut s = ServeSetup {
        server: Some(server),
        dir: dir.to_path_buf(),
        ckpt_bytes: ckpt.to_bytes(),
        policy: ckpt.policy,
        cold,
        quality,
        quality_o3,
        warm,
        warm_answers: Vec::new(),
    };
    if mixed {
        let mut client = connect(s.addr())?;
        for p in &s.warm {
            let reply = client
                .compile(&p.ir, Some(DEADLINE_MS), false)
                .map_err(|e| format!("seeding the warm set: {e}"))?;
            if reply.source != Source::Policy {
                return Err(format!("warm seed answered from {:?}", reply.source));
            }
            s.warm_answers.push(reply);
        }
    }
    Ok(s)
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    /// `(start offset in s, latency in ms)` of each request, offsets from
    /// the start of the phase.
    pub reqs: Vec<(f64, f64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, came from the wrong rung, or failed a check.
    pub failed: u64,
    /// Each cold reply, `None` where the request failed.
    pub replies: Vec<Option<CompileReply>>,
}

impl ClientLog {
    /// Latencies in ms.
    pub fn lat_ms(&self) -> Vec<f64> {
        self.reqs.iter().map(|&(_, l)| l).collect()
    }
}

/// Stream cold programs from `cold` until `deadline` or until the stream
/// runs out, then raise `done`. With a replay, every reply is replayed in
/// process after it arrives, outside the request's latency.
fn cold_client(
    addr: SocketAddr,
    cold: &[Program],
    (start, deadline): (Instant, Instant),
    done: &AtomicBool,
    replay: Option<&Replay>,
) -> Result<ClientLog, String> {
    let out = cold_requests(addr, cold, (start, deadline), replay);
    done.store(true, Ordering::Relaxed);
    out
}

fn cold_requests(
    addr: SocketAddr,
    cold: &[Program],
    (start, deadline): (Instant, Instant),
    replay: Option<&Replay>,
) -> Result<ClientLog, String> {
    let mut client = connect(addr)?;
    let mut log = ClientLog::default();
    for p in cold {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let rid = replay.map(|r| r.next_request());
        let reply = client.compile(&p.ir, Some(DEADLINE_MS), false);
        let answered = Instant::now();
        log.attempted += 1;
        log.reqs.push((
            (sent - start).as_secs_f64(),
            (answered - sent).as_secs_f64() * 1e3,
        ));
        let ok = match reply {
            Ok(reply) if reply.source == Source::Policy => {
                let ok = replay_after(replay, rid, sent, answered, &p.ir, &reply);
                log.replies.push(Some(reply));
                ok
            }
            Ok(reply) => {
                eprintln!("perfbench: cold request answered from {:?}", reply.source);
                log.replies.push(None);
                false
            }
            Err(e) => {
                eprintln!("perfbench: cold request failed: {e}");
                log.replies.push(None);
                false
            }
        };
        log.failed += u64::from(!ok);
    }
    Ok(log)
}

/// With a replay, record the request's span (`sent`..`answered`) and
/// replay it in process; false if the replay disagrees with the daemon.
fn replay_after(
    replay: Option<&Replay>,
    rid: Option<u64>,
    sent: Instant,
    answered: Instant,
    ir: &str,
    reply: &CompileReply,
) -> bool {
    let (Some(r), Some(rid)) = (replay, rid) else {
        return true;
    };
    let parent = r.tracer.record("request", rid, None, sent, answered);
    match r.replay(rid, parent, ir, reply) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: replay disagrees with the daemon: {e}");
            false
        }
    }
}

/// Replay the warm set round-robin until `deadline` or until the cold
/// client is `done`. Every answer must come from the store and match
/// what seeding recorded.
fn warm_client(
    addr: SocketAddr,
    warm: &[Program],
    answers: &[CompileReply],
    (start, deadline): (Instant, Instant),
    done: &AtomicBool,
    replay: Option<&Replay>,
) -> Result<ClientLog, String> {
    let mut client = connect(addr)?;
    let mut log = ClientLog::default();
    for (p, want) in warm.iter().zip(answers).cycle() {
        let sent = Instant::now();
        if sent >= deadline || done.load(Ordering::Relaxed) {
            break;
        }
        let rid = replay.map(|r| r.next_request());
        let reply = client.compile(&p.ir, Some(DEADLINE_MS), false);
        let answered = Instant::now();
        log.attempted += 1;
        log.reqs.push((
            (sent - start).as_secs_f64(),
            (answered - sent).as_secs_f64() * 1e3,
        ));
        let ok = match reply {
            Ok(reply) => {
                let same = reply.source == Source::Store
                    && reply.cycles == want.cycles
                    && reply.passes == want.passes;
                same && replay_after(replay, rid, sent, answered, &p.ir, &reply)
            }
            Err(e) => {
                eprintln!("perfbench: warm request failed: {e}");
                false
            }
        };
        log.failed += u64::from(!ok);
    }
    Ok(log)
}

/// One measured phase: the cold client, for `serve_mixed` the warm
/// client beside it, and the stolen CPU share of each sub-window.
pub struct Phase {
    /// The cold client's log.
    pub cold: ClientLog,
    /// The warm client's log (`serve_mixed` only).
    pub warm: Option<ClientLog>,
    /// Stolen CPU share of each sub-window.
    pub steal: Vec<f64>,
    /// Sub-window length in seconds.
    pub window_secs: f64,
}

impl Phase {
    /// Latency and rate of one of this phase's clients over the quieter
    /// half of the sub-windows.
    pub fn windowed(&self, log: &ClientLog) -> Option<Windowed> {
        windowed(&log.reqs, self.window_secs, &self.steal)
    }
}

/// Run the workload's clients against the daemon for `secs`, streaming
/// cold programs from `cold`.
pub fn measure(
    s: &ServeSetup,
    cold: &[Program],
    secs: f64,
    replay: Option<&Replay>,
) -> Result<Phase, String> {
    let addr = s.addr();
    let start = Instant::now();
    let window = (start, start + Duration::from_secs_f64(secs));
    let len = Duration::from_secs_f64(secs / SUB_WINDOWS as f64);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let steal = scope.spawn(|| sample_steal(start, len, &done));
        let warm = (!s.warm.is_empty()).then(|| {
            scope.spawn(|| warm_client(addr, &s.warm, &s.warm_answers, window, &done, replay))
        });
        let cold = cold_client(addr, cold, window, &done, replay);
        let warm = match warm {
            Some(h) => Some(h.join().map_err(|_| "warm client panicked".to_string())??),
            None => None,
        };
        Ok(Phase {
            cold: cold?,
            warm,
            steal: steal
                .join()
                .map_err(|_| "steal sampler panicked".to_string())?,
            window_secs: len.as_secs_f64(),
        })
    })
}

/// The stolen CPU share of each of [`SUB_WINDOWS`] windows of `len`
/// from `start`. Stops when the clients are `done`; windows not reached
/// then read 1 (fully stolen), so they rank last.
fn sample_steal(start: Instant, len: Duration, done: &AtomicBool) -> Vec<f64> {
    let mut out = Vec::with_capacity(SUB_WINDOWS);
    let mut prev = cpu_jiffies();
    for k in 1..=SUB_WINDOWS as u32 {
        let boundary = start + len * k;
        loop {
            let now = Instant::now();
            if now >= boundary || done.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep((boundary - now).min(Duration::from_millis(50)));
        }
        let cur = cpu_jiffies();
        out.push(steal_share(prev, cur));
        prev = cur;
        if done.load(Ordering::Relaxed) {
            break;
        }
    }
    out.resize(SUB_WINDOWS, 1.0);
    out
}

/// The daemon's own view: its `STATS` reply.
pub fn daemon_stats(s: &ServeSetup) -> Result<StatsSnapshot, String> {
    connect(s.addr())?
        .stats()
        .map_err(|e| format!("STATS: {e}"))
}

/// Send the quality set as cold requests and score the answers against
/// `-O3`. Returns `(cycles_vs_o3, attempted, failed)`; every answer must
/// come from the policy and pass the output check.
pub fn score(s: &ServeSetup) -> Result<(f64, u64, u64), String> {
    let mut client = connect(s.addr())?;
    let mut pairs = Vec::with_capacity(s.quality.len());
    let mut failed = 0;
    for (p, &o3) in s.quality.iter().zip(&s.quality_o3) {
        let reply = client.compile(&p.ir, Some(DEADLINE_MS), false);
        let ok = match reply {
            Ok(r) if r.source == Source::Policy => {
                let checked = check_reply(p, &r);
                if let Err(e) = &checked {
                    eprintln!("perfbench: output check failed on a quality program: {e}");
                }
                pairs.push((r.cycles, o3));
                checked.is_ok()
            }
            Ok(r) => {
                eprintln!("perfbench: quality program answered from {:?}", r.source);
                false
            }
            Err(e) => {
                eprintln!("perfbench: quality request failed: {e}");
                false
            }
        };
        failed += u64::from(!ok);
    }
    if pairs.is_empty() {
        return Err("no quality program was answered".into());
    }
    Ok((geomean_ratio(&pairs), s.quality.len() as u64, failed))
}

/// Re-check a seeded sample of cold replies client-side: replaying the
/// returned ordering must reproduce the reported cycles and baseline,
/// and the optimized program must behave like the input. Returns
/// `(checked, failed)`.
pub fn check_sample(seed: u64, cold: &[Program], replies: &[Option<CompileReply>]) -> (u64, u64) {
    let mut checked = 0;
    let mut failed = 0;
    for (i, (p, r)) in cold.iter().zip(replies).enumerate() {
        if checked as usize >= MAX_CHECKS {
            break;
        }
        if !mix(seed ^ (i as u64).wrapping_mul(0x9E37)).is_multiple_of(CHECK_EVERY) {
            continue;
        }
        let Some(reply) = r else { continue };
        checked += 1;
        if let Err(e) = check_reply(p, reply) {
            eprintln!("perfbench: output check failed on cold request {i}: {e}");
            failed += 1;
        }
    }
    (checked, failed)
}

fn daemon_hls() -> HlsConfig {
    HlsConfig::default().with_profile_fuel(ServerConfig::default().profile_fuel)
}

fn check_reply(p: &Program, reply: &CompileReply) -> Result<(), String> {
    let input = parse_module(&p.ir).map_err(|e| e.to_string())?;
    let mut m = input.clone();
    let fuel = FuelBudget::default();
    for &pass in &reply.passes {
        apply_checked(&mut m, pass, &fuel).map_err(|e| format!("pass {pass}: {e:?}"))?;
    }
    let hls = daemon_hls();
    let cycles = profile_module(&m, &hls).map_err(|e| e.to_string())?.cycles;
    let base = profile_module(&input, &hls)
        .map_err(|e| e.to_string())?
        .cycles;
    if (cycles, base) != (reply.cycles, reply.baseline_cycles) {
        return Err(format!(
            "replayed cycles {cycles} (baseline {base}), reply says {} (baseline {})",
            reply.cycles, reply.baseline_cycles
        ));
    }
    let before = run_main(&input, RUN_FUEL).map_err(|e| e.to_string())?;
    let after = run_main(&m, RUN_FUEL).map_err(|e| e.to_string())?;
    if before.observable() != after.observable() {
        return Err(format!(
            "behaviour changed: {:?} -> {:?}",
            before.observable(),
            after.observable()
        ));
    }
    Ok(())
}

/// Counters the replay aggregates across requests.
#[derive(Default, Clone, Copy)]
pub struct ReplayCounters {
    /// Forward passes the standalone engine reported.
    pub infer_calls: u64,
    /// Largest batch any replayed rollout was served in.
    pub batch_max: u32,
    /// Pass applications replayed.
    pub applies: u64,
    /// Of those, the ones that changed the module.
    pub changed: u64,
}

/// The traced run's in-process mirror of the daemon's request pipeline:
/// a standalone engine with the default config and the same policy, a
/// store beside the daemon's, and the daemon's HLS and fuel settings.
pub struct Replay {
    /// Where the spans go.
    pub tracer: Arc<Tracer>,
    engine: InferenceEngine,
    policy: Mlp,
    store: Mutex<BestStore>,
    quarantine: Quarantine,
    fuel: FuelBudget,
    hls: HlsConfig,
    next: AtomicU64,
    counters: Mutex<ReplayCounters>,
}

impl Replay {
    /// A replay mirror whose store lives in `dir` and already holds the
    /// warm set's seeded answers, as the daemon's does.
    pub fn new(tracer: Arc<Tracer>, s: &ServeSetup, dir: &Path) -> Result<Replay, String> {
        let engine = InferenceEngine::start(s.policy.clone(), EngineConfig::default())
            .map_err(|e| e.to_string())?;
        let mut store =
            BestStore::open_with(&dir.join("replay-store.log"), CompactionPolicy::default())
                .map_err(|e| format!("replay store: {e}"))?;
        for (p, a) in s.warm.iter().zip(&s.warm_answers) {
            let entry = BestEntry {
                cycles: a.cycles,
                baseline_cycles: a.baseline_cycles,
                seq: a.passes.iter().map(|&x| x as u16).collect(),
            };
            store
                .record(fingerprint_module(&p.module), entry)
                .map_err(|e| format!("replay store: {e}"))?;
        }
        Ok(Replay {
            tracer,
            engine,
            policy: s.policy.clone(),
            store: Mutex::new(store),
            quarantine: Quarantine::default(),
            fuel: FuelBudget::default(),
            hls: daemon_hls(),
            next: AtomicU64::new(1),
            counters: Mutex::new(ReplayCounters::default()),
        })
    }

    fn next_request(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Aggregated counters so far.
    pub fn counters(&self) -> ReplayCounters {
        *self.counters.lock().unwrap()
    }

    /// Compactions the replay store has run.
    pub fn compactions(&self) -> u64 {
        self.store.lock().unwrap().stats().compactions
    }

    /// Repeat the daemon's calls for one request (parse, store, and on a
    /// miss baseline profile, rollout, profile, record), then replay the
    /// rollout's inner layers. Errors if the replay disagrees with the
    /// daemon's reply.
    fn replay(&self, rid: u64, parent: u64, ir: &str, reply: &CompileReply) -> Result<(), String> {
        let tr = &self.tracer;
        let root = tr.reserve();
        let start = Instant::now();
        let at = Some(root);
        let m = tr.time("ir.parse_ns", rid, at, || {
            let m = parse_module(ir).map_err(|e| e.to_string())?;
            verify_module(&m).map_err(|e| e.to_string())?;
            Ok::<_, String>(m)
        })?;
        let fp = tr.time("core.fingerprint_ns", rid, at, || fingerprint_module(&m));
        let hit = tr.time("store.lookup_ns", rid, at, || {
            self.store.lock().unwrap().lookup(fp).cloned()
        });
        if let Some(entry) = hit {
            tr.record_ns(
                root,
                "replay",
                rid,
                Some(parent),
                tr.at(start),
                tr.at(Instant::now()),
            );
            let passes: Vec<usize> = entry.seq.iter().map(|&p| p as usize).collect();
            return if reply.source == Source::Store
                && entry.cycles == reply.cycles
                && passes == reply.passes
            {
                Ok(())
            } else {
                Err(format!(
                    "store hit in replay, daemon answered {:?}",
                    reply.source
                ))
            };
        }
        if reply.source != Source::Policy {
            return Err(format!(
                "store miss in replay, daemon answered {:?}",
                reply.source
            ));
        }
        let base = tr
            .time("hls.baseline_profile_ns", rid, at, || {
                profile_module(&m, &self.hls)
            })
            .map_err(|e| e.to_string())?
            .cycles;
        let mut opt = m.clone();
        let report = tr
            .time("engine.rollout_ns", rid, at, || {
                self.engine
                    .choose_sequence_report(&mut opt, fp, &self.quarantine, &self.fuel)
            })
            .map_err(|e| e.to_string())?;
        let cycles = tr
            .time("hls.final_profile_ns", rid, at, || {
                profile_module(&opt, &self.hls)
            })
            .map_err(|e| e.to_string())?
            .cycles;
        let entry = BestEntry {
            cycles,
            baseline_cycles: base,
            seq: report.applied.iter().map(|&p| p as u16).collect(),
        };
        tr.time("store.record_ns", rid, at, || {
            self.store.lock().unwrap().record(fp, entry)
        })
        .map_err(|e| format!("replay record: {e}"))?;
        tr.record_ns(
            root,
            "replay",
            rid,
            Some(parent),
            tr.at(start),
            tr.at(Instant::now()),
        );
        if report.applied != reply.passes || cycles != reply.cycles || base != reply.baseline_cycles
        {
            return Err(format!(
                "replay chose {:?} for {cycles} cycles, daemon {:?} for {}",
                report.applied, reply.passes, reply.cycles
            ));
        }
        tr.value("engine.infer_wait_ns", rid, report.infer_wait_ns as f64);
        self.replay_layers(rid, root, &m, &report.steps, &opt)?;
        let mut c = self.counters.lock().unwrap();
        c.infer_calls += u64::from(report.infer_calls);
        c.batch_max = c.batch_max.max(report.infer_batch_max);
        Ok(())
    }

    /// Replay the rollout's observations through the policy network and
    /// its chosen passes through the checked apply and the incremental
    /// feature resync, one span per call. The result must be the module
    /// the engine produced.
    fn replay_layers(
        &self,
        rid: u64,
        parent: u64,
        input: &autophase_ir::Module,
        steps: &[autophase_rl::online::ExperienceStep],
        expect: &autophase_ir::Module,
    ) -> Result<(), String> {
        let tr = &self.tracer;
        let at = Some(parent);
        let mut m = input.clone();
        let mut inc = tr.time("features.resync_ns", rid, at, || {
            let inc = IncrementalFeatures::new(&m);
            std::hint::black_box(inst_count_filtered(&inc.total()));
            inc
        });
        let (mut applies, mut changed) = (0, 0);
        for step in steps {
            std::hint::black_box(
                tr.time("nn.forward_ns", rid, at, || self.policy.forward(&step.obs)),
            );
            let pass = FILTERED_PASSES[step.action];
            let out = tr.time("passes.apply_ns", rid, at, || {
                apply_checked_changeset(&mut m, pass, &self.fuel)
            });
            applies += 1;
            if let Ok((true, cs)) = out {
                changed += 1;
                tr.time("features.resync_ns", rid, at, || {
                    if cs.needs_full_rebuild() {
                        inc.rebuild(&m);
                    } else {
                        inc.update(&m, &cs.dirty_funcs);
                    }
                    std::hint::black_box(inst_count_filtered(&inc.total()));
                });
            }
        }
        let mut c = self.counters.lock().unwrap();
        c.applies += applies;
        c.changed += changed;
        if fingerprint_module(&m) != fingerprint_module(expect) {
            return Err("layer replay produced a different module".into());
        }
        Ok(())
    }
}
