//! The `train` workload: the paper's PPO loop, in process.
//!
//! Set-up builds the fixed training and quality sets (see `inputs`), the
//! quality set's `-O3` references, and a held-out set from `--seed`.
//! One measured round then trains a fresh agent with
//! `PpoAgent::train_parallel` over `nproc` `PhaseOrderEnv`s under
//! `serve_env_config()` for a fixed number of iterations, and rolls the
//! greedy policy out on every quality program (giving `cycles_vs_o3`) and
//! on one slice of the held-out programs (giving the latency of answering
//! an unseen program in process; rounds take the slices in turn). Rounds
//! repeat until the run's time is up. Every round starts from the same
//! seed, so every round must reproduce the first one's reward curve and
//! cycles bit for bit; a round that does not counts as failed.
//!
//! The traced round wraps each environment in [`TimedEnv`], which only
//! forwards calls and times them. The collect and update phases of each
//! iteration are derived from those spans: `train_parallel` resets every
//! episode with its global index, so each env call is attributed to
//! iteration `episode / EPISODES_PER_ITER`; an iteration's collect phase
//! runs from its first env call to its last, and its update phase from
//! there to the next iteration's first env call (or the end of the run).

use crate::inputs;
use crate::provenance::{cpu_jiffies, steal_share};
use crate::stats::geomean_ratio;
use crate::trace::{self_time, Tracer};
use autophase_core::env::PhaseOrderEnv;
use autophase_ir::Module;
use autophase_rl::env::{Environment, StepResult};
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_serve::{serve_env_config, serve_layout};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Held-out programs the greedy rollout latency is measured on, per round.
pub const HELDOUT_PER_ROUND: usize = 128;
/// Rounds cycle through this many disjoint held-out slices, so a run's
/// latency figures rest on up to `HELDOUT_PER_ROUND × HELDOUT_SLICES`
/// distinct programs rather than on one small sample of the seed's.
pub const HELDOUT_SLICES: usize = 8;
/// Episodes collected per PPO iteration.
pub const EPISODES_PER_ITER: usize = 16;
/// PPO iterations per round.
pub const ITERS: usize = 16;

/// Everything a round needs, built by [`setup`].
pub struct TrainSetup {
    train: Vec<Module>,
    quality: Vec<Module>,
    quality_o3: Vec<u64>,
    heldout: Vec<Module>,
    workers: usize,
}

impl TrainSetup {
    /// The quality set's `-O3` references.
    pub fn quality_o3(&self) -> Vec<u64> {
        self.quality_o3.clone()
    }
}

/// Build the inputs and the quality set's `-O3` references.
pub fn setup(seed: u64, workers: usize) -> TrainSetup {
    let train = inputs::training_set(workers);
    let quality = inputs::quality_set(&train, workers);
    let seen: Vec<Module> = train.iter().chain(&quality).cloned().collect();
    let heldout = inputs::corpus(seed, HELDOUT_PER_ROUND * HELDOUT_SLICES, &seen, workers);
    let quality_o3 = inputs::o3_references(&quality.iter().collect::<Vec<_>>(), workers);
    TrainSetup {
        train,
        quality,
        quality_o3,
        heldout,
        workers,
    }
}

/// Environment counters a traced round reads back.
#[derive(Default, Clone, Copy)]
pub struct EnvCounters {
    /// Steps taken.
    pub steps: u64,
    /// Cycle-profiler runs (`PhaseOrderEnv::samples`).
    pub samples: u64,
    /// Snapshot-memo hits (`PhaseOrderEnv::snapshot_stats`).
    pub snapshot_hits: u64,
    /// Snapshot-memo misses.
    pub snapshot_misses: u64,
}

impl std::ops::AddAssign for EnvCounters {
    fn add_assign(&mut self, o: EnvCounters) {
        self.steps += o.steps;
        self.samples += o.samples;
        self.snapshot_hits += o.snapshot_hits;
        self.snapshot_misses += o.snapshot_misses;
    }
}

/// A timing wrapper around `PhaseOrderEnv`: forwards every call
/// unchanged, records a span around it, and copies the environment's own
/// counters out after it.
struct TimedEnv {
    inner: PhaseOrderEnv,
    tracer: Arc<Tracer>,
    /// Reserved id of each iteration's collect span (the env spans' parent).
    collect_ids: Arc<Vec<u64>>,
    iteration: usize,
    counters: Arc<Mutex<EnvCounters>>,
}

impl TimedEnv {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut PhaseOrderEnv) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        let parent = self.collect_ids.get(self.iteration).copied();
        self.tracer
            .record(name, self.iteration as u64, parent, start, end);
        let (hits, misses) = self.inner.snapshot_stats();
        let mut c = self.counters.lock().unwrap();
        c.samples = self.inner.samples();
        c.snapshot_hits = hits;
        c.snapshot_misses = misses;
        out
    }
}

impl Environment for TimedEnv {
    fn observation_dim(&self) -> usize {
        self.inner.observation_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f64> {
        self.timed("core.reset_ns", |env| env.reset())
    }

    fn reset_to(&mut self, episode: u64) -> Vec<f64> {
        self.iteration = episode as usize / EPISODES_PER_ITER;
        self.timed("core.reset_ns", |env| env.reset_to(episode))
    }

    fn step(&mut self, action: usize) -> StepResult {
        let out = self.timed("core.step_ns", |env| env.step(action));
        self.counters.lock().unwrap().steps += 1;
        out
    }
}

/// What one round produced.
pub struct Round {
    /// Episode reward mean per iteration.
    pub curve: Vec<f64>,
    /// Environment steps taken while training.
    pub steps: u64,
    /// Wall time of `train_parallel`.
    pub train_secs: f64,
    /// Greedy-rollout latency per held-out program of the round's slice, in ms.
    pub rollout_ms: Vec<f64>,
    /// Final cycles of the greedy rollout per quality-set program.
    pub cycles: Vec<u64>,
    /// Geomean of the quality set's cycles over their `-O3` references.
    pub cycles_vs_o3: f64,
    /// Stolen CPU share while the round ran.
    pub steal: f64,
}

impl Round {
    /// Whether two rounds trained and chose identically.
    pub fn same_result(&self, other: &Round) -> bool {
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.curve) == bits(&other.curve)
            && self.cycles == other.cycles
            && self.cycles_vs_o3.to_bits() == other.cycles_vs_o3.to_bits()
    }

    /// Environment steps per second of training wall time.
    pub fn steps_per_s(&self) -> f64 {
        self.steps as f64 / self.train_secs
    }
}

/// Steps a round takes: every episode runs the full serving episode.
pub fn expected_steps() -> u64 {
    (ITERS * EPISODES_PER_ITER * serve_env_config().episode_len) as u64
}

/// Train a fresh agent, score it on the quality set, and time its greedy
/// rollouts on held-out slice `slice % HELDOUT_SLICES`. With a tracer,
/// the environments are wrapped in [`TimedEnv`] and the derived
/// `rl.*` spans are recorded after training.
pub fn round(
    s: &TrainSetup,
    slice: usize,
    tracer: Option<&Arc<Tracer>>,
) -> (Round, Option<EnvCounters>) {
    let jiffies = cpu_jiffies();
    let layout = serve_layout();
    let collect_ids: Arc<Vec<u64>> =
        Arc::new(tracer.map_or(Vec::new(), |t| (0..ITERS).map(|_| t.reserve()).collect()));
    let counters: Vec<Arc<Mutex<EnvCounters>>> = (0..s.workers)
        .map(|_| Arc::new(Mutex::new(EnvCounters::default())))
        .collect();
    let mut envs: Vec<Box<dyn Environment + Send>> = counters
        .iter()
        .map(|c| {
            let inner = PhaseOrderEnv::new(s.train.clone(), serve_env_config());
            match tracer {
                Some(t) => Box::new(TimedEnv {
                    inner,
                    tracer: Arc::clone(t),
                    collect_ids: Arc::clone(&collect_ids),
                    iteration: 0,
                    counters: Arc::clone(c),
                }) as Box<dyn Environment + Send>,
                None => Box::new(inner) as Box<dyn Environment + Send>,
            }
        })
        .collect();
    let mut agent = PpoAgent::new(
        layout.obs_dim(),
        layout.num_actions(),
        &PpoConfig::small(),
        inputs::AGENT_SEED,
    );
    let t0 = Instant::now();
    let curve = agent.train_parallel(&mut envs, EPISODES_PER_ITER, ITERS);
    let t1 = Instant::now();
    let train_secs = (t1 - t0).as_secs_f64();
    drop(envs);

    let trace = tracer.map(|t| {
        derive_iteration_spans(t, &collect_ids, t.at(t0), t.at(t1));
        let mut total = EnvCounters::default();
        for c in &counters {
            total += *c.lock().unwrap();
        }
        total
    });

    let cycles: Vec<u64> = s.quality.iter().map(|m| greedy_cycles(&agent, m)).collect();
    let pairs: Vec<(u64, u64)> = cycles
        .iter()
        .copied()
        .zip(s.quality_o3.iter().copied())
        .collect();
    let slice = slice % HELDOUT_SLICES * HELDOUT_PER_ROUND;
    let mut rollout_ms = Vec::with_capacity(HELDOUT_PER_ROUND);
    for m in &s.heldout[slice..slice + HELDOUT_PER_ROUND] {
        let t = Instant::now();
        std::hint::black_box(greedy_cycles(&agent, m));
        rollout_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let round = Round {
        curve,
        steps: expected_steps(),
        train_secs,
        rollout_ms,
        cycles_vs_o3: geomean_ratio(&pairs),
        cycles,
        steal: steal_share(jiffies, cpu_jiffies()),
    };
    (round, trace)
}

/// Roll the greedy policy out on an unseen program: what answering one
/// compile request costs without the daemon around it.
fn greedy_cycles(agent: &PpoAgent, m: &Module) -> u64 {
    let mut env = PhaseOrderEnv::new(vec![m.clone()], serve_env_config());
    let mut obs = env.reset();
    loop {
        let step = env.step(agent.act_greedy(&obs));
        if step.done {
            return env.last_cycles();
        }
        obs = step.observation;
    }
}

/// Record each iteration's `rl.collect_ns`, `rl.update_ns` and
/// `rl.policy_ns` spans from the env spans already in `tracer`.
fn derive_iteration_spans(tracer: &Tracer, collect_ids: &[u64], start: u64, end: u64) {
    let spans = tracer.spans();
    let mut extents: Vec<Option<(u64, u64)>> = vec![None; collect_ids.len()];
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); collect_ids.len()];
    for s in spans.iter().filter(|s| s.start >= start && s.end <= end) {
        let Some(i) = collect_ids.iter().position(|&id| Some(id) == s.parent) else {
            continue;
        };
        children[i].push((s.start, s.end));
        extents[i] = Some(match extents[i] {
            Some((lo, hi)) => (lo.min(s.start), hi.max(s.end)),
            None => (s.start, s.end),
        });
    }
    for (i, &id) in collect_ids.iter().enumerate() {
        let Some((lo, hi)) = extents[i] else { continue };
        tracer.record_ns(id, "rl.collect_ns", i as u64, None, lo, hi);
        let self_ns = self_time((lo, hi), &children[i]);
        tracer.value("rl.policy_ns", i as u64, self_ns as f64);
        let next = extents
            .get(i + 1)
            .copied()
            .flatten()
            .map_or(end, |(lo, _)| lo);
        let update = tracer.reserve();
        tracer.record_ns(update, "rl.update_ns", i as u64, None, hi, next.max(hi));
    }
}
