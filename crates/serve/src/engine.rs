//! Batched policy inference and the greedy serving rollout.
//!
//! One dedicated thread owns the policy network. Request workers submit
//! observations and block on a result slot. The engine thread never
//! lingers: as soon as the queue is non-empty it drains everything
//! queued (up to [`EngineConfig::max_batch`]) and runs it through
//! **one** SoA forward ([`SoaMlp::forward_batch`]). A lone observation
//! goes out at once; observations that queue while a batch is running
//! go out together in the next one — one wake-up, one queue-lock round,
//! and one batched GEMM for all of them, which is where the throughput
//! under concurrent load comes from. The SoA kernels are bit-identical
//! to [`Mlp::forward`] (pinned by the nn crate's differential suite),
//! so batching never changes a served decision. Batch sizes land in the
//! `serve.batch_size` histogram, per-batch forward time in
//! `serve.engine_ns{forward}` (kept out of the `serve.stage_ns` family,
//! whose stages tile each request's timeline — a batch serves many
//! requests at once, so its time is not any single request's segment).
//!
//! The policy path is fault-isolated end to end: forward passes run
//! under `catch_unwind` (a poisoned network answers with a typed
//! [`PolicyFault`], not a dead daemon), and the rollout applies every
//! chosen pass through `apply_checked`, recording offenders in the
//! shared quarantine table so a pass that keeps faulting on a program
//! drops out of that program's action space. Injected faults
//! ([`InferenceEngine::inject_faults`]) hit the same surface the real
//! ones do, so chaos tests exercise the production degradation path.

use autophase_core::env::{EnvConfig, FeatureNorm, ObservationKind, RewardKind, FILTERED_PASSES};
use autophase_core::Quarantine;
use autophase_features::{inst_count_filtered, IncrementalFeatures, FILTERED_FEATURES};
use autophase_ir::Module;
use autophase_nn::mlp::Mlp;
use autophase_nn::{softmax, BatchWorkspace, SoaMlp};
use autophase_passes::checked::{apply_checked_changeset, FuelBudget};
use autophase_rl::online::ExperienceStep;
use autophase_rl::serving::ObsLayout;
use autophase_telemetry as telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Panic payload of an injected engine crash
/// ([`InferenceEngine::inject_crashes`]) — lets test panic hooks
/// silence on-purpose crashes without hiding real ones.
pub const INJECTED_CRASH_MSG: &str = "injected engine crash (chaos)";

/// Install (once) a panic hook that swallows *injected* engine crashes —
/// payloads equal to [`INJECTED_CRASH_MSG`] — and delegates everything
/// else to the previous hook. Chaos tests crash the engine on purpose;
/// this keeps their stderr readable without hiding real failures.
pub fn quiet_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_CRASH_MSG);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Lock a mutex, recovering from poisoning: the engine supervisor
/// respawns after panics, and a panic mid-batch must not turn every
/// later `infer` into a second panic. All data under these locks stays
/// valid across unwinds (the batch guard answers in-flight slots).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Episode length of the serving rollout (and of the training
/// configuration a served checkpoint must come from).
pub const SERVE_EPISODE_LEN: usize = 12;

/// The environment configuration a served policy is trained under. The
/// engine reproduces this observation layout exactly at inference time;
/// a checkpoint trained under any other configuration is rejected at
/// startup by the shape check.
pub fn serve_env_config() -> EnvConfig {
    EnvConfig {
        observation: ObservationKind::Combined,
        feature_norm: FeatureNorm::InstCount,
        reward: RewardKind::Log,
        episode_len: SERVE_EPISODE_LEN,
        filtered_features: true,
        filtered_passes: true,
        ..EnvConfig::default()
    }
}

/// The serving observation layout as an [`ObsLayout`] — the single
/// source of truth the engine's rollout *and* the online learner share.
/// Both sides compose observations through [`ObsLayout::compose`] and
/// shape-check networks through it, so a feature-set change that
/// widens one side without the other is caught, not silently misread.
pub fn serve_layout() -> ObsLayout {
    ObsLayout::new(
        FILTERED_FEATURES.len(),
        FILTERED_PASSES.len(),
        SERVE_EPISODE_LEN,
    )
}

/// Why the policy path could not answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyFault {
    /// A forward pass panicked (or a chaos fault was injected).
    Inference,
    /// The engine is shutting down.
    Shutdown,
}

impl std::fmt::Display for PolicyFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyFault::Inference => write!(f, "policy inference faulted"),
            PolicyFault::Shutdown => write!(f, "inference engine shut down"),
        }
    }
}

impl std::error::Error for PolicyFault {}

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard cap on observations per batch.
    pub max_batch: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { max_batch: 64 }
    }
}

/// What a traced rollout did, beyond the chosen ordering — the
/// per-request aggregates the flight recorder attaches as trace notes
/// (the rollout interleaves inference and pass application, so its
/// inner structure is aggregate counts, not timeline segments).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RolloutReport {
    /// The effective ordering (the passes that changed the module).
    pub applied: Vec<usize>,
    /// Forward passes submitted to the batching queue.
    pub infer_calls: u32,
    /// Total nanoseconds this request spent blocked on inference
    /// (enqueue → result, including any wait behind a running batch).
    pub infer_wait_ns: u64,
    /// Largest engine batch any of this request's inferences was served
    /// in — 1 means every forward ran alone, larger values mean the
    /// batched GEMM actually amortized work across concurrent requests.
    pub infer_batch_max: u32,
    /// Pass applications that faulted (rolled back and quarantined).
    pub pass_faults: u32,
    /// Version of the policy that served this rollout (0 is the boot
    /// checkpoint; published versions count from 1).
    pub policy_version: u64,
    /// The rollout's steps in learner form — what the policy saw, what
    /// it chose, and the log-probability it assigned — ready to stream
    /// into the online trainer as one episode.
    pub steps: Vec<ExperienceStep>,
}

/// A successful inference: the logits, the size of the engine batch
/// that served it (for [`RolloutReport::infer_batch_max`]), and the
/// version of the policy that answered.
type Inference = (Vec<f64>, u32, u64);

type Slot = Arc<(Mutex<Option<Result<Inference, PolicyFault>>>, Condvar)>;

/// Which serving policy a job is routed to: the active policy (A) or,
/// under A/B mode, the challenger (B). Routing is decided once per
/// rollout from the program fingerprint, so a request's whole episode
/// is served by one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    A,
    B,
}

/// A policy with its registry version, immutable once installed: swaps
/// replace the `Arc`, never the weights behind it, so a batch that
/// cloned the `Arc` keeps its exact network to the end.
struct PolicyEntry {
    version: u64,
    mlp: Mlp,
}

/// The currently installed serving policies.
#[derive(Clone)]
struct ActiveSet {
    a: Arc<PolicyEntry>,
    /// A/B challenger, absent outside A/B mode.
    b: Option<Arc<PolicyEntry>>,
}

/// Lock-free-on-the-hot-path policy slot. The engine thread caches the
/// `ActiveSet` (and its SoA mirrors) and checks one relaxed-cost atomic
/// `seq` load per *batch*; only when a swap bumped `seq` does it take
/// the lock and rebuild the mirrors. A swap therefore never lands
/// mid-batch, and steady-state serving never contends on the mutex.
struct PolicySlot {
    seq: AtomicU64,
    set: Mutex<ActiveSet>,
}

struct Job {
    obs: Vec<f64>,
    route: Route,
    slot: Slot,
}

struct Queue {
    jobs: Vec<Job>,
    shutdown: bool,
}

impl Queue {
    fn new() -> Queue {
        Queue {
            jobs: Vec::new(),
            shutdown: false,
        }
    }

    /// Queue one observation; its answer arrives in the returned slot
    /// (see [`wait_for`]).
    fn push(&mut self, obs: Vec<f64>, route: Route) -> Slot {
        let slot: Slot = Arc::new((Mutex::new(None), Condvar::new()));
        self.jobs.push(Job {
            obs,
            route,
            slot: Arc::clone(&slot),
        });
        slot
    }
}

/// Handle to the inference thread (see module docs).
pub struct InferenceEngine {
    queue: Arc<(Mutex<Queue>, Condvar)>,
    /// Hot-swappable serving policies; `None` in baseline-only mode.
    slot: Option<Arc<PolicySlot>>,
    /// Armed chaos faults: each pending fault makes one upcoming
    /// inference answer [`PolicyFault::Inference`].
    chaos: Arc<AtomicU32>,
    /// Armed chaos crashes: each one panics the engine thread at the
    /// start of an upcoming batch (the supervisor respawns it).
    crash: Arc<AtomicU32>,
    /// Times the supervisor respawned the engine loop after a panic.
    respawns: Arc<AtomicU64>,
    /// Policy swaps installed over this engine's lifetime.
    swaps: Arc<AtomicU64>,
    episode_len: usize,
    /// Baseline-only mode: no thread, every inference answers
    /// [`PolicyFault::Inference`] so callers take the baseline rung.
    disabled: bool,
    thread: Option<JoinHandle<()>>,
}

/// Checkpoint/engine shape mismatch at startup.
#[derive(Debug)]
pub struct ShapeError(pub String);

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy shape error: {}", self.0)
    }
}

impl std::error::Error for ShapeError {}

impl InferenceEngine {
    /// Spawn the engine thread around a trained policy network.
    ///
    /// # Errors
    ///
    /// Rejects a policy whose input/output dimensions do not match the
    /// serving observation layout — a checkpoint from a different
    /// training configuration would silently misread every observation.
    pub fn start(policy: Mlp, cfg: EngineConfig) -> Result<InferenceEngine, ShapeError> {
        InferenceEngine::start_versioned(policy, 0, cfg)
    }

    /// [`start`](InferenceEngine::start) with an explicit registry
    /// version for the boot policy (0 means "the boot checkpoint",
    /// published versions count from 1). The version travels with every
    /// inference so experience and A/B stats attribute to the policy
    /// that actually answered.
    ///
    /// # Errors
    ///
    /// Same contract as [`start`](InferenceEngine::start).
    pub fn start_versioned(
        policy: Mlp,
        version: u64,
        cfg: EngineConfig,
    ) -> Result<InferenceEngine, ShapeError> {
        serve_layout()
            .check_policy(&policy)
            .map_err(|e| ShapeError(format!("{e} (train with serve_env_config())")))?;
        let queue = Arc::new((Mutex::new(Queue::new()), Condvar::new()));
        let slot = Arc::new(PolicySlot {
            seq: AtomicU64::new(0),
            set: Mutex::new(ActiveSet {
                a: Arc::new(PolicyEntry {
                    version,
                    mlp: policy,
                }),
                b: None,
            }),
        });
        let chaos = Arc::new(AtomicU32::new(0));
        let crash = Arc::new(AtomicU32::new(0));
        let respawns = Arc::new(AtomicU64::new(0));
        let thread = {
            let queue = Arc::clone(&queue);
            let slot = Arc::clone(&slot);
            let chaos = Arc::clone(&chaos);
            let crash = Arc::clone(&crash);
            let respawns = Arc::clone(&respawns);
            std::thread::Builder::new()
                .name("serve-infer".into())
                .spawn(move || {
                    // Supervisor: a panicking engine loop (injected crash
                    // or a bug past the per-forward catch_unwind) is
                    // respawned, not fatal. In-flight batch slots were
                    // already answered by the batch guard's Drop, so no
                    // request ever hangs across a respawn. Clean return
                    // means shutdown.
                    loop {
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            engine_loop(&queue, &chaos, &crash, &slot, &cfg)
                        }));
                        if run.is_ok() {
                            return;
                        }
                        respawns.fetch_add(1, Ordering::Relaxed);
                        telemetry::incr("serve.engine", "respawn", 1);
                    }
                })
                .expect("spawn inference thread")
        };
        Ok(InferenceEngine {
            queue,
            slot: Some(slot),
            chaos,
            crash,
            respawns,
            swaps: Arc::new(AtomicU64::new(0)),
            episode_len: SERVE_EPISODE_LEN,
            disabled: false,
            thread: Some(thread),
        })
    }

    /// An engine with no policy and no thread: every inference answers
    /// [`PolicyFault::Inference`] immediately, so every request degrades
    /// to the baseline ordering. This is how the daemon keeps serving
    /// when its checkpoint is quarantined at startup.
    pub fn start_baseline_only() -> InferenceEngine {
        InferenceEngine {
            queue: Arc::new((Mutex::new(Queue::new()), Condvar::new())),
            slot: None,
            chaos: Arc::new(AtomicU32::new(0)),
            crash: Arc::new(AtomicU32::new(0)),
            respawns: Arc::new(AtomicU64::new(0)),
            swaps: Arc::new(AtomicU64::new(0)),
            episode_len: SERVE_EPISODE_LEN,
            disabled: true,
            thread: None,
        }
    }

    /// Whether this engine was started without a policy
    /// ([`start_baseline_only`](InferenceEngine::start_baseline_only)).
    pub fn is_baseline_only(&self) -> bool {
        self.disabled
    }

    /// Arm `n` injected faults: the next `n` inferences answer
    /// [`PolicyFault::Inference`], driving their requests down the
    /// degradation ladder exactly like a real forward-pass panic.
    pub fn inject_faults(&self, n: u32) {
        self.chaos.fetch_add(n, Ordering::Relaxed);
    }

    /// Arm `n` injected crashes: each one panics the engine thread at
    /// the start of an upcoming batch. The batch degrades (its requests
    /// get [`PolicyFault::Inference`]) and the supervisor respawns the
    /// loop — exercising the full whole-thread-death recovery path.
    pub fn inject_crashes(&self, n: u32) {
        self.crash.fetch_add(n, Ordering::Relaxed);
    }

    /// How many times the supervisor has respawned the engine loop after
    /// a panic.
    pub fn respawn_count(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Hot-swap the active policy to `policy` (registry `version`),
    /// clearing any A/B challenger. The swap is installed between
    /// batches — in-flight batches finish on the policy they started
    /// with, and no request is dropped.
    ///
    /// # Errors
    ///
    /// Rejects a policy that fails the serving-layout shape check, and
    /// any swap on a baseline-only engine (it has no serving thread to
    /// swap under).
    pub fn swap_policy(&self, policy: Mlp, version: u64) -> Result<(), ShapeError> {
        self.install(policy, version, false)
    }

    /// Install `policy` as the A/B challenger (slot B): requests
    /// hash-split between it and the active policy until
    /// [`clear_ab`](InferenceEngine::clear_ab) or a full
    /// [`swap_policy`](InferenceEngine::swap_policy).
    ///
    /// # Errors
    ///
    /// Same contract as [`swap_policy`](InferenceEngine::swap_policy).
    pub fn swap_ab(&self, policy: Mlp, version: u64) -> Result<(), ShapeError> {
        self.install(policy, version, true)
    }

    fn install(&self, policy: Mlp, version: u64, as_challenger: bool) -> Result<(), ShapeError> {
        let Some(slot) = &self.slot else {
            return Err(ShapeError(
                "baseline-only engine has no policy slot to swap".into(),
            ));
        };
        serve_layout()
            .check_policy(&policy)
            .map_err(|e| ShapeError(e.to_string()))?;
        let entry = Arc::new(PolicyEntry {
            version,
            mlp: policy,
        });
        {
            let mut set = lock_recover(&slot.set);
            if as_challenger {
                set.b = Some(entry);
            } else {
                set.a = entry;
                set.b = None;
            }
        }
        // Publish after the set is consistent; the engine thread picks
        // the new set up at its next batch boundary.
        slot.seq.fetch_add(1, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        telemetry::incr(
            "serve.engine",
            if as_challenger { "swap_ab" } else { "swap" },
            1,
        );
        Ok(())
    }

    /// Drop the A/B challenger (if any); all traffic routes to the
    /// active policy again.
    pub fn clear_ab(&self) {
        let Some(slot) = &self.slot else { return };
        let had_b = {
            let mut set = lock_recover(&slot.set);
            set.b.take().is_some()
        };
        if had_b {
            slot.seq.fetch_add(1, Ordering::Release);
        }
    }

    /// The versions currently serving: `(active, challenger)`. `None`
    /// on a baseline-only engine.
    pub fn active_versions(&self) -> Option<(u64, Option<u64>)> {
        let slot = self.slot.as_ref()?;
        let set = lock_recover(&slot.set);
        Some((set.a.version, set.b.as_ref().map(|e| e.version)))
    }

    /// Policy swaps installed over this engine's lifetime (full and
    /// A/B).
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Which slot requests for `fp` route to under the current A/B
    /// split. Stable per fingerprint (a program's episodes all land on
    /// one policy); everything routes to A outside A/B mode.
    fn route_for(&self, fp: u64) -> Route {
        let Some(slot) = &self.slot else {
            return Route::A;
        };
        if lock_recover(&slot.set).b.is_none() {
            return Route::A;
        }
        if splitmix(fp) & 1 == 0 {
            Route::A
        } else {
            Route::B
        }
    }

    /// One blocking forward pass through the batching queue: logits over
    /// the serving action space.
    ///
    /// # Errors
    ///
    /// [`PolicyFault`] when the forward pass faulted (or was injected to)
    /// or the engine is shutting down.
    pub fn infer(&self, obs: Vec<f64>) -> Result<Vec<f64>, PolicyFault> {
        self.infer_sized(obs).map(|(logits, _, _)| logits)
    }

    /// [`infer`](InferenceEngine::infer), also reporting the size of the
    /// engine batch the forward ran in (≥ 1) and the version of the
    /// policy that answered. Always routes to the active policy; the
    /// A/B split applies per rollout, not per raw inference.
    ///
    /// # Errors
    ///
    /// Same contract as [`infer`](InferenceEngine::infer).
    pub fn infer_sized(&self, obs: Vec<f64>) -> Result<Inference, PolicyFault> {
        self.infer_routed(obs, Route::A)
    }

    fn infer_routed(&self, obs: Vec<f64>, route: Route) -> Result<Inference, PolicyFault> {
        if self.disabled {
            return Err(PolicyFault::Inference);
        }
        let slot = {
            let (lock, cv) = &*self.queue;
            let mut q = lock_recover(lock);
            if q.shutdown {
                return Err(PolicyFault::Shutdown);
            }
            let slot = q.push(obs, route);
            cv.notify_all();
            slot
        };
        wait_for(&slot)
    }

    /// Greedy policy rollout on `m` in place: `episode_len` steps of
    /// argmax actions, each chosen pass applied transactionally. Faulted
    /// applies are recorded in `quarantine` and skipped; quarantined
    /// passes are masked out of the argmax. Returns the effective
    /// ordering (the changing passes).
    ///
    /// # Errors
    ///
    /// [`PolicyFault`] if any forward pass faults — `m` is left at the
    /// last good state and the caller degrades to the baseline ordering.
    pub fn choose_sequence(
        &self,
        m: &mut Module,
        fp: u64,
        quarantine: &Quarantine,
        fuel: &FuelBudget,
    ) -> Result<Vec<usize>, PolicyFault> {
        self.choose_sequence_report(m, fp, quarantine, fuel)
            .map(|r| r.applied)
    }

    /// [`choose_sequence`](InferenceEngine::choose_sequence), plus the
    /// per-request aggregates ([`RolloutReport`]) a trace records.
    ///
    /// # Errors
    ///
    /// Same contract as [`choose_sequence`](InferenceEngine::choose_sequence).
    pub fn choose_sequence_report(
        &self,
        m: &mut Module,
        fp: u64,
        quarantine: &Quarantine,
        fuel: &FuelBudget,
    ) -> Result<RolloutReport, PolicyFault> {
        let layout = serve_layout();
        let route = self.route_for(fp);
        let mut histogram = vec![0.0f64; layout.num_actions()];
        // Incremental feature state: seeded with one full extraction,
        // then resynced from each successful apply's ChangeSet — a
        // changing pass usually dirties a few functions, not the module.
        let mut inc = IncrementalFeatures::new(m);
        let mut feats = inst_count_filtered(&inc.total());
        let mut report = RolloutReport::default();
        for _ in 0..self.episode_len {
            let obs = layout.compose(&feats, &histogram);
            let infer_start = Instant::now();
            report.infer_calls += 1;
            let (logits, batch, version) = self.infer_routed(obs.clone(), route)?;
            report.policy_version = version;
            report.infer_wait_ns += infer_start.elapsed().as_nanos() as u64;
            report.infer_batch_max = report.infer_batch_max.max(batch);
            let mut best: Option<(usize, f64)> = None;
            for (a, &score) in logits.iter().enumerate() {
                if quarantine.is_quarantined(fp, FILTERED_PASSES[a]) {
                    continue;
                }
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((a, score));
                }
            }
            // Everything quarantined for this program: nothing left to try.
            let Some((action, _)) = best else { break };
            // Record the step for the online learner: the behavior
            // log-probability is the softmax mass the serving policy
            // put on the action it (greedily) took.
            let probs = softmax(&logits);
            report.steps.push(ExperienceStep {
                obs,
                action,
                logp: probs[action].max(1e-12).ln(),
            });
            let pass = FILTERED_PASSES[action];
            match apply_checked_changeset(m, pass, fuel) {
                Ok((true, cs)) => {
                    report.applied.push(pass);
                    if cs.needs_full_rebuild() {
                        inc.rebuild(m);
                    } else {
                        inc.update(m, &cs.dirty_funcs);
                    }
                    feats = inst_count_filtered(&inc.total());
                }
                Ok((false, _)) => {}
                Err(_fault) => {
                    // Rolled back by apply_checked; remember the offender
                    // so repeat faults stop costing attempts.
                    quarantine.record_fault(fp, pass);
                    report.pass_faults += 1;
                    telemetry::incr("serve.rollout", "pass_fault", 1);
                }
            }
            histogram[action] += 1.0;
        }
        Ok(report)
    }

    /// Stop the engine thread. Queued jobs are answered with
    /// [`PolicyFault::Shutdown`]. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let (lock, cv) = &*self.queue;
            let mut q = lock_recover(lock);
            q.shutdown = true;
            cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Block until the engine answers `slot`.
fn wait_for(slot: &Slot) -> Result<Inference, PolicyFault> {
    let (lock, cv) = &**slot;
    let mut state = lock_recover(lock);
    while state.is_none() {
        state = cv.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
    state.take().expect("slot filled")
}

fn fill(slot: &Slot, result: Result<Inference, PolicyFault>) {
    let (lock, cv) = &**slot;
    *lock_recover(lock) = Some(result);
    cv.notify_all();
}

/// A drained batch with panic insurance: if the engine thread unwinds
/// mid-batch (injected crash, or a panic outside the per-forward
/// `catch_unwind`), Drop answers every not-yet-filled slot with
/// [`PolicyFault::Inference`] so those requests degrade instead of
/// hanging forever on a dead thread.
struct BatchGuard {
    jobs: Vec<Job>,
    filled: usize,
}

impl Drop for BatchGuard {
    fn drop(&mut self) {
        for job in &self.jobs[self.filled..] {
            fill(&job.slot, Err(PolicyFault::Inference));
        }
    }
}

/// SplitMix64 finalizer — the A/B hash split over program fingerprints.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The engine thread's cached view of the policy slot: the `Arc`s it
/// cloned plus their SoA mirrors, rebuilt only when the slot's `seq`
/// says a swap landed. The transpose cost is paid per swap, never per
/// batch.
struct Serving {
    seq: u64,
    a: Arc<PolicyEntry>,
    a_soa: SoaMlp,
    b: Option<(Arc<PolicyEntry>, SoaMlp)>,
}

fn refresh_serving(slot: &PolicySlot) -> Serving {
    // Read `seq` before the set: a swap bumps `seq` *after* installing,
    // so a stale `seq` paired with a newer set only causes one harmless
    // extra refresh — never a missed swap.
    let seq = slot.seq.load(Ordering::Acquire);
    let set = lock_recover(&slot.set).clone();
    let a_soa = SoaMlp::from_mlp(&set.a.mlp);
    let b = set.b.map(|e| {
        let soa = SoaMlp::from_mlp(&e.mlp);
        (e, soa)
    });
    Serving {
        seq,
        a: set.a,
        a_soa,
        b,
    }
}

/// Where a triaged job's answer comes from.
enum Verdict {
    Fault(PolicyFault),
    Row(Route, usize),
}

fn engine_loop(
    queue: &Arc<(Mutex<Queue>, Condvar)>,
    chaos: &Arc<AtomicU32>,
    crash: &Arc<AtomicU32>,
    slot: &Arc<PolicySlot>,
    cfg: &EngineConfig,
) {
    // The engine thread caches the serving policies between swaps, so
    // the SoA transpose happens once per (re)spawn or swap and every
    // batch reuses the workspaces — a gathered batch is one
    // `forward_batch` per serving policy, not max_batch separate
    // matvec chains.
    let mut serving = refresh_serving(slot);
    let mut wsa = BatchWorkspace::new();
    let mut wsb = BatchWorkspace::new();
    let (lock, cv) = &**queue;
    let mut q = lock_recover(lock);
    loop {
        while q.jobs.is_empty() && !q.shutdown {
            q = cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        if q.shutdown {
            for job in q.jobs.drain(..) {
                fill(&job.slot, Err(PolicyFault::Shutdown));
            }
            return;
        }
        // Drain at once: whatever queued while the last batch ran goes
        // out together, and a lone observation never waits for company.
        let take = q.jobs.len().min(cfg.max_batch);
        let mut batch = BatchGuard {
            jobs: q.jobs.drain(..take).collect(),
            filled: 0,
        };
        drop(q);

        // One armed chaos crash kills this whole batch: panic with the
        // queue lock released (never poisoned by an injected crash) and
        // the batch in the guard, whose Drop degrades its requests.
        if crash
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            telemetry::incr("serve.policy_fault", "injected_crash", 1);
            std::panic::panic_any(INJECTED_CRASH_MSG);
        }

        // Hot-swap pickup: one atomic load per batch; only a bumped
        // `seq` pays for the lock and the SoA rebuild. The swap lands
        // here — at a batch boundary — never mid-batch.
        if slot.seq.load(Ordering::Acquire) != serving.seq {
            serving = refresh_serving(slot);
            telemetry::incr("serve.engine", "swap_applied", 1);
        }

        telemetry::observe("serve.batch_size", "", batch.jobs.len() as u64);
        let t = telemetry::maybe_now();
        let batch_size = batch.jobs.len() as u32;

        // Triage in arrival order before touching the networks: armed
        // chaos faults consume exactly one inference each (same drain
        // semantics as the per-job forward had), and a wrong-width
        // observation faults its own job instead of panicking the GEMM
        // under the whole batch. Live jobs split into the A and (under
        // A/B mode) B sub-batches; a B-routed job with no challenger
        // installed falls back to A.
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch.jobs.len());
        let (mut row_a, mut row_b) = (0usize, 0usize);
        wsa.begin(&serving.a_soa);
        if let Some((_, b_soa)) = &serving.b {
            wsb.begin(b_soa);
        }
        for job in &batch.jobs {
            let injected = chaos
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if injected {
                telemetry::incr("serve.policy_fault", "injected", 1);
                verdicts.push(Verdict::Fault(PolicyFault::Inference));
            } else if job.obs.len() != serving.a_soa.input_dim() {
                telemetry::incr("serve.policy_fault", "shape", 1);
                verdicts.push(Verdict::Fault(PolicyFault::Inference));
            } else if job.route == Route::B && serving.b.is_some() {
                wsb.push_input(&job.obs);
                verdicts.push(Verdict::Row(Route::B, row_b));
                row_b += 1;
            } else {
                wsa.push_input(&job.obs);
                verdicts.push(Verdict::Row(Route::A, row_a));
                row_a += 1;
            }
        }

        // One batched forward per serving policy. A panic faults that
        // policy's jobs only (the armed/invalid ones keep their own
        // verdicts); the workspaces are rebuilt by `begin` next batch,
        // so a torn state cannot leak forward.
        let ok_a = wsa.batch() == 0
            || catch_unwind(AssertUnwindSafe(|| serving.a_soa.forward_batch(&mut wsa)))
                .map_err(|_| {
                    telemetry::incr("serve.policy_fault", "panic", wsa.batch() as u64);
                })
                .is_ok();
        let ok_b = match &serving.b {
            Some((_, b_soa)) if wsb.batch() > 0 => {
                catch_unwind(AssertUnwindSafe(|| b_soa.forward_batch(&mut wsb)))
                    .map_err(|_| {
                        telemetry::incr("serve.policy_fault", "panic", wsb.batch() as u64);
                    })
                    .is_ok()
            }
            _ => true,
        };

        for (i, verdict) in verdicts.into_iter().enumerate() {
            let result = match verdict {
                Verdict::Fault(fault) => Err(fault),
                Verdict::Row(Route::A, r) if ok_a => {
                    Ok((wsa.logits(r).to_vec(), batch_size, serving.a.version))
                }
                Verdict::Row(Route::B, r) if ok_b => {
                    let (entry, _) = serving.b.as_ref().expect("B row implies challenger");
                    Ok((wsb.logits(r).to_vec(), batch_size, entry.version))
                }
                Verdict::Row(..) => Err(PolicyFault::Inference),
            };
            fill(&batch.jobs[i].slot, result);
            batch.filled = i + 1;
        }
        telemetry::observe_since("serve.engine_ns", "forward", t);
        q = lock_recover(lock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_passes::checked::apply_checked;

    fn test_policy(seed: u64) -> Mlp {
        Mlp::new(
            &[serve_layout().obs_dim(), 16, serve_layout().num_actions()],
            autophase_nn::mlp::Activation::Tanh,
            seed,
        )
    }

    #[test]
    fn rejects_mismatched_checkpoint_shape() {
        let bad = Mlp::new(&[3, 4, 2], autophase_nn::mlp::Activation::Tanh, 1);
        assert!(InferenceEngine::start(bad, EngineConfig::default()).is_err());
    }

    #[test]
    fn concurrent_inference_matches_direct_forward() {
        let policy = test_policy(7);
        let engine =
            Arc::new(InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let policy = policy.clone();
                std::thread::spawn(move || {
                    for k in 0..20 {
                        let obs: Vec<f64> = (0..serve_layout().obs_dim())
                            .map(|j| ((i * 31 + k * 7 + j) % 13) as f64 / 13.0)
                            .collect();
                        let got = engine.infer(obs.clone()).unwrap();
                        assert_eq!(got, policy.forward(&obs));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn wrong_width_observation_faults_its_job_not_the_engine() {
        let engine = InferenceEngine::start(test_policy(5), EngineConfig::default()).unwrap();
        assert_eq!(engine.infer(vec![0.0; 3]), Err(PolicyFault::Inference));
        // The engine keeps serving well-formed observations afterwards.
        assert!(engine.infer(vec![0.0; serve_layout().obs_dim()]).is_ok());
    }

    #[test]
    fn infer_sized_reports_the_serving_batch() {
        let engine = InferenceEngine::start(test_policy(6), EngineConfig::default()).unwrap();
        let (logits, batch, version) = engine
            .infer_sized(vec![0.0; serve_layout().obs_dim()])
            .unwrap();
        assert_eq!(logits.len(), serve_layout().num_actions());
        assert_eq!(batch, 1, "a lone request is a batch of one");
        assert_eq!(version, 0, "boot policy serves as version 0");
    }

    #[test]
    fn hot_swap_changes_answers_without_dropping_requests() {
        let old = test_policy(31);
        let new = test_policy(32);
        let engine =
            Arc::new(InferenceEngine::start(old.clone(), EngineConfig::default()).unwrap());
        let obs: Vec<f64> = (0..serve_layout().obs_dim())
            .map(|j| (j % 5) as f64 / 5.0)
            .collect();
        assert_eq!(engine.infer(obs.clone()).unwrap(), old.forward(&obs));

        // Hammer inference from several threads across 20 swaps: every
        // single request must get an Ok answer from one of the two
        // policies (never a fault, never a hang).
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let obs = obs.clone();
                let old = old.clone();
                let new = new.clone();
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let got = engine.infer(obs.clone()).expect("swap dropped a request");
                        assert!(
                            got == old.forward(&obs) || got == new.forward(&obs),
                            "answer from neither installed policy"
                        );
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        for i in 0..20 {
            let policy = if i % 2 == 0 { new.clone() } else { old.clone() };
            engine.swap_policy(policy, i + 1).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0, "workers served during the swap storm");
        assert_eq!(engine.swap_count(), 20);
        assert_eq!(engine.active_versions(), Some((20, None)));
        // After the storm every answer comes from the last policy in.
        assert_eq!(engine.infer(obs.clone()).unwrap(), old.forward(&obs));
    }

    #[test]
    fn swap_rejects_wrong_shape_and_baseline_only() {
        let engine = InferenceEngine::start(test_policy(33), EngineConfig::default()).unwrap();
        let bad = Mlp::new(&[3, 4, 2], autophase_nn::mlp::Activation::Tanh, 1);
        assert!(engine.swap_policy(bad, 1).is_err());
        assert_eq!(
            engine.active_versions(),
            Some((0, None)),
            "rejected swap is a no-op"
        );

        let baseline = InferenceEngine::start_baseline_only();
        assert!(baseline.swap_policy(test_policy(34), 1).is_err());
        assert!(baseline.active_versions().is_none());
    }

    #[test]
    fn ab_mode_splits_and_reports_versions() {
        let a = test_policy(41);
        let b = test_policy(42);
        let engine = InferenceEngine::start(a.clone(), EngineConfig::default()).unwrap();
        engine.swap_ab(b.clone(), 7).unwrap();
        assert_eq!(engine.active_versions(), Some((0, Some(7))));
        // Fingerprints split across both routes; each side's rollout
        // answers carry that side's version.
        let (mut saw_a, mut saw_b) = (false, false);
        for fp in 0..32u64 {
            match engine.route_for(fp) {
                Route::A => saw_a = true,
                Route::B => saw_b = true,
            }
        }
        assert!(saw_a && saw_b, "hash split uses both slots");
        let obs: Vec<f64> = (0..serve_layout().obs_dim())
            .map(|j| (j % 3) as f64)
            .collect();
        let (logits_a, _, va) = engine.infer_routed(obs.clone(), Route::A).unwrap();
        let (logits_b, _, vb) = engine.infer_routed(obs.clone(), Route::B).unwrap();
        assert_eq!((va, vb), (0, 7));
        assert_eq!(logits_a, a.forward(&obs));
        assert_eq!(logits_b, b.forward(&obs));
        // Clearing the challenger routes everything (even B) back to A.
        engine.clear_ab();
        assert_eq!(engine.active_versions(), Some((0, None)));
        let (logits, _, v) = engine.infer_routed(obs.clone(), Route::B).unwrap();
        assert_eq!((logits, v), (a.forward(&obs), 0));
    }

    #[test]
    fn rollout_records_experience_steps() {
        let mut m = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let engine = InferenceEngine::start(test_policy(51), EngineConfig::default()).unwrap();
        let fp = autophase_core::eval_cache::fingerprint_module(&m);
        let report = engine
            .choose_sequence_report(&mut m, fp, &Quarantine::default(), &FuelBudget::default())
            .unwrap();
        assert_eq!(report.steps.len(), SERVE_EPISODE_LEN);
        assert_eq!(report.policy_version, 0);
        for step in &report.steps {
            assert_eq!(step.obs.len(), serve_layout().obs_dim());
            assert!(step.action < serve_layout().num_actions());
            assert!(step.logp <= 0.0 && step.logp.is_finite());
        }
    }

    #[test]
    fn queued_observations_dispatch_together_up_to_max_batch() {
        let policy = test_policy(61);
        let engine = InferenceEngine::start(policy.clone(), EngineConfig { max_batch: 4 }).unwrap();
        let obs: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..serve_layout().obs_dim())
                    .map(|j| ((i * 7 + j) % 11) as f64 / 11.0)
                    .collect()
            })
            .collect();
        // Queue all six in one critical section: the engine thread finds
        // them together, drains max_batch of them into one forward, and
        // the remaining two into the next.
        let slots: Vec<Slot> = {
            let (lock, cv) = &*engine.queue;
            let mut q = lock_recover(lock);
            let slots = obs.iter().map(|o| q.push(o.clone(), Route::A)).collect();
            cv.notify_all();
            slots
        };
        let mut sizes = Vec::new();
        for (o, slot) in obs.iter().zip(&slots) {
            let (logits, batch, _) = wait_for(slot).unwrap();
            assert_eq!(logits, policy.forward(o), "batching changed the logits");
            sizes.push(batch);
        }
        assert_eq!(sizes, [4, 4, 4, 4, 2, 2]);
    }

    fn rollout(engine: &InferenceEngine, program: &Module) -> RolloutReport {
        let mut m = program.clone();
        let fp = autophase_core::eval_cache::fingerprint_module(&m);
        engine
            .choose_sequence_report(&mut m, fp, &Quarantine::default(), &FuelBudget::default())
            .unwrap()
    }

    #[test]
    fn concurrent_rollouts_match_solo_rollouts() {
        const THREADS: usize = 4;
        let engine =
            Arc::new(InferenceEngine::start(test_policy(62), EngineConfig::default()).unwrap());
        let programs: Vec<Module> = autophase_benchmarks::suite()
            .into_iter()
            .map(|b| b.module)
            .collect();
        let solo: Vec<RolloutReport> = programs.iter().map(|p| rollout(&engine, p)).collect();
        for report in &solo {
            assert_eq!(report.infer_calls as usize, SERVE_EPISODE_LEN);
            assert_eq!(report.infer_batch_max, 1, "a lone rollout is served alone");
        }
        let programs = Arc::new(programs);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, programs, barrier) = (
                    Arc::clone(&engine),
                    Arc::clone(&programs),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    // Each thread walks the suite from its own offset and
                    // for its own count of programs, so threads leave the
                    // engine at different times while others still run.
                    (0..2 + 2 * t)
                        .map(|k| {
                            let i = (t * 2 + k) % programs.len();
                            (i, rollout(&engine, &programs[i]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, report) in w.join().unwrap() {
                // Same ordering, and bit-identical logits behind it,
                // whatever batches the rollout's forwards landed in.
                assert_eq!(
                    report.applied, solo[i].applied,
                    "batching changed program {i}'s ordering"
                );
                assert_eq!(report.steps, solo[i].steps);
            }
        }
    }

    #[test]
    fn injected_faults_surface_and_drain() {
        let engine = InferenceEngine::start(test_policy(3), EngineConfig::default()).unwrap();
        engine.inject_faults(2);
        let obs = vec![0.0; serve_layout().obs_dim()];
        assert_eq!(engine.infer(obs.clone()), Err(PolicyFault::Inference));
        assert_eq!(engine.infer(obs.clone()), Err(PolicyFault::Inference));
        assert!(engine.infer(obs).is_ok(), "faults must drain");
    }

    #[test]
    fn injected_crash_degrades_batch_and_respawns() {
        quiet_crash_hook();
        let engine = InferenceEngine::start(test_policy(21), EngineConfig::default()).unwrap();
        engine.inject_crashes(1);
        let obs = vec![0.0; serve_layout().obs_dim()];
        // The crashed batch answers with a fault (never hangs) ...
        assert_eq!(engine.infer(obs.clone()), Err(PolicyFault::Inference));
        // ... and the supervisor respawns the loop, so the engine keeps
        // serving without a new handle.
        assert!(engine.infer(obs).is_ok(), "engine must survive the crash");
        assert_eq!(engine.respawn_count(), 1);
    }

    #[test]
    fn baseline_only_engine_faults_every_inference() {
        let mut engine = InferenceEngine::start_baseline_only();
        assert!(engine.is_baseline_only());
        assert_eq!(
            engine.infer(vec![0.0; serve_layout().obs_dim()]),
            Err(PolicyFault::Inference)
        );
        // The rollout degrades up front: the first inference faults, so
        // callers fall through to the baseline ordering.
        let mut m = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let fp = autophase_core::eval_cache::fingerprint_module(&m);
        let got =
            engine.choose_sequence(&mut m, fp, &Quarantine::default(), &FuelBudget::default());
        assert_eq!(got, Err(PolicyFault::Inference));
        engine.shutdown(); // no thread: must be a no-op, not a hang
    }

    #[test]
    fn shutdown_answers_instead_of_hanging() {
        let mut engine = InferenceEngine::start(test_policy(9), EngineConfig::default()).unwrap();
        engine.shutdown();
        assert_eq!(
            engine.infer(vec![0.0; serve_layout().obs_dim()]),
            Err(PolicyFault::Shutdown)
        );
    }

    #[test]
    fn greedy_rollout_improves_a_real_program() {
        let program = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .expect("gsm present")
            .module;
        let engine = InferenceEngine::start(test_policy(11), EngineConfig::default()).unwrap();
        let quarantine = Quarantine::default();
        let fuel = FuelBudget::default();
        let fp = autophase_core::eval_cache::fingerprint_module(&program);
        let mut m = program.clone();
        let seq = engine
            .choose_sequence(&mut m, fp, &quarantine, &fuel)
            .unwrap();
        // Replaying the returned effective ordering on a fresh copy gives
        // exactly the module the rollout produced.
        let mut replay = program.clone();
        for &p in &seq {
            apply_checked(&mut replay, p, &fuel).unwrap();
        }
        use autophase_ir::printer::print_module;
        assert_eq!(print_module(&replay), print_module(&m));
    }
}
