//! Workload inputs.
//!
//! The programs a workload asks the system to handle (held-out set, cold
//! stream, warm set) come from one `autophase_corpus::build_corpus` call
//! whose base seed is derived from `--seed`. The corpus dedups by
//! structural fingerprint, so those slices never share a program and no
//! request is a disguised repeat of another.
//!
//! The training set is part of the system under test, not an input: it
//! is the paper's nine-program suite plus a corpus slice from a fixed
//! seed, and the agent's seed is fixed too. Every run therefore trains
//! the same policy, and a run's figures vary with `--seed` only through
//! the programs it is asked about, not through a different policy. The
//! quality set that `cycles_vs_o3` is scored on is fixed for the same
//! reason (see [`quality_set`]).

use autophase_core::env::o3_cycles;
use autophase_corpus::{build_corpus, CorpusConfig};
use autophase_hls::HlsConfig;
use autophase_ir::fingerprint::fingerprint_module;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use std::collections::HashSet;

/// A program together with the wire-format IR a client sends for it.
#[derive(Clone)]
pub struct Program {
    /// The generated module.
    pub module: Module,
    /// `print_module(&module)`.
    pub ir: String,
}

/// SplitMix64 finalizer: spreads nearby seeds far apart, so `--seed 1`
/// and `--seed 2` share no corpus candidates.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Base seed of the training set's corpus slice.
const TRAINING_SET_SEED: u64 = 0xA070_FA5E;
/// Base seed of the quality set.
const QUALITY_SET_SEED: u64 = 0x0003_C0DE;
/// Programs in the quality set.
pub const QUALITY: usize = 64;
/// Corpus programs added to the nine-program suite for training.
pub const TRAINING_CORPUS: usize = 23;
/// Seed of every PPO agent the benchmark trains.
pub const AGENT_SEED: u64 = 0x5EED_0001;

/// The fixed training set: the nine-program suite, then corpus programs.
pub fn training_set(workers: usize) -> Vec<Module> {
    let mut set: Vec<Module> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    let corpus = build_corpus(&CorpusConfig {
        base_seed: TRAINING_SET_SEED,
        target: TRAINING_CORPUS,
        workers,
        ..CorpusConfig::default()
    });
    set.extend(corpus.programs.into_iter().map(|p| p.module));
    set
}

/// The fixed programs `cycles_vs_o3` is scored on, disjoint from the
/// training set. Being fixed, the score repeats exactly across seeds, so
/// any change in it is a change in the chosen orderings, never sampling.
pub fn quality_set(train: &[Module], workers: usize) -> Vec<Module> {
    build(QUALITY_SET_SEED, QUALITY, train, workers)
}

/// `n` distinct corpus programs for `seed`, in corpus order, none of
/// which is structurally identical to a program of `exclude`.
pub fn corpus(seed: u64, n: usize, exclude: &[Module], workers: usize) -> Vec<Module> {
    build(mix(seed), n, exclude, workers)
}

fn build(base_seed: u64, n: usize, exclude: &[Module], workers: usize) -> Vec<Module> {
    let taken: HashSet<u64> = exclude.iter().map(fingerprint_module).collect();
    let corpus = build_corpus(&CorpusConfig {
        base_seed,
        target: n + taken.len(),
        workers,
        ..CorpusConfig::default()
    });
    corpus
        .programs
        .into_iter()
        .filter(|p| !taken.contains(&p.fingerprint))
        .take(n)
        .map(|p| p.module)
        .collect()
}

/// Attach wire-format IR to each module.
pub fn with_ir(modules: Vec<Module>) -> Vec<Program> {
    modules
        .into_iter()
        .map(|module| Program {
            ir: print_module(&module),
            module,
        })
        .collect()
}

/// `-O3` reference cycles of each module, computed on `workers` threads.
pub fn o3_references(modules: &[&Module], workers: usize) -> Vec<u64> {
    let hls = HlsConfig::default();
    let mut out = vec![0u64; modules.len()];
    let chunk = modules.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        for (ms, slots) in modules.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let hls = &hls;
            scope.spawn(move || {
                for (m, slot) in ms.iter().zip(slots) {
                    *slot = o3_cycles(m, hls);
                }
            });
        }
    });
    out
}
