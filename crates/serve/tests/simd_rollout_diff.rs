//! Differential suite: the batched SIMD serving rollout versus a scalar
//! reference.
//!
//! The engine's `choose_sequence` changed in two ways at once — forwards
//! go through the batching queue into one SoA GEMM per batch
//! (`SoaMlp::forward_batch`), and features resync incrementally from
//! each apply's `ChangeSet` instead of re-extracting the module. The
//! reference below is the original formulation: direct `Mlp::forward`
//! per observation (the deliberately-scalar AoS kernel) and a full
//! feature extraction after every changing pass.
//!
//! Both paths must pick the **same pass at every step** on every corpus
//! program — greedy argmax over bit-identical logits (tolerance is
//! zero; see `crates/nn/src/simd.rs`) over identical observations. The
//! assertion is on the applied sequence *and* the final module text, so
//! a divergence anywhere in the 12-step episode fails loudly.

use autophase_core::env::FILTERED_PASSES;
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::Quarantine;
use autophase_features::{extract, inst_count_filtered};
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_passes::checked::{apply_checked, FuelBudget};
use autophase_serve::engine::{serve_layout, EngineConfig, InferenceEngine, SERVE_EPISODE_LEN};
use proptest::prelude::*;

fn test_policy(seed: u64) -> Mlp {
    Mlp::new(
        &[serve_layout().obs_dim(), 24, serve_layout().num_actions()],
        Activation::Tanh,
        seed,
    )
}

/// The pre-SIMD serving rollout, reproduced verbatim: full extraction
/// per changed module, one scalar forward per step, same quarantine
/// masking and transactional applies.
fn reference_rollout(
    policy: &Mlp,
    m: &mut Module,
    fp: u64,
    quarantine: &Quarantine,
    fuel: &FuelBudget,
) -> Vec<usize> {
    let mut histogram = vec![0.0f64; serve_layout().num_actions()];
    let mut feats = inst_count_filtered(&extract(m));
    let mut applied = Vec::new();
    for _ in 0..SERVE_EPISODE_LEN {
        let mut obs = feats.clone();
        obs.extend_from_slice(&histogram);
        let logits = policy.forward(&obs);
        let mut best: Option<(usize, f64)> = None;
        for (a, &score) in logits.iter().enumerate() {
            if quarantine.is_quarantined(fp, FILTERED_PASSES[a]) {
                continue;
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((a, score));
            }
        }
        let Some((action, _)) = best else { break };
        let pass = FILTERED_PASSES[action];
        match apply_checked(m, pass, fuel) {
            Ok(true) => {
                applied.push(pass);
                feats = inst_count_filtered(&extract(m));
            }
            Ok(false) => {}
            Err(_) => {
                quarantine.record_fault(fp, pass);
            }
        }
        histogram[action] += 1.0;
    }
    applied
}

/// Run both rollouts on a fresh copy of `program` and assert they chose
/// the same ordering and produced the same module.
fn assert_rollouts_agree(engine: &InferenceEngine, policy: &Mlp, program: &Module, label: &str) {
    let fuel = FuelBudget::default();
    let fp = fingerprint_module(program);

    let mut simd_m = program.clone();
    let simd_seq = engine
        .choose_sequence(&mut simd_m, fp, &Quarantine::default(), &fuel)
        .expect("no faults injected");

    let mut ref_m = program.clone();
    let ref_seq = reference_rollout(policy, &mut ref_m, fp, &Quarantine::default(), &fuel);

    assert_eq!(
        simd_seq, ref_seq,
        "{label}: batched rollout chose a different ordering"
    );
    assert_eq!(
        print_module(&simd_m),
        print_module(&ref_m),
        "{label}: same ordering, different module"
    );
}

#[test]
fn batched_rollout_matches_scalar_reference_on_curated_suite() {
    let policy = test_policy(11);
    let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
    for b in autophase_benchmarks::suite() {
        assert_rollouts_agree(&engine, &policy, &b.module, b.name);
    }
}

#[test]
fn batched_rollout_matches_scalar_reference_on_seeded_corpus() {
    use autophase_corpus::{build_corpus, CorpusConfig};
    let corpus = build_corpus(&CorpusConfig {
        target: 16,
        workers: 2,
        ..CorpusConfig::default()
    });
    // Two distinct policies: decisions must agree under any weights, not
    // just one lucky initialization.
    for policy_seed in [7u64, 40] {
        let policy = test_policy(policy_seed);
        let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
        for (i, p) in corpus.programs.iter().enumerate() {
            assert_rollouts_agree(
                &engine,
                &policy,
                &p.module,
                &format!("seed{policy_seed}/p{i}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Random policy weights over a fixed mini-corpus: greedy decisions
    /// stay identical scalar vs SIMD for arbitrary networks.
    #[test]
    fn prop_decisions_identical_for_random_policies(seed in 0u64..1_000_000) {
        let policy = test_policy(seed);
        let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
        for b in autophase_benchmarks::suite().into_iter().take(3) {
            assert_rollouts_agree(&engine, &policy, &b.module, b.name);
        }
    }
}
