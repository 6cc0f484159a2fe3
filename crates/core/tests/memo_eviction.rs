//! LRU eviction behaviour of the evaluation cache and the snapshot memo
//! under capacity pressure.
//!
//! Eviction must be invisible to correctness: an evicted entry costs a
//! recompute, and the recomputed result must be bit-identical to what the
//! memo would have returned. The telemetry eviction counters must advance
//! so capacity pressure is observable in production.

use autophase_core::eval_cache::{fingerprint_module, EvalCache};
use autophase_core::incremental::{IncrementalEval, SnapEntry, SnapshotMemo};
use autophase_hls::profile::profile_module;
use autophase_hls::HlsConfig;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_passes::changeset::apply_traced;
use autophase_telemetry as telemetry;
use std::sync::Arc;

fn programs() -> Vec<Module> {
    let mut out: Vec<Module> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    out.truncate(6);
    assert!(out.len() >= 4, "suite too small for eviction pressure");
    out
}

#[test]
fn profile_cache_evicts_lru_and_recompute_is_bit_identical() {
    let programs = programs();
    let cfg = HlsConfig::default();
    let reports: Vec<_> = programs
        .iter()
        .map(|m| profile_module(m, &cfg).expect("suite programs profile"))
        .collect();
    let fps: Vec<u64> = programs.iter().map(fingerprint_module).collect();

    // One shard, so capacity 2 is the whole cache's LRU budget.
    let memo = EvalCache::with_shards(2, 1);
    memo.insert(fps[0], Arc::new(reports[0].clone()));
    memo.insert(fps[1], Arc::new(reports[1].clone()));
    assert_eq!(memo.evictions(), 0);

    // Refresh entry 0 so entry 1 is the LRU victim.
    assert!(memo.get(fps[0]).is_some());
    memo.insert(fps[2], Arc::new(reports[2].clone()));
    assert_eq!(memo.evictions(), 1);
    assert_eq!(memo.len(), 2);
    assert!(memo.get(fps[1]).is_none(), "LRU entry evicted");
    assert!(memo.get(fps[0]).is_some(), "recently used entry kept");

    // Recomputing the evicted entry gives a bit-identical report.
    let recomputed = profile_module(&programs[1], &cfg).expect("profiles again");
    assert_eq!(recomputed.cycles, reports[1].cycles);
    assert_eq!(recomputed.total_states, reports[1].total_states);
    assert_eq!(recomputed.insts_executed, reports[1].insts_executed);
    assert_eq!(recomputed.return_value, reports[1].return_value);

    // Re-inserting restores hit service.
    memo.insert(fps[1], Arc::new(recomputed));
    assert_eq!(memo.get(fps[1]).unwrap().cycles, reports[1].cycles);
}

#[test]
fn profile_cache_churn_under_sustained_pressure() {
    let programs = programs();
    let cfg = HlsConfig::default();
    let memo = EvalCache::with_shards(2, 1);
    // Stream all programs through a 2-entry memo several times: every
    // round evicts, and every served value stays correct.
    for round in 0..3 {
        for (i, m) in programs.iter().enumerate() {
            let fp = fingerprint_module(m);
            let expected = profile_module(m, &cfg).expect("profiles");
            let served = match memo.get(fp) {
                Some(hit) => hit,
                None => {
                    let fresh = Arc::new(expected.clone());
                    memo.insert(fp, Arc::clone(&fresh));
                    fresh
                }
            };
            assert_eq!(served.cycles, expected.cycles, "round {round} prog {i}");
            assert!(memo.len() <= 2);
        }
    }
    assert!(
        memo.evictions() >= programs.len() as u64,
        "sustained pressure must evict (saw {})",
        memo.evictions()
    );
}

#[test]
fn snapshot_memo_evicts_lru_and_recompute_is_bit_identical() {
    let program = programs().remove(0);
    // Record transitions for several single-pass sequences.
    let passes: [u16; 3] = [38, 23, 33];
    let mut results: Vec<(u16, String)> = Vec::new();
    let mut memo = SnapshotMemo::new(2);
    for &pass in &passes {
        let mut m = program.clone();
        let (changed, cs) = apply_traced(&mut m, pass as usize);
        let entry = if changed {
            let mut eval = IncrementalEval::new(&program);
            eval.apply(&m, &cs);
            SnapEntry::change(m.clone(), eval)
        } else {
            SnapEntry::noop()
        };
        results.push((pass, print_module(&m)));
        memo.insert(0, vec![pass], entry);
    }
    // Capacity 2, three inserts with no refreshes: the first key is gone.
    assert_eq!(memo.evictions(), 1);
    assert_eq!(memo.len(), 2);
    assert!(memo.get(0, vec![passes[0]]).is_none());

    // Recompute the evicted transition: bit-identical to the recording.
    let mut m = program.clone();
    let (changed, cs) = apply_traced(&mut m, passes[0] as usize);
    assert_eq!(print_module(&m), results[0].1, "recompute diverged");
    let entry = if changed {
        let mut eval = IncrementalEval::new(&program);
        eval.apply(&m, &cs);
        SnapEntry::change(m.clone(), eval)
    } else {
        SnapEntry::noop()
    };
    memo.insert(0, vec![passes[0]], entry);
    let restored = memo.get(0, vec![passes[0]]).expect("reinserted");
    if let Some((rm, re)) = restored.state_clone() {
        assert_eq!(print_module(&rm), results[0].1);
        assert_eq!(re.module_fp(), fingerprint_module(&rm));
    }
}

#[test]
fn eviction_telemetry_counters_advance() {
    telemetry::reset();
    telemetry::enable();

    let pm = EvalCache::with_shards(1, 1);
    let report = Arc::new(autophase_hls::profile::HlsReport {
        cycles: 1,
        total_states: 0,
        area: autophase_hls::area::AreaReport::default(),
        insts_executed: 0,
        return_value: None,
    });
    pm.insert(1, Arc::clone(&report));
    pm.insert(2, Arc::clone(&report)); // evicts fp 1
    pm.insert(3, Arc::clone(&report)); // evicts fp 2
    assert_eq!(pm.evictions(), 2);

    let mut sm = SnapshotMemo::new(1);
    sm.insert(0, vec![1], SnapEntry::noop());
    sm.insert(0, vec![2], SnapEntry::noop()); // evicts seq [1]
    assert_eq!(sm.evictions(), 1);

    telemetry::disable();
    let snap = telemetry::snapshot();
    let counter = |name: &str, label: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    assert!(
        counter("evalcache.evictions", "") >= 2,
        "evaluation cache eviction counter must advance"
    );
    assert!(
        counter("core.snap_memo", "evict") >= 1,
        "snapshot memo eviction counter must advance"
    );
    telemetry::reset();
}
