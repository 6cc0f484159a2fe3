//! Incremental evaluation state for the phase-ordering environment.
//!
//! The environment applies one pass per step, and a pass typically touches
//! one function out of many. This module keeps the derived quantities the
//! reward loop needs — per-function content fingerprints and the
//! per-function feature decomposition — maintained so that a step's cost
//! is proportional to what the pass actually changed:
//!
//! * [`IncrementalEval`] pairs the fingerprint memo
//!   ([`ModuleFingerprints`]) with the feature decomposition
//!   ([`IncrementalFeatures`]) and routes a pass's `ChangeSet` to both,
//!   re-hashing/re-extracting only dirty functions (falling back to a
//!   full rebuild on structural or signature changes). Its module
//!   fingerprint is the key of the
//!   [`EvalCache`](crate::eval_cache::EvalCache), which holds the
//!   whole-module profile results;
//! * [`SnapshotMemo`] memoizes whole *step transitions* — `(program,
//!   changing-pass sequence, pass) → post-pass module snapshot` — so
//!   re-walking a previously explored sequence (the steady state of a
//!   sharpened policy) skips pass execution itself, restoring the
//!   recorded copy-on-write snapshot instead of re-running analyses and
//!   rewrites.
//!
//! Both only ever change *when* work happens, never *what* the results
//! are: the differential suites assert bit-identical features and cycle
//! counts against the from-scratch paths.

use crate::eval_cache::ModuleFingerprints;
use autophase_features::IncrementalFeatures;
use autophase_ir::{FuncId, Module};
use autophase_passes::changeset::ChangeSet;
use autophase_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// Fingerprints + feature decomposition synced to one module state.
///
/// Invariant: after [`IncrementalEval::new`] or any sequence of
/// [`IncrementalEval::apply`] calls (one per *successful, changing* pass
/// application, with the change set that application reported),
/// `module_fp()` equals `fingerprint_module(m)` and `features()` equals
/// `extract(m)` for the synced module `m`. Rolled-back (faulted) passes
/// must not call `apply` — the rollback restores the module the state is
/// already synced with.
#[derive(Debug, Clone)]
pub struct IncrementalEval {
    fps: ModuleFingerprints,
    feats: IncrementalFeatures,
}

impl IncrementalEval {
    /// Build both memos from scratch (one full hash + one full extract).
    pub fn new(m: &Module) -> IncrementalEval {
        IncrementalEval {
            fps: ModuleFingerprints::new(m),
            feats: IncrementalFeatures::new(m),
        }
    }

    /// Re-sync everything from scratch.
    pub fn rebuild(&mut self, m: &Module) {
        self.fps.rebuild(m);
        self.feats.rebuild(m);
    }

    /// Absorb one applied pass's change set. Dirty-only updates when the
    /// change was non-structural; full rebuilds otherwise. `m` must be the
    /// post-pass module.
    pub fn apply(&mut self, m: &Module, cs: &ChangeSet) {
        if cs.needs_full_rebuild() {
            self.fps.rebuild(m);
            self.feats.rebuild(m);
            return;
        }
        if cs.globals_changed() {
            // Function slots are intact but the globals fingerprint moved;
            // features don't read globals, so only the hash side rebuilds.
            self.fps.rebuild(m);
        } else {
            self.fps.update(m, &cs.dirty_funcs);
        }
        self.feats.update(m, &cs.dirty_funcs);
    }

    /// The combined module fingerprint (equals
    /// [`crate::eval_cache::fingerprint_module`] of the synced module).
    pub fn module_fp(&self) -> u64 {
        self.fps.value()
    }

    /// One function's content fingerprint (`None` for empty slots).
    pub fn func_fp(&self, fid: FuncId) -> Option<u64> {
        self.fps.func_fp(fid)
    }

    /// The module feature vector (equals `extract` of the synced module).
    pub fn features(&self) -> autophase_features::FeatureVector {
        self.feats.total()
    }
}

/// One memoized step transition: whether the pass changed the module,
/// and — for changing passes — the post-pass module and incremental
/// state.
///
/// The module snapshot is a copy-on-write clone: it shares every
/// function body `Arc` with the state it was taken from, so an entry
/// costs O(#functions) pointers, not a deep copy, and restoring it is
/// just as cheap.
#[derive(Debug)]
pub struct SnapEntry {
    changed: bool,
    state: Option<(Module, IncrementalEval)>,
}

impl SnapEntry {
    /// Entry for a pass that left the module untouched.
    pub fn noop() -> SnapEntry {
        SnapEntry {
            changed: false,
            state: None,
        }
    }

    /// Entry for a changing pass: the post-pass module (COW clone) and
    /// the incremental state synced to it.
    pub fn change(module: Module, eval: IncrementalEval) -> SnapEntry {
        SnapEntry {
            changed: true,
            state: Some((module, eval)),
        }
    }

    /// Whether the memoized application changed the module.
    pub fn changed(&self) -> bool {
        self.changed
    }

    /// COW clones of the post-pass module and incremental state
    /// (`None` for no-op entries — there is nothing to restore).
    pub fn state_clone(&self) -> Option<(Module, IncrementalEval)> {
        self.state.as_ref().map(|(m, e)| (m.clone(), e.clone()))
    }
}

/// LRU memo of step transitions keyed by the *exact* identity of a state
/// and the pass applied to it: `(program index, changing-pass sequence
/// so far, pass)`.
///
/// Passes are deterministic, and a state is fully determined by its
/// pristine program and the ordered changing passes applied to it — so a
/// hit can replace the entire pass execution (analysis, rewriting,
/// verification) with a copy-on-write restore of the recorded result,
/// bit-identical by construction. Keys are compared exactly (no
/// hashing-to-u64), so a hit can never be a collision. Faulted applies
/// are never recorded.
#[derive(Debug)]
pub struct SnapshotMemo {
    map: HashMap<(usize, Vec<u16>), (u64, Arc<SnapEntry>)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Default capacity. Entries share function-body `Arc`s with each other
/// and with the live module, so memory scales with *distinct* function
/// versions, not entries.
pub const DEFAULT_SNAPSHOT_MEMO_CAPACITY: usize = 32_768;

impl SnapshotMemo {
    /// An empty memo holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> SnapshotMemo {
        SnapshotMemo {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up the transition for applying the last element of `seq`
    /// after its prefix, on `program`.
    pub fn get(&mut self, program: usize, seq: Vec<u16>) -> Option<Arc<SnapEntry>> {
        self.tick += 1;
        match self.map.get_mut(&(program, seq)) {
            Some((stamp, entry)) => {
                *stamp = self.tick;
                self.hits += 1;
                if telemetry::enabled() {
                    telemetry::incr("core.snap_memo", "hit", 1);
                }
                Some(Arc::clone(entry))
            }
            None => {
                self.misses += 1;
                if telemetry::enabled() {
                    telemetry::incr("core.snap_memo", "miss", 1);
                }
                None
            }
        }
    }

    /// Record a (non-faulted) transition, evicting the least-recently-
    /// used entry at capacity.
    pub fn insert(&mut self, program: usize, seq: Vec<u16>, entry: SnapEntry) {
        self.tick += 1;
        let key = (program, seq);
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(old) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&old);
                self.evictions += 1;
                if telemetry::enabled() {
                    telemetry::incr("core.snap_memo", "evict", 1);
                }
            }
        }
        self.map.insert(key, (self.tick, Arc::new(entry)));
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries evicted under capacity pressure since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of memoized transitions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Default for SnapshotMemo {
    fn default() -> SnapshotMemo {
        SnapshotMemo::new(DEFAULT_SNAPSHOT_MEMO_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_cache::fingerprint_module;
    use autophase_features::extract;
    use autophase_passes::changeset::apply_traced;

    fn program() -> Module {
        autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "dhrystone")
            .unwrap()
            .module
    }

    #[test]
    fn eval_tracks_pass_stream() {
        let mut m = program();
        let mut inc = IncrementalEval::new(&m);
        for pass in [38usize, 23, 33, 30, 31, 25, 9, 28, 7, 43] {
            let (changed, cs) = apply_traced(&mut m, pass);
            if changed {
                inc.apply(&m, &cs);
            }
            assert_eq!(inc.module_fp(), fingerprint_module(&m), "pass {pass}");
            assert_eq!(inc.features(), extract(&m), "pass {pass}");
        }
    }

    #[test]
    fn snapshot_memo_restores_exact_state() {
        let m0 = program();
        let mut memo = SnapshotMemo::new(16);
        // Record the transition for pass 38 on the pristine state.
        let mut m = m0.clone();
        let (changed, cs) = apply_traced(&mut m, 38);
        assert!(changed);
        let mut eval = IncrementalEval::new(&m0);
        eval.apply(&m, &cs);
        memo.insert(0, vec![38], SnapEntry::change(m.clone(), eval));
        memo.insert(0, vec![38, 24], SnapEntry::noop());
        // A hit restores a bit-identical module and synced eval.
        let entry = memo.get(0, vec![38]).expect("recorded");
        assert!(entry.changed());
        let (rm, re) = entry.state_clone().expect("changing entry has state");
        assert_eq!(
            autophase_ir::printer::print_module(&rm),
            autophase_ir::printer::print_module(&m)
        );
        assert_eq!(re.module_fp(), fingerprint_module(&m));
        assert_eq!(re.features(), extract(&m));
        // No-op entries carry no state.
        let noop = memo.get(0, vec![38, 24]).expect("recorded");
        assert!(!noop.changed());
        assert!(noop.state_clone().is_none());
        // Different program index or sequence: miss.
        assert!(memo.get(1, vec![38]).is_none());
        assert!(memo.get(0, vec![38, 23]).is_none());
        assert_eq!(memo.stats(), (2, 2));
    }
}
