//! The evaluation cache: the one memo of HLS profiler results.
//!
//! Profiling a module (interpret + schedule + area) dominates the cost of
//! every environment step, and RL training revisits the same module
//! states constantly — every episode re-profiles the pristine program,
//! and a sharpening policy replays near-identical pass sequences. This
//! cache memoizes one [`HlsReport`] per reached module state so each
//! state is profiled at most once per cache lifetime.
//!
//! # Key
//!
//! The key is the module's **content fingerprint**
//! ([`fingerprint_module`], maintained incrementally by
//! [`ModuleFingerprints`]). Two pass sequences that reach the same module
//! — no-op padding, commuting passes, a transaction rollback, or a
//! different program that happens to equal an optimized state of this
//! one — share one entry. The value is a pure function of the module and
//! the [`HlsConfig`](autophase_hls::HlsConfig), so a cache shared across
//! environments assumes they all profile under one `HlsConfig`. Failed
//! profiles are never inserted.
//!
//! # Sharding and eviction
//!
//! Entries live in `2^k` independently locked shards selected by the
//! mixed key, so concurrent workers rarely contend. Each shard holds at
//! most `capacity / shards` entries; inserting into a full shard evicts
//! its least-recently-used entry (a monotone stamp updated on every hit).
//! Hits, misses, and evictions are tracked with per-shard atomic counters
//! — [`EvalCache::stats`] aggregates them, [`EvalCache::shard_stats`]
//! exposes the per-shard breakdown (how evenly keys spread), and when
//! telemetry is enabled every lookup also feeds the global
//! `evalcache.lookups{hit|miss}` / `evalcache.evictions` counters.

use autophase_hls::profile::HlsReport;
use autophase_ir::fingerprint::mix64 as mix;
use autophase_ir::Module;
use autophase_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock a shard, recovering from poisoning. A thread that panics while
/// holding a shard lock (e.g. a worker hit by an injected fault)
/// leaves the map intact — every mutation below is a single HashMap
/// operation that either completes or doesn't — so the poison flag carries
/// no information and the shard must stay usable.
fn lock_shard<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fingerprint of a module's current state: an order-sensitive combine of
/// its name, per-slot global fingerprints, and per-slot function
/// fingerprints (see [`autophase_ir::fingerprint`]). Because the value is
/// composed from per-slot hashes, an incremental maintainer
/// ([`ModuleFingerprints`]) can re-hash only dirty slots and arrive at
/// exactly this value.
pub fn fingerprint_module(m: &Module) -> u64 {
    autophase_ir::fingerprint::fingerprint_module(m)
}

/// Incrementally maintained per-slot function fingerprints plus the
/// combined module value.
///
/// [`ModuleFingerprints::update`] re-hashes only the functions a pass
/// dirtied (per the pass layer's `ChangeSet`); structural or global
/// changes route through [`ModuleFingerprints::rebuild`]. The combined
/// value always equals [`fingerprint_module`] of the synced module, so
/// content-addressed caches keyed either way agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleFingerprints {
    name_fp: u64,
    globals_fp: u64,
    per_func: Vec<Option<u64>>,
}

impl ModuleFingerprints {
    /// Hash everything from scratch.
    pub fn new(m: &Module) -> ModuleFingerprints {
        let mut fps = ModuleFingerprints {
            name_fp: 0,
            globals_fp: 0,
            per_func: Vec::new(),
        };
        fps.rebuild(m);
        fps
    }

    /// Re-hash the whole module (structural changes, global mutations,
    /// or first sync).
    pub fn rebuild(&mut self, m: &Module) {
        use autophase_ir::fingerprint::{
            combine_slots, fingerprint_function, fingerprint_global, fnv1a,
        };
        self.name_fp = fnv1a(m.name.as_bytes());
        self.globals_fp = combine_slots(
            0x610B_A150_610B_A150,
            (0..m.global_capacity()).map(|i| {
                m.global_arc(autophase_ir::GlobalId::from_index(i))
                    .map(|g| fingerprint_global(g))
            }),
        );
        self.per_func.clear();
        self.per_func.resize(m.func_capacity(), None);
        for fid in m.func_ids() {
            self.per_func[fid.index()] = Some(fingerprint_function(m.func(fid)));
        }
    }

    /// Re-hash only `dirty` functions. Sound only for non-structural
    /// changes that left globals untouched (the caller falls back to
    /// [`ModuleFingerprints::rebuild`] otherwise).
    pub fn update(&mut self, m: &Module, dirty: &[autophase_ir::FuncId]) {
        use autophase_ir::fingerprint::fingerprint_function;
        for &fid in dirty {
            self.per_func[fid.index()] = Some(fingerprint_function(m.func(fid)));
        }
    }

    /// The fingerprint of one function slot (`None` for empty slots).
    pub fn func_fp(&self, fid: autophase_ir::FuncId) -> Option<u64> {
        self.per_func.get(fid.index()).copied().flatten()
    }

    /// The combined module fingerprint — equal to [`fingerprint_module`]
    /// of the module this state is synced with.
    pub fn value(&self) -> u64 {
        use autophase_ir::fingerprint::combine_slots;
        let funcs_fp = combine_slots(0xF07C_F07C_F07C_F07C, self.per_func.iter().copied());
        mix(self.name_fp ^ mix(self.globals_fp ^ mix(funcs_fp)))
    }
}

/// Counter snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard {
    map: Mutex<HashMap<u64, (u64, Arc<HlsReport>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: lock_shard(&self.map).len(),
        }
    }
}

/// Process-wide telemetry handles for cache traffic, cached so the lookup
/// path never takes the registry lock.
struct CacheInstruments {
    hits: Arc<telemetry::Counter>,
    misses: Arc<telemetry::Counter>,
    evictions: Arc<telemetry::Counter>,
}

fn cache_instruments() -> &'static CacheInstruments {
    static CELL: OnceLock<CacheInstruments> = OnceLock::new();
    CELL.get_or_init(|| CacheInstruments {
        hits: telemetry::counter("evalcache.lookups", "hit"),
        misses: telemetry::counter("evalcache.lookups", "miss"),
        evictions: telemetry::counter("evalcache.evictions", ""),
    })
}

/// Sharded, thread-safe LRU of profiler reports keyed by module content
/// fingerprint.
pub struct EvalCache {
    shards: Vec<Shard>,
    shard_mask: usize,
    per_shard_cap: usize,
    stamp: AtomicU64,
}

/// Default total capacity (entries). A report is ~100 bytes, so even a
/// full cache is small.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Default shard count (power of two).
pub const DEFAULT_SHARDS: usize = 16;

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new(DEFAULT_CAPACITY)
    }
}

impl EvalCache {
    /// A cache holding at most `capacity` entries across the default
    /// shard count.
    pub fn new(capacity: usize) -> EvalCache {
        EvalCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (rounded up to a power of
    /// two).
    pub fn with_shards(capacity: usize, shards: usize) -> EvalCache {
        let shards = shards.max(1).next_power_of_two();
        let per_shard_cap = (capacity / shards).max(1);
        EvalCache {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_mask: shards - 1,
            per_shard_cap,
            stamp: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: u64) -> &Shard {
        &self.shards[mix(fp) as usize & self.shard_mask]
    }

    fn next_stamp(&self) -> u64 {
        self.stamp.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up the report of the module with fingerprint `fp`, counting a
    /// hit or a miss.
    pub fn get(&self, fp: u64) -> Option<Arc<HlsReport>> {
        let shard = self.shard(fp);
        let found = {
            let mut map = lock_shard(&shard.map);
            map.get_mut(&fp).map(|slot| {
                slot.0 = self.next_stamp();
                Arc::clone(&slot.1)
            })
        };
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            if telemetry::enabled() {
                cache_instruments().hits.add(1);
            }
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
            if telemetry::enabled() {
                cache_instruments().misses.add(1);
            }
        }
        found
    }

    /// Insert (or refresh) the report of the module with fingerprint
    /// `fp`, evicting the shard's LRU entry when the shard is full.
    pub fn insert(&self, fp: u64, report: Arc<HlsReport>) {
        let stamp = self.next_stamp();
        let shard = self.shard(fp);
        let mut map = lock_shard(&shard.map);
        if map.len() >= self.per_shard_cap && !map.contains_key(&fp) {
            if let Some(oldest) = map.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| *k) {
                map.remove(&oldest);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                if telemetry::enabled() {
                    cache_instruments().evictions.add(1);
                }
            }
        }
        map.insert(fp, (stamp, report));
    }

    /// Resident entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(&s.map).len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Entries displaced by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot all counters, aggregated across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            len: 0,
        };
        for s in self.shard_stats() {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.len;
        }
        total
    }

    /// Per-shard counter snapshots, in shard-index order. Shows how evenly
    /// the key mix spreads load (a hot shard means lock contention).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Export the aggregate counters as telemetry gauges
    /// (`evalcache.hits` / `misses` / `evictions` / `len` /
    /// `hit_rate`). No-op when telemetry is disabled. Call at a run
    /// boundary (end of a bench round, end of training) — the live
    /// `evalcache.lookups{hit|miss}` counters cover the streaming view.
    pub fn publish_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        let s = self.stats();
        telemetry::set_gauge("evalcache.hits", "", s.hits as f64);
        telemetry::set_gauge("evalcache.misses", "", s.misses as f64);
        telemetry::set_gauge("evalcache.evictions", "", s.evictions as f64);
        telemetry::set_gauge("evalcache.len", "", s.len as f64);
        telemetry::set_gauge("evalcache.hit_rate", "", s.hit_rate());
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            lock_shard(&s.map).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> Arc<HlsReport> {
        Arc::new(HlsReport {
            cycles,
            total_states: 0,
            area: autophase_hls::area::AreaReport::default(),
            insts_executed: 0,
            return_value: None,
        })
    }

    #[test]
    fn incremental_fingerprints_match_full() {
        use autophase_passes::changeset::apply_traced;
        let mut m = autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module;
        let mut fps = ModuleFingerprints::new(&m);
        assert_eq!(fps.value(), fingerprint_module(&m));
        for pass in [38usize, 23, 33, 30, 31, 25, 9, 28] {
            let (changed, cs) = apply_traced(&mut m, pass);
            if !changed {
                continue;
            }
            if cs.needs_full_rebuild() || cs.globals_changed() {
                fps.rebuild(&m);
            } else {
                fps.update(&m, &cs.dirty_funcs);
            }
            assert_eq!(
                fps.value(),
                fingerprint_module(&m),
                "divergence after pass {pass}"
            );
        }
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let c = EvalCache::new(64);
        assert!(c.get(2).is_none());
        c.insert(2, report(7));
        assert_eq!(c.get(2).unwrap().cycles, 7);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_bounds_size_and_counts() {
        let c = EvalCache::with_shards(8, 1);
        for i in 0..50u64 {
            c.insert(i, report(i));
        }
        assert!(c.len() <= 8);
        assert_eq!(c.evictions(), 50 - c.len() as u64);
        // Whatever survives must still map key → its own value.
        for i in 0..50u64 {
            if let Some(r) = c.get(i) {
                assert_eq!(r.cycles, i);
            }
        }
    }

    #[test]
    fn hit_rate_is_zero_not_nan_with_no_lookups() {
        let c = EvalCache::new(64);
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert!(!s.hit_rate().is_nan());
    }

    #[test]
    fn shard_stats_sum_to_aggregate() {
        let c = EvalCache::with_shards(64, 4);
        for i in 0..40u64 {
            let fp = i * 3;
            c.get(fp); // miss
            c.insert(fp, report(i));
            c.get(fp); // hit
        }
        let per_shard = c.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let agg = c.stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), agg.hits);
        assert_eq!(per_shard.iter().map(|s| s.misses).sum::<u64>(), agg.misses);
        assert_eq!(
            per_shard.iter().map(|s| s.evictions).sum::<u64>(),
            agg.evictions
        );
        assert_eq!(per_shard.iter().map(|s| s.len).sum::<usize>(), agg.len);
        assert_eq!(agg.hits, 40);
        assert_eq!(agg.misses, 40);
    }

    #[test]
    fn panic_mid_insert_does_not_wedge_the_shard() {
        // Single shard so the poisoned lock is the one every later call
        // takes. Panic while holding the shard's map lock — the worst
        // possible interleaving a panicking worker can produce.
        let c = Arc::new(EvalCache::with_shards(64, 1));
        c.insert(3, report(11));
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            let _guard = lock_shard(&c2.shards[0].map);
            panic!("poison the shard on purpose");
        });
        assert!(t.join().is_err());
        // Every operation must still go through, with the data intact.
        assert_eq!(c.get(3).unwrap().cycles, 11);
        c.insert(5, report(12));
        assert_eq!(c.get(5).unwrap().cycles, 12);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().len, 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn lru_keeps_recently_used() {
        let c = EvalCache::with_shards(2, 1);
        c.insert(1, report(1));
        c.insert(2, report(2));
        c.get(1); // 1 is now most recent
        c.insert(3, report(3)); // evicts 2
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
    }
}
