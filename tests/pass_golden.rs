//! Golden pass-output digests (tier 1).
//!
//! Pins the exact output of every one of the 45 Table-1 passes, so a
//! rewrite of a pass kernel or of the IR analyses under it (CFG,
//! dominators, loops) cannot change what any pass emits without this
//! test naming the pass.
//!
//! Corpus: the nine-program benchmark suite plus a fixed set of generated
//! programs. States of each program: pristine, warmed (the canonicalizing
//! prefix `tests/pass_semantics_diff.rs` uses), and every state along a
//! fixed walk over the serving pass subset (`FILTERED_PASSES`), starting
//! from pristine the way a cold rollout does. At every state each pass is
//! applied once with `registry::apply`; the pass's change flag and the
//! FNV-1a of the printed module are folded into one digest per pass.
//!
//! FNV-1a is spelled out here rather than taken from `DefaultHasher`,
//! whose algorithm is not stable across Rust releases. A mismatch prints
//! the whole recomputed table; replace `GOLDEN` with it only when a pass's
//! output is meant to change.

use autophase::benchmarks::suite;
use autophase::core::env::FILTERED_PASSES;
use autophase::ir::printer::print_module;
use autophase::ir::Module;
use autophase::passes::registry::{self, NUM_PASSES};
use autophase::progen::{generate_valid, GenConfig};

/// Generated programs in the corpus, beside the nine-program suite.
const PROGEN_SEEDS: [u64; 10] = [7, 58, 311, 1337, 2024, 4242, 8191, 27182, 31415, 90210];

/// The "warmed" state: -loop-rotate, -loop-unroll, -loop-unswitch.
const WARM_PREFIX: [usize; 3] = [23, 33, 10];

/// Positions into `FILTERED_PASSES` of the fixed walk: -mem2reg, -gvn,
/// -loop-rotate, -loop-unroll, -instcombine, -gvn, -simplifycfg,
/// -scalarrepl-ssa, -reassociate, -early-cse, -loop-reduce, -adce,
/// -inline, -gvn, -loop-rotate, -loop-unroll, -dse, -loop-deletion.
const WALK: [usize; 18] = [16, 1, 6, 15, 12, 1, 13, 2, 5, 9, 3, 10, 8, 1, 6, 15, 14, 4];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn corpus() -> Vec<Module> {
    let cfg = GenConfig::default();
    suite::suite()
        .into_iter()
        .map(|b| b.module)
        .chain(PROGEN_SEEDS.iter().map(|&s| generate_valid(&cfg, s)))
        .collect()
}

/// Every state of one program the passes are applied to.
fn states(m0: &Module) -> Vec<Module> {
    let mut warmed = m0.clone();
    for &p in &WARM_PREFIX {
        registry::apply(&mut warmed, p);
    }
    let mut out = vec![m0.clone(), warmed];
    let mut cur = m0.clone();
    for &i in &WALK {
        registry::apply(&mut cur, FILTERED_PASSES[i]);
        out.push(cur.clone());
    }
    out
}

fn digests() -> Vec<u64> {
    let mut digests = vec![FNV_OFFSET; NUM_PASSES];
    for m0 in corpus() {
        for state in states(&m0) {
            for (pass, digest) in digests.iter_mut().enumerate() {
                let mut m = state.clone();
                let changed = registry::apply(&mut m, pass);
                *digest = fnv1a(*digest, &[u8::from(changed)]);
                *digest = fnv1a(
                    *digest,
                    &fnv1a(FNV_OFFSET, print_module(&m).as_bytes()).to_le_bytes(),
                );
            }
        }
    }
    digests
}

#[test]
fn walk_stays_inside_the_serving_subset() {
    assert!(WALK.iter().all(|&i| i < FILTERED_PASSES.len()));
    let names: Vec<&str> = WALK
        .iter()
        .map(|&i| registry::pass_name(FILTERED_PASSES[i]))
        .collect();
    assert_eq!(
        names[..4],
        ["-mem2reg", "-gvn", "-loop-rotate", "-loop-unroll"]
    );
}

#[test]
fn every_pass_output_matches_its_golden_digest() {
    let got = digests();
    let mismatched: Vec<&str> = (0..NUM_PASSES)
        .filter(|&p| got[p] != GOLDEN[p])
        .map(registry::pass_name)
        .collect();
    let table: String = got
        .iter()
        .enumerate()
        .map(|(p, d)| format!("    0x{d:016x}, // {p} {}\n", registry::pass_name(p)))
        .collect();
    assert!(
        mismatched.is_empty(),
        "pass output changed for {mismatched:?}; recomputed table:\n{table}"
    );
}

/// Per-pass digests, indexed by pass id.
const GOLDEN: [u64; NUM_PASSES] = [
    0x183b916b1f95e157, // 0 -correlated-propagation
    0x725dca364471b041, // 1 -scalarrepl
    0x183b916b1f95e157, // 2 -lowerinvoke
    0x183b916b1f95e157, // 3 -strip
    0x183b916b1f95e157, // 4 -strip-nondebug
    0xf76f673a80adbd82, // 5 -sccp
    0x602b1914aaf0b998, // 6 -globalopt
    0xbcee861ec2e2b9ae, // 7 -gvn
    0x183b916b1f95e157, // 8 -jump-threading
    0x7aa2b401e0b6ddde, // 9 -globaldce
    0x183b916b1f95e157, // 10 -loop-unswitch
    0xe53b2b9f2a62b56d, // 11 -scalarrepl-ssa
    0x1709a6106f5ede51, // 12 -loop-reduce
    0x25e1e9c0b66a019b, // 13 -break-crit-edges
    0x3eb6bf92a2bfee9b, // 14 -loop-deletion
    0x075e9a2d77bb3085, // 15 -reassociate
    0x619d23041b0249e0, // 16 -lcssa
    0x83104e26d5d9ca1d, // 17 -codegenprepare
    0xc331f0e6d2d0d3c9, // 18 -memcpyopt
    0x055ef37d583bc8c9, // 19 -functionattrs
    0xaf1a92af3a6be8e9, // 20 -loop-idiom
    0x183b916b1f95e157, // 21 -lowerswitch
    0x183b916b1f95e157, // 22 -constmerge
    0x45366ceb1691ff4e, // 23 -loop-rotate
    0xa8d2d28432fd43c6, // 24 -partial-inliner
    0x8b9962315460e969, // 25 -inline
    0x095219071e49e633, // 26 -early-cse
    0xb123375fe75735b8, // 27 -indvars
    0x7e9ae4946354292e, // 28 -adce
    0xdbf5107ae45ae0fe, // 29 -loop-simplify
    0xc9c4043e5fd931dd, // 30 -instcombine
    0xace4d7b7952647ec, // 31 -simplifycfg
    0x1780b419e9eba485, // 32 -dse
    0x46d90c8805840cfd, // 33 -loop-unroll
    0x183b916b1f95e157, // 34 -lower-expect
    0x183b916b1f95e157, // 35 -tailcallelim
    0x9938218b53d171e9, // 36 -licm
    0xfed56af33997d16f, // 37 -sink
    0x4facb22272b54943, // 38 -mem2reg
    0x183b916b1f95e157, // 39 -prune-eh
    0x055ef37d583bc8c9, // 40 -functionattrs
    0x06aa61d133867b40, // 41 -ipsccp
    0xad140be9d2e61065, // 42 -deadargelim
    0x61c0c0e4ef9f2084, // 43 -sroa
    0x183b916b1f95e157, // 44 -loweratomic
];
