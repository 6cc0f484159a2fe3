//! Property tests of the IR's algebraic core and analyses.

use autophase_ir::fold::{eval_binop, eval_cast, eval_icmp};
use autophase_ir::{BinOp, CastOp, CmpPred, Type};
use proptest::prelude::*;

fn int_types() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::I1),
        Just(Type::I8),
        Just(Type::I16),
        Just(Type::I32),
        Just(Type::I64),
    ]
}

proptest! {
    /// Results are always in the type's canonical (sign-extended) range.
    #[test]
    fn binop_results_canonical(ty in int_types(), a in any::<i64>(), b in any::<i64>()) {
        for op in BinOp::ALL {
            let r = eval_binop(op, ty, ty.wrap(a), ty.wrap(b));
            prop_assert_eq!(r, ty.wrap(r), "{:?} at {} not canonical", op, ty);
        }
    }

    /// Commutative ops commute; associative ops associate (on canonical
    /// inputs).
    #[test]
    fn algebraic_laws(ty in int_types(), a in any::<i64>(), b in any::<i64>(), c in any::<i64>()) {
        let (a, b, c) = (ty.wrap(a), ty.wrap(b), ty.wrap(c));
        for op in BinOp::ALL {
            if op.is_commutative() {
                prop_assert_eq!(eval_binop(op, ty, a, b), eval_binop(op, ty, b, a));
            }
            if op.is_associative() {
                let l = eval_binop(op, ty, eval_binop(op, ty, a, b), c);
                let r = eval_binop(op, ty, a, eval_binop(op, ty, b, c));
                prop_assert_eq!(l, r, "{:?} not associative at {}", op, ty);
            }
        }
    }

    /// The icmp predicate trichotomy: exactly one of <, ==, > holds (signed
    /// and unsigned).
    #[test]
    fn icmp_trichotomy(ty in int_types(), a in any::<i64>(), b in any::<i64>()) {
        let (a, b) = (ty.wrap(a), ty.wrap(b));
        let signed = [CmpPred::Slt, CmpPred::Eq, CmpPred::Sgt];
        let hits = signed.iter().filter(|&&p| eval_icmp(p, ty, a, b) != 0).count();
        prop_assert_eq!(hits, 1);
        let unsigned = [CmpPred::Ult, CmpPred::Eq, CmpPred::Ugt];
        let hits = unsigned.iter().filter(|&&p| eval_icmp(p, ty, a, b) != 0).count();
        prop_assert_eq!(hits, 1);
    }

    /// `swapped` and `inverse` mean what they claim.
    #[test]
    fn pred_swap_inverse_semantics(ty in int_types(), a in any::<i64>(), b in any::<i64>()) {
        let (a, b) = (ty.wrap(a), ty.wrap(b));
        for p in CmpPred::ALL {
            prop_assert_eq!(
                eval_icmp(p, ty, a, b),
                eval_icmp(p.swapped(), ty, b, a),
                "{:?} swap", p
            );
            prop_assert_eq!(
                eval_icmp(p, ty, a, b) != 0,
                eval_icmp(p.inverse(), ty, a, b) == 0,
                "{:?} inverse", p
            );
        }
    }

    /// trunc∘sext is the identity; trunc∘zext is the identity; sext/zext
    /// agree on non-negative values.
    #[test]
    fn cast_roundtrips(v in any::<i64>()) {
        let small = Type::I16.wrap(v);
        let s = eval_cast(CastOp::SExt, Type::I16, Type::I64, small);
        prop_assert_eq!(eval_cast(CastOp::Trunc, Type::I64, Type::I16, s), small);
        let z = eval_cast(CastOp::ZExt, Type::I16, Type::I64, small);
        prop_assert_eq!(eval_cast(CastOp::Trunc, Type::I64, Type::I16, z), small);
        if small >= 0 {
            prop_assert_eq!(s, z);
        }
    }

    /// Division semantics: (a/b)*b + a%b == a whenever b != 0 (signed and
    /// unsigned, any width).
    #[test]
    fn div_rem_identity(ty in int_types(), a in any::<i64>(), b in any::<i64>()) {
        let (a, b) = (ty.wrap(a), ty.wrap(b));
        prop_assume!(b != 0);
        let q = eval_binop(BinOp::SDiv, ty, a, b);
        let r = eval_binop(BinOp::SRem, ty, a, b);
        let back = eval_binop(BinOp::Add, ty, eval_binop(BinOp::Mul, ty, q, b), r);
        prop_assert_eq!(back, a, "signed at {}", ty);
        let q = eval_binop(BinOp::UDiv, ty, a, b);
        let r = eval_binop(BinOp::URem, ty, a, b);
        let back = eval_binop(BinOp::Add, ty, eval_binop(BinOp::Mul, ty, q, b), r);
        prop_assert_eq!(back, a, "unsigned at {}", ty);
    }

    /// Shifts by the masked amount match shifts by the raw amount.
    #[test]
    fn shift_amount_masking(ty in int_types(), a in any::<i64>(), s in any::<i64>()) {
        let a = ty.wrap(a);
        let masked = s & (ty.bits() as i64 - 1);
        for op in [BinOp::Shl, BinOp::LShr, BinOp::AShr] {
            prop_assert_eq!(
                eval_binop(op, ty, a, s),
                eval_binop(op, ty, a, masked),
                "{:?} at {}", op, ty
            );
        }
    }
}

mod structural {
    use autophase_ir::cfg::Cfg;
    use autophase_ir::dom::DomTree;
    use autophase_ir::loops::find_loops;
    use autophase_progen::{generate_valid, GenConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Dominator-tree laws on generated programs: entry dominates every
        /// reachable block; idom strictly dominates its node; loop headers
        /// dominate all their blocks.
        #[test]
        fn dominator_and_loop_laws(seed in 0u64..3000) {
            let m = generate_valid(&GenConfig::default(), seed);
            for fid in m.func_ids() {
                let f = m.func(fid);
                let cfg = Cfg::new(f);
                let dt = DomTree::new(f, &cfg);
                for &bb in cfg.rpo() {
                    prop_assert!(dt.dominates(f.entry, bb));
                    if let Some(idom) = dt.idom(bb) {
                        prop_assert!(dt.strictly_dominates(idom, bb));
                    }
                }
                for l in find_loops(f, &cfg, &dt) {
                    for &bb in &l.blocks {
                        prop_assert!(dt.dominates(l.header, bb), "header must dominate loop body");
                    }
                    for &latch in &l.latches {
                        prop_assert!(l.contains(latch));
                        prop_assert!(cfg.succs(latch).contains(&l.header));
                    }
                    for &e in &l.exits {
                        prop_assert!(!l.contains(e));
                    }
                }
            }
        }

        /// The printer emits one line per live instruction (smoke-level
        /// structural consistency of the textual form).
        #[test]
        fn printer_covers_all_instructions(seed in 0u64..3000) {
            let m = generate_valid(&GenConfig::default(), seed);
            let text = autophase_ir::printer::print_module(&m);
            for fid in m.func_ids() {
                let f = m.func(fid);
                // every block label appears
                for bb in f.block_ids() {
                    let label = format!("b{}:", bb.index());
                    prop_assert!(text.contains(&label), "missing block label");
                }
            }
            let printed_insts = text.lines().filter(|l| l.starts_with("  ")).count();
            prop_assert_eq!(printed_insts, m.num_insts());
        }
    }
}

mod cfg_shape {
    use autophase_ir::cfg::Cfg;
    use autophase_ir::dom::DomTree;
    use autophase_ir::{BlockId, Function, Inst, Opcode, Type, Value};
    use proptest::prelude::*;

    /// A random CFG of `n` blocks: each block ends in a `ret`, `br`,
    /// `condbr` (possibly with both arms equal) or `switch` to random
    /// targets. Blocks picked as "dead" are never targeted and are then
    /// removed, leaving holes in the block arena; other blocks may still
    /// be unreachable.
    fn random_cfg(seed: u64, n: usize) -> (Function, Vec<BlockId>) {
        let mut s = seed | 1;
        let mut next = move |bound: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % bound as u64) as usize
        };
        let mut f = Function::new("cfg", vec![Type::I1, Type::I32], Type::Void);
        let blocks: Vec<BlockId> = (0..n)
            .map(|i| if i == 0 { f.entry } else { f.add_block() })
            .collect();
        let dead: Vec<BlockId> = blocks[1..]
            .iter()
            .copied()
            .filter(|_| next(5) == 0)
            .collect();
        let live: Vec<BlockId> = blocks
            .iter()
            .copied()
            .filter(|b| !dead.contains(b))
            .collect();
        for &bb in &blocks {
            let shape = next(6);
            let mut pick = || live[next(live.len())];
            let op = match shape {
                0 => Opcode::Ret { value: None },
                1 | 2 => Opcode::Br { target: pick() },
                3 | 4 => Opcode::CondBr {
                    cond: Value::Arg(0),
                    then_bb: pick(),
                    else_bb: pick(),
                },
                _ => Opcode::Switch {
                    value: Value::Arg(1),
                    default: pick(),
                    cases: vec![(1, pick()), (2, pick())],
                },
            };
            f.append_inst(bb, Inst::new(Type::Void, op));
        }
        for &bb in &dead {
            f.remove_block(bb);
        }
        (f, dead)
    }

    /// Reference reachability: blocks reachable from the entry without
    /// passing through `avoid`.
    fn reachable_avoiding(
        cfg: &Cfg,
        entry: BlockId,
        avoid: Option<BlockId>,
        cap: usize,
    ) -> Vec<bool> {
        let mut seen = vec![false; cap];
        if Some(entry) == avoid {
            return seen;
        }
        let mut stack = vec![entry];
        seen[entry.index()] = true;
        while let Some(bb) = stack.pop() {
            for &s in cfg.succs(bb) {
                if Some(s) != avoid && !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Dominator children are exactly the sorted set of blocks whose
        /// immediate dominator is the parent; `Cfg::is_reachable` agrees
        /// with RPO membership; removed and out-of-range blocks have no
        /// edges; and `dominates` agrees with the definition (every path
        /// from the entry to `b` passes through `a`).
        #[test]
        fn dense_cfg_and_dom_tree_laws(seed in any::<u64>(), n in 1usize..24) {
            let (f, dead) = random_cfg(seed, n);
            let cfg = Cfg::new(&f);
            let dt = DomTree::new(&f, &cfg);
            let cap = f.block_capacity();
            let all: Vec<BlockId> = (0..cap + 3).map(BlockId::from_index).collect();

            for &bb in &all {
                let expect: Vec<BlockId> = all
                    .iter()
                    .copied()
                    .filter(|&b| b != f.entry && dt.idom(b) == Some(bb))
                    .collect();
                prop_assert_eq!(dt.children(bb), expect.as_slice());
                prop_assert_eq!(cfg.is_reachable(bb), cfg.rpo().contains(&bb));
                prop_assert_eq!(dt.rpo_index(bb), cfg.rpo().iter().position(|&b| b == bb));
                prop_assert_eq!(dt.is_reachable(bb), cfg.is_reachable(bb));
            }
            for bb in dead.iter().copied().chain((cap..cap + 3).map(BlockId::from_index)) {
                prop_assert!(cfg.preds(bb).is_empty());
                prop_assert!(cfg.succs(bb).is_empty());
            }

            let reach = reachable_avoiding(&cfg, f.entry, None, cap);
            for &b in cfg.rpo() {
                prop_assert!(reach[b.index()]);
            }
            prop_assert_eq!(cfg.rpo().len(), reach.iter().filter(|&&r| r).count());
            for &a in cfg.rpo() {
                let without_a = reachable_avoiding(&cfg, f.entry, Some(a), cap);
                for &b in cfg.rpo() {
                    let by_definition = a == b || !without_a[b.index()];
                    prop_assert_eq!(dt.dominates(a, b), by_definition);
                }
            }
        }
    }
}
