//! `-mem2reg`: promote memory to SSA registers.
//!
//! Single-element allocas whose address never escapes (used only by direct
//! loads and stores of the element type) are rewritten into SSA form with
//! φ-nodes placed on iterated dominance frontiers, then renamed along the
//! dominator tree — the classic Cytron et al. construction.

use crate::util;
use autophase_ir::cfg::Cfg;
use autophase_ir::dom::DomTree;
use autophase_ir::{BlockId, FuncId, Inst, InstId, Module, Opcode, Value};
use std::collections::{HashMap, HashSet};

/// Run the pass. Returns true if any alloca was promoted.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, promote_function)
}

/// Find promotable allocas in one function and promote them all.
fn promote_function(m: &mut Module, fid: FuncId) -> bool {
    let candidates = promotable_allocas(m.func(fid));
    if candidates.is_empty() {
        return false;
    }
    for alloca in candidates {
        promote_one(m.func_mut(fid), alloca);
    }
    util::delete_dead(m, fid);
    true
}

/// Allocas that can be promoted: one element, and every use is a direct
/// `load`/`store` of a matching integer type with the alloca as the
/// *address* (never as the stored value, a `gep` base, a cast input, or a
/// call argument).
pub fn promotable_allocas(f: &autophase_ir::Function) -> Vec<InstId> {
    let mut out = Vec::new();
    for bb in f.block_ids() {
        'cand: for &iid in &f.block(bb).insts {
            let Opcode::Alloca { elem_ty, count } = f.inst(iid).op else {
                continue;
            };
            if count != 1 || !elem_ty.is_int() {
                continue;
            }
            let addr = Value::Inst(iid);
            for (user, _) in f.users(addr) {
                match &f.inst(user).op {
                    Opcode::Load { ptr } if *ptr == addr => {
                        if f.inst(user).ty != elem_ty {
                            continue 'cand;
                        }
                    }
                    Opcode::Store { ptr, value } if *ptr == addr && *value != addr => {
                        if util::type_of(f, *value) != elem_ty {
                            continue 'cand;
                        }
                    }
                    _ => continue 'cand,
                }
            }
            out.push(iid);
        }
    }
    out
}

/// Promote one alloca to SSA.
fn promote_one(f: &mut autophase_ir::Function, alloca: InstId) {
    let elem_ty = match f.inst(alloca).op {
        Opcode::Alloca { elem_ty, .. } => elem_ty,
        _ => unreachable!("promote_one on non-alloca"),
    };
    let addr = Value::Inst(alloca);
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);

    // Blocks containing a store (definitions).
    let mut def_blocks: Vec<BlockId> = Vec::new();
    for bb in f.block_ids() {
        let defines = f
            .block(bb)
            .insts
            .iter()
            .any(|&i| matches!(&f.inst(i).op, Opcode::Store { ptr, .. } if *ptr == addr));
        if defines && !def_blocks.contains(&bb) {
            def_blocks.push(bb);
        }
    }

    // Place φ-nodes on the iterated dominance frontier of the defs.
    let df = dt.dominance_frontiers(&cfg);
    let mut phi_blocks: HashSet<BlockId> = HashSet::new();
    let mut work = def_blocks.clone();
    while let Some(bb) = work.pop() {
        for &fr in &df[bb.index()] {
            if phi_blocks.insert(fr) {
                work.push(fr);
            }
        }
    }
    let mut phi_of_block: HashMap<BlockId, InstId> = HashMap::new();
    // Place φs in function block order, not HashSet order: φ InstIds must
    // be assigned deterministically or repeated runs of the pass print
    // differently, which breaks fingerprint-keyed caching.
    let ordered: Vec<BlockId> = f.block_ids().filter(|bb| phi_blocks.contains(bb)).collect();
    for bb in ordered {
        if !cfg.is_reachable(bb) {
            continue;
        }
        let phi = f.insert_inst(bb, 0, Inst::new(elem_ty, Opcode::Phi { incoming: vec![] }));
        phi_of_block.insert(bb, phi);
    }

    // Rename along the dominator tree.
    let mut stack: Vec<(BlockId, Value)> = vec![(f.entry, Value::Undef(elem_ty))];
    let mut visited: HashSet<BlockId> = HashSet::new();
    while let Some((bb, mut cur)) = stack.pop() {
        if !visited.insert(bb) {
            continue;
        }
        if let Some(&phi) = phi_of_block.get(&bb) {
            cur = Value::Inst(phi);
        }
        let insts: Vec<InstId> = f.block(bb).insts.clone();
        for iid in insts {
            match f.inst(iid).op.clone() {
                Opcode::Load { ptr } if ptr == addr => {
                    f.replace_all_uses(Value::Inst(iid), cur);
                    f.remove_inst(bb, iid);
                }
                Opcode::Store { ptr, value } if ptr == addr => {
                    cur = value;
                    f.remove_inst(bb, iid);
                }
                _ => {}
            }
        }
        // Feed successors' φ-nodes.
        for succ in f.successors(bb) {
            if let Some(&phi) = phi_of_block.get(&succ) {
                if let Opcode::Phi { incoming } = &mut f.inst_mut(phi).op {
                    if !incoming.iter().any(|(p, _)| *p == bb) {
                        incoming.push((bb, cur));
                    }
                }
            }
        }
        // Recurse into dominator-tree children with the current value.
        for &child in dt.children(bb) {
            stack.push((child, cur));
        }
    }

    // Some placed φs may sit in blocks with predecessors never visited
    // (unreachable); those entries simply stay absent, matching the
    // verifier's reachable-only φ rule. Remove φs that ended up with no
    // incoming entries (in unreachable code).
    let mut placed: Vec<(BlockId, InstId)> = phi_of_block.iter().map(|(&b, &p)| (b, p)).collect();
    placed.sort_unstable();
    for (bb, phi) in placed {
        let empty = matches!(&f.inst(phi).op, Opcode::Phi { incoming } if incoming.is_empty());
        if empty {
            f.replace_all_uses(Value::Inst(phi), Value::Undef(elem_ty));
            f.remove_inst(bb, phi);
        }
    }

    // The alloca itself is now unused.
    if f.count_uses(addr) == 0 {
        if let Some(bb) = f.block_of(alloca) {
            f.remove_inst(bb, alloca);
        }
    }
}

/// Number of promotable allocas in a module (used by tests and features).
pub fn count_promotable(m: &Module) -> usize {
    m.func_ids()
        .map(|fid| promotable_allocas(m.func(fid)).len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::Type;
    use autophase_ir::{BinOp, CmpPred};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn straightline_promotion() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(10));
        let v = b.load(Type::I32, p);
        let w = b.binary(BinOp::Add, v, Value::i32(5));
        b.store(p, w);
        let r = b.load(Type::I32, p);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        // alloca, both stores, both loads gone: add + ret remain
        assert_eq!(f.num_insts(), 2);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(15));
    }

    #[test]
    fn diamond_gets_phi() {
        // x = 0; if (arg) x = 1; return x;
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let j = b.new_block();
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(0));
        let c = b.icmp(CmpPred::Ne, b.arg(0), Value::i32(0));
        b.cond_br(c, t, j);
        b.switch_to(t);
        b.store(p, Value::i32(1));
        b.br(j);
        b.switch_to(j);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        let has_phi = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .any(|i| f.inst(i).is_phi());
        assert!(has_phi, "expected a phi after promotion");
        assert!(!f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .any(|i| matches!(f.inst(i).op, Opcode::Alloca { .. })));
    }

    #[test]
    fn loop_accumulator_promoted_and_preserved() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(10), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        // No memory traffic remains.
        let f = m.func(m.main().unwrap());
        for bb in f.block_ids() {
            for (_, inst) in f.insts_in(bb) {
                assert!(!inst.reads_memory() && !inst.writes_memory());
            }
        }
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut m = Module::new("t");
        let callee = {
            let mut b = FunctionBuilder::new("sink_fn", vec![Type::Ptr], Type::Void);
            b.ret(None);
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(1));
        b.call(callee, Type::Void, vec![p]);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn array_alloca_not_promoted() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 4);
        let q = b.gep(p, Value::i32(2));
        b.store(q, Value::i32(9));
        let v = b.load(Type::I32, q);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn mismatched_width_not_promoted() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(300));
        let v = b.load(Type::I8, p); // narrowing load
        let w = b.cast(autophase_ir::CastOp::SExt, Type::I32, v);
        b.ret(Some(w));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100).unwrap().observable();
        run(&mut m);
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().observable(), before);
    }

    #[test]
    fn load_before_store_yields_undef_zero() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        let v = b.load(Type::I32, p); // uninitialized: reads 0
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(0));
    }

    #[test]
    fn two_allocas_both_promoted() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        let q = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(3));
        b.store(q, Value::i32(4));
        let x = b.load(Type::I32, p);
        let y = b.load(Type::I32, q);
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(12));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 2);
    }
}
