//! `-gvn`: global value numbering.
//!
//! Dominator-tree scoped CSE: walking the dominator tree top-down, a pure
//! computation is replaced by an equivalent one already available in a
//! dominating block. Loads are also numbered, invalidated at any
//! may-alias store or non-`readnone` call along the walk (conservatively:
//! a block containing any store/call clears load availability for its
//! subtree successors computed after it).
//!
//! The walk is linear in the function: available expressions live in one
//! table whose insertions an undo log rolls back on leaving a subtree, and
//! an eliminated instruction's uses are not rewritten at once. Its
//! replacement goes into a substitution map; each instruction's operands
//! are resolved through the map when the walk reaches it, and one final
//! sweep rewrites every remaining use.

use crate::early_cse::{expr_key, ExprKey};
use crate::util;
use autophase_ir::cfg::Cfg;
use autophase_ir::dom::DomTree;
use autophase_ir::{BlockId, FuncId, InstId, Module, Opcode, Value};
use std::collections::HashMap;

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = gvn_function(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

type LoadScope = HashMap<Value, Value>;

/// One step of the dominator-tree walk.
enum Step {
    /// Number the instructions of a block, given the loads available at
    /// its entry.
    Visit(BlockId, LoadScope),
    /// Leave a block's subtree: roll the expression table back to this
    /// undo-log length.
    Leave(usize),
}

/// Replacements for eliminated instructions, indexed by `InstId`.
/// Allocated on the first elimination, so an unchanged function costs
/// nothing.
#[derive(Default)]
struct Substitution(Vec<Option<Value>>);

impl Substitution {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn insert(&mut self, capacity: usize, from: InstId, to: Value) {
        if self.0.is_empty() {
            self.0 = vec![None; capacity];
        }
        self.0[from.index()] = Some(to);
    }

    /// The value `v` stands for once every elimination so far is applied.
    fn resolve(&self, mut v: Value) -> Value {
        while let Value::Inst(id) = v {
            match self.0.get(id.index()).copied().flatten() {
                Some(to) => v = to,
                None => break,
            }
        }
        v
    }

    fn eliminated(&self, id: InstId) -> bool {
        matches!(self.0.get(id.index()), Some(Some(_)))
    }
}

fn gvn_function(m: &mut Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let capacity = f.inst_capacity();
    let mut subst = Substitution::default();
    let mut exprs: HashMap<ExprKey, InstId> = HashMap::new();
    let mut undo: Vec<ExprKey> = Vec::new();

    // Pre-order over the dominator tree, children in descending id order
    // (pushed ascending, popped last-first).
    let mut stack = vec![Step::Visit(f.entry, LoadScope::new())];
    while let Some(step) = stack.pop() {
        let (bb, mut loads) = match step {
            Step::Visit(bb, loads) => (bb, loads),
            Step::Leave(mark) => {
                for key in undo.drain(mark..) {
                    exprs.remove(&key);
                }
                continue;
            }
        };
        stack.push(Step::Leave(undo.len()));
        let mut removed_here = false;
        for pos in 0..m.func(fid).block(bb).insts.len() {
            let iid = m.func(fid).block(bb).insts[pos];
            if !subst.is_empty() {
                resolve_operands(m, fid, iid, &subst);
            }
            let inst = m.func(fid).inst(iid);
            let replacement = match inst.op {
                Opcode::Load { ptr } => match loads.get(&ptr) {
                    Some(&known) => Some(known),
                    None => {
                        loads.insert(ptr, Value::Inst(iid));
                        None
                    }
                },
                Opcode::Store { ptr, value } => {
                    let fr = m.func(fid);
                    loads.retain(|&k, _| !util::may_alias(fr, k, ptr));
                    loads.insert(ptr, value);
                    None
                }
                Opcode::Call { .. } => {
                    if !util::is_pure(m, inst) {
                        loads.clear();
                    }
                    None
                }
                _ if util::is_pure_no_read(m, inst) && !inst.ty.is_void() => match expr_key(inst) {
                    Some(key) => match exprs.get(&key) {
                        Some(&prev) => Some(Value::Inst(prev)),
                        None => {
                            exprs.insert(key, iid);
                            undo.push(key);
                            None
                        }
                    },
                    None => None,
                },
                _ => None,
            };
            if let Some(to) = replacement {
                subst.insert(capacity, iid, to);
                m.func_mut(fid).erase_inst(iid);
                removed_here = true;
            }
        }
        if removed_here {
            m.func_mut(fid)
                .block_mut(bb)
                .insts
                .retain(|&i| !subst.eliminated(i));
        }
        // A dominated block may be reached along paths containing stores
        // this walk has not seen (join points, loop back edges). Load
        // availability is only propagated to children whose unique CFG
        // predecessor is the current block — there the memory state at
        // entry provably equals the state at the end of `bb`. Pure
        // expression availability is path-independent and always flows.
        for &child in dt.children(bb) {
            let preds = cfg.preds(child);
            let load_env = if !preds.is_empty() && preds.iter().all(|&p| p == bb) {
                loads.clone()
            } else {
                LoadScope::new()
            };
            stack.push(Step::Visit(child, load_env));
        }
    }

    if subst.is_empty() {
        return false;
    }
    m.func_mut(fid)
        .for_each_operand_mut(|v| *v = subst.resolve(*v));
    true
}

/// Rewrite `iid`'s operands through `subst`, touching the function only
/// when an operand actually changes.
fn resolve_operands(m: &mut Module, fid: FuncId, iid: InstId, subst: &Substitution) {
    let mut stale = false;
    m.func(fid)
        .inst(iid)
        .for_each_operand(|v| stale |= subst.resolve(v) != v);
    if stale {
        m.func_mut(fid)
            .inst_mut(iid)
            .for_each_operand_mut(|v| *v = subst.resolve(*v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, CmpPred, Type};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn cross_block_expression_merged() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let next = b.new_block();
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.br(next);
        b.switch_to(next);
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 4); // add, br, mul, ret
    }

    #[test]
    fn branch_arms_not_merged_across() {
        // Expressions in sibling branches do not dominate each other.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.ret(Some(x));
        b.switch_to(e);
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.ret(Some(y));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn load_forwarded_across_blocks_when_safe() {
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr], Type::I32);
        let next = b.new_block();
        let v1 = b.load(Type::I32, b.arg(0));
        b.br(next);
        b.switch_to(next);
        let v2 = b.load(Type::I32, b.arg(0));
        let s = b.binary(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn store_in_sibling_branch_blocks_load_merge_at_join() {
        // entry: load p; branch; then: store p; join: load p must remain.
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr, Type::I32], Type::I32);
        let t = b.new_block();
        let j = b.new_block();
        let v1 = b.load(Type::I32, b.arg(0));
        let c = b.icmp(CmpPred::Ne, b.arg(1), Value::i32(0));
        b.cond_br(c, t, j);
        b.switch_to(t);
        b.store(b.arg(0), Value::i32(9));
        b.br(j);
        b.switch_to(j);
        let v2 = b.load(Type::I32, b.arg(0));
        let s = b.binary(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        run(&mut m);
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 2, "join load must not be forwarded past a store");
    }

    #[test]
    fn semantics_preserved_on_loop() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(5), |b, i| {
            let a = b.binary(BinOp::Mul, i, Value::i32(3));
            let c = b.binary(BinOp::Mul, i, Value::i32(3)); // redundant
            let cur = b.load(Type::I32, acc);
            let t = b.binary(BinOp::Add, a, c);
            let n = b.binary(BinOp::Add, cur, t);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
    }

    #[test]
    fn unchanged_function_keeps_its_shared_storage() {
        // `helper` has nothing to number; `main` has a redundant add.
        let mut b = FunctionBuilder::new("helper", vec![Type::I32], Type::I32);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        b.ret(Some(x));
        let helper = b.finish();
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = Module::new("t");
        let h = m.add_function(helper);
        let main = m.add_function(b.finish());
        let before = m.clone();
        assert!(run(&mut m));
        assert!(std::sync::Arc::ptr_eq(
            m.func_arc(h).unwrap(),
            before.func_arc(h).unwrap()
        ));
        assert!(!std::sync::Arc::ptr_eq(
            m.func_arc(main).unwrap(),
            before.func_arc(main).unwrap()
        ));
    }

    #[test]
    fn phi_use_of_a_later_eliminated_value_is_rewritten() {
        // The header's φ is numbered before the body, where its back-edge
        // value turns out redundant: the final sweep must rewrite the φ.
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let entry = b.entry_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = b.icmp(CmpPred::Slt, i, Value::i32(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let next = b.binary(BinOp::Add, i, Value::i32(1));
        let dup = b.binary(BinOp::Add, Value::i32(1), i);
        b.br(header);
        if let Opcode::Phi { incoming } = &mut b.func_mut().inst_mut(i.as_inst().unwrap()).op {
            incoming.push((body, dup));
        }
        b.switch_to(exit);
        b.ret(Some(i));
        let mut m = module_with(b.finish());
        assert_verified(&m);
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        let f = m.func(m.main().unwrap());
        assert_eq!(
            f.inst(i.as_inst().unwrap()).op,
            Opcode::Phi {
                incoming: vec![(entry, Value::i32(0)), (body, next)]
            }
        );
    }
}
