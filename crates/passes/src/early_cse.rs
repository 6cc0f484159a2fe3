//! `-early-cse`: block-local common-subexpression elimination with
//! store-to-load forwarding.
//!
//! Within each basic block, pure computations with identical opcodes and
//! operands are deduplicated, loads repeated from the same unclobbered
//! address are reused, and a load immediately dominated (in the block) by a
//! store to the same address is replaced by the stored value.

use crate::util;
use autophase_ir::{BinOp, CastOp, CmpPred, FuncId, Inst, InstId, Module, Opcode, Type, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = cse_function(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

/// Hashable key for a pure computation: what it computes and from which
/// operands. Two pure instructions with equal keys compute the same value.
///
/// Binary operations and casts include the result type; comparisons,
/// selects and GEPs do not (their operands pin it). Commutative binary
/// operands are stored in [`packed_value`] order, so `a+b` and `b+a` share
/// a key. Every keyed opcode has at most three operands; unused slots hold
/// [`NO_OPERAND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExprKey {
    op: ExprOp,
    operands: [Value; 3],
}

/// The operation half of an [`ExprKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprOp {
    Binary(BinOp, Type),
    ICmp(CmpPred),
    Select,
    Cast(CastOp, Type),
    Gep,
}

/// Filler for the operand slots an opcode does not use.
const NO_OPERAND: Value = Value::Undef(Type::Void);

/// Bytes of one operand in [`packed_value`].
const VALUE_BYTES: usize = 10;

/// An injective byte encoding of a value: variant tag, type, then the
/// payload little-endian. Comparing encodings is the cheap total order
/// commutative operands are sorted by.
fn packed_value(v: Value) -> [u8; VALUE_BYTES] {
    let (tag, ty, payload) = match v {
        Value::Inst(id) => (0, Type::Void, id.index() as u64),
        Value::Arg(i) => (1, Type::Void, u64::from(i)),
        Value::ConstInt(ty, c) => (2, ty, c as u64),
        Value::Global(g) => (3, Type::Void, g.index() as u64),
        Value::Undef(ty) => (4, ty, 0),
    };
    let mut out = [0u8; VALUE_BYTES];
    out[0] = tag;
    out[1] = ty as u8;
    out[2..].copy_from_slice(&payload.to_le_bytes());
    out
}

impl Hash for ExprKey {
    /// One `write` of the packed key. The map's hasher stays std's
    /// randomly keyed one: the daemon numbers untrusted IR, so the keys
    /// must not be collidable at will.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (tag, sub, ty) = match self.op {
            ExprOp::Binary(op, ty) => (0, op as u8, ty),
            ExprOp::ICmp(p) => (1, p as u8, Type::Void),
            ExprOp::Select => (2, 0, Type::Void),
            ExprOp::Cast(c, ty) => (3, c as u8, ty),
            ExprOp::Gep => (4, 0, Type::Void),
        };
        let mut buf = [0u8; 3 + 3 * VALUE_BYTES];
        buf[..3].copy_from_slice(&[tag, sub, ty as u8]);
        for (slot, &v) in buf[3..].chunks_exact_mut(VALUE_BYTES).zip(&self.operands) {
            slot.copy_from_slice(&packed_value(v));
        }
        state.write(&buf);
    }
}

/// The key of `inst`, if it is an opcode CSE numbers.
pub(crate) fn expr_key(inst: &Inst) -> Option<ExprKey> {
    let (op, operands) = match inst.op {
        Opcode::Binary(op, a, b) => {
            let swap = op.is_commutative() && packed_value(b) < packed_value(a);
            let (a, b) = if swap { (b, a) } else { (a, b) };
            (ExprOp::Binary(op, inst.ty), [a, b, NO_OPERAND])
        }
        Opcode::ICmp(p, a, b) => (ExprOp::ICmp(p), [a, b, NO_OPERAND]),
        Opcode::Select { cond, tval, fval } => (ExprOp::Select, [cond, tval, fval]),
        Opcode::Cast(c, v) => (ExprOp::Cast(c, inst.ty), [v, NO_OPERAND, NO_OPERAND]),
        Opcode::Gep { ptr, index } => (ExprOp::Gep, [ptr, index, NO_OPERAND]),
        _ => return None,
    };
    Some(ExprKey { op, operands })
}

fn cse_function(m: &mut Module, fid: FuncId) -> bool {
    let mut changed = false;
    let blocks: Vec<_> = m.func(fid).block_ids().collect();
    for bb in blocks {
        // available pure expressions → defining instruction
        let mut avail: HashMap<ExprKey, InstId> = HashMap::new();
        // address → last known stored/loaded value
        let mut mem: HashMap<Value, Value> = HashMap::new();
        let insts: Vec<InstId> = m.func(fid).block(bb).insts.clone();
        for iid in insts {
            if !m.func(fid).inst_exists(iid) {
                continue;
            }
            let inst = m.func(fid).inst(iid).clone();
            match &inst.op {
                Opcode::Load { ptr } => {
                    if let Some(&known) = mem.get(ptr) {
                        let f = m.func_mut(fid);
                        f.replace_all_uses(Value::Inst(iid), known);
                        f.remove_inst(bb, iid);
                        changed = true;
                    } else {
                        mem.insert(*ptr, Value::Inst(iid));
                    }
                }
                Opcode::Store { ptr, value } => {
                    // Invalidate may-alias entries, then record.
                    let f = m.func(fid);
                    let keys: Vec<Value> = mem.keys().copied().collect();
                    for k in keys {
                        if util::may_alias(f, k, *ptr) {
                            mem.remove(&k);
                        }
                    }
                    mem.insert(*ptr, *value);
                }
                Opcode::Call { .. } => {
                    if !util::is_pure(m, &inst) {
                        mem.clear();
                    }
                }
                _ => {
                    if util::is_pure_no_read(m, &inst) && !inst.ty.is_void() {
                        if let Some(key) = expr_key(&inst) {
                            if let Some(&prev) = avail.get(&key) {
                                let f = m.func_mut(fid);
                                f.replace_all_uses(Value::Inst(iid), Value::Inst(prev));
                                f.remove_inst(bb, iid);
                                changed = true;
                            } else {
                                avail.insert(key, iid);
                            }
                        }
                    }
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn duplicate_adds_merged() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 3);
    }

    #[test]
    fn commutative_operands_matched() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let x = b.binary(BinOp::Mul, b.arg(0), b.arg(1));
        let y = b.binary(BinOp::Mul, b.arg(1), b.arg(0));
        let s = b.binary(BinOp::Add, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 3);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(42));
        let v = b.load(Type::I32, p); // forwarded
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(42));
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 0);
    }

    #[test]
    fn repeated_load_reused() {
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr], Type::I32);
        let v1 = b.load(Type::I32, b.arg(0));
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
    fn aliasing_store_invalidates() {
        // Store to unknown pointer q between load(p)s: loads not merged.
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr, Type::Ptr], Type::I32);
        let v1 = b.load(Type::I32, b.arg(0));
        b.store(b.arg(1), Value::i32(0));
        let v2 = b.load(Type::I32, b.arg(0));
        let s = b.binary(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        run(&mut m);
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn cross_block_not_merged_by_early_cse() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let next = b.new_block();
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.br(next);
        b.switch_to(next);
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m)); // early-cse is block-local; gvn handles this
    }

    #[test]
    fn different_cmp_predicates_not_merged() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let c1 = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(5));
        let c2 = b.icmp(CmpPred::Sgt, b.arg(0), Value::i32(5));
        let z1 = b.cast(autophase_ir::CastOp::ZExt, Type::I32, c1);
        let z2 = b.cast(autophase_ir::CastOp::ZExt, Type::I32, c2);
        let s = b.binary(BinOp::Add, z1, z2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    fn key(ty: Type, op: Opcode) -> ExprKey {
        expr_key(&Inst::new(ty, op)).expect("keyed opcode")
    }

    /// Instructions covering every keyed opcode over a spread of operands,
    /// including operands that differ only in type or variant.
    fn keyed_insts() -> Vec<Inst> {
        let vals = [
            Value::Arg(0),
            Value::Arg(1),
            Value::i32(0),
            Value::i64(0),
            Value::i32(1),
            Value::Inst(InstId::from_index(0)),
            Value::Inst(InstId::from_index(1)),
            Value::Global(autophase_ir::GlobalId::from_index(0)),
            Value::Undef(Type::I32),
        ];
        let mut out = Vec::new();
        for &a in &vals {
            for &b in &vals {
                for ty in [Type::I32, Type::I64] {
                    for op in [BinOp::Add, BinOp::Sub, BinOp::Xor] {
                        out.push(Inst::new(ty, Opcode::Binary(op, a, b)));
                    }
                    out.push(Inst::new(ty, Opcode::Cast(autophase_ir::CastOp::SExt, a)));
                }
                for p in [CmpPred::Slt, CmpPred::Sgt] {
                    out.push(Inst::new(Type::I1, Opcode::ICmp(p, a, b)));
                }
                out.push(Inst::new(Type::Ptr, Opcode::Gep { ptr: a, index: b }));
                out.push(Inst::new(
                    Type::I32,
                    Opcode::Select {
                        cond: Value::Arg(2),
                        tval: a,
                        fval: b,
                    },
                ));
            }
        }
        out
    }

    #[test]
    fn equal_expr_keys_hash_equal() {
        let hasher = RandomState::new();
        let keys: Vec<ExprKey> = keyed_insts().iter().filter_map(expr_key).collect();
        let mut equal_pairs = 0;
        for a in &keys {
            for b in &keys {
                if a == b {
                    equal_pairs += 1;
                    assert_eq!(hasher.hash_one(a), hasher.hash_one(b), "{a:?}");
                }
            }
        }
        // Besides each key with itself, every commutative pair a+b / b+a.
        assert!(equal_pairs > keys.len());
    }

    #[test]
    fn commutative_operands_share_a_key() {
        let (a, b) = (Value::Arg(0), Value::Inst(InstId::from_index(3)));
        assert_eq!(
            key(Type::I32, Opcode::Binary(BinOp::Add, a, b)),
            key(Type::I32, Opcode::Binary(BinOp::Add, b, a))
        );
        assert_ne!(
            key(Type::I32, Opcode::Binary(BinOp::Sub, a, b)),
            key(Type::I32, Opcode::Binary(BinOp::Sub, b, a))
        );
        assert_ne!(
            key(Type::I1, Opcode::ICmp(CmpPred::Slt, a, b)),
            key(Type::I1, Opcode::ICmp(CmpPred::Slt, b, a))
        );
    }

    #[test]
    fn result_type_and_predicate_are_part_of_the_key() {
        let (a, b) = (Value::Arg(0), Value::Arg(1));
        assert_ne!(
            key(Type::I32, Opcode::Binary(BinOp::Add, a, b)),
            key(Type::I64, Opcode::Binary(BinOp::Add, a, b))
        );
        assert_ne!(
            key(Type::I1, Opcode::ICmp(CmpPred::Slt, a, b)),
            key(Type::I1, Opcode::ICmp(CmpPred::Sgt, a, b))
        );
        assert_ne!(
            key(Type::I32, Opcode::Binary(BinOp::Add, a, Value::i32(0))),
            key(Type::I32, Opcode::Binary(BinOp::Add, a, Value::i64(0)))
        );
        assert!(expr_key(&Inst::new(Type::I32, Opcode::Load { ptr: a })).is_none());
    }
}
