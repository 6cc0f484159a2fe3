//! Control-flow-graph queries: predecessors, successors, orderings.

use crate::function::{BlockId, Function};

/// Immutable CFG snapshot of a function.
///
/// Built once per analysis/transform. Holds predecessor and successor
/// lists and a reachability flag, all in `Vec`s indexed by
/// [`BlockId::index`], plus the reverse post-order.
#[derive(Debug, Clone)]
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    reachable: Vec<bool>,
    entry: BlockId,
}

impl Cfg {
    /// Compute the CFG of `f`.
    pub fn new(f: &Function) -> Cfg {
        let cap = f.block_capacity();
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); cap];
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); cap];
        for bb in f.block_ids() {
            let s = f.successors(bb);
            for &t in &s {
                // A branch past the block arena names no block at all;
                // the verifier rejects it, and nothing can query it.
                if let Some(p) = preds.get_mut(t.index()) {
                    p.push(bb);
                }
            }
            succs[bb.index()] = s;
        }
        let rpo = reverse_post_order(f, &succs);
        let mut reachable = vec![false; cap];
        for bb in &rpo {
            reachable[bb.index()] = true;
        }
        Cfg {
            preds,
            succs,
            rpo,
            reachable,
            entry: f.entry,
        }
    }

    /// Predecessors of `bb` (blocks with an edge into it). A block that
    /// branches to `bb` twice (both arms of a cond-br) appears twice.
    pub fn preds(&self, bb: BlockId) -> &[BlockId] {
        self.preds.get(bb.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Successors of `bb`.
    pub fn succs(&self, bb: BlockId) -> &[BlockId] {
        self.succs.get(bb.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Unique predecessors (deduplicated).
    pub fn unique_preds(&self, bb: BlockId) -> Vec<BlockId> {
        let mut v = self.preds(bb).to_vec();
        v.sort();
        v.dedup();
        v
    }

    /// Unique successors (deduplicated).
    pub fn unique_succs(&self, bb: BlockId) -> Vec<BlockId> {
        let mut v = self.succs(bb).to_vec();
        v.sort();
        v.dedup();
        v
    }

    /// Blocks reachable from entry, in reverse post-order (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// The function entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// True if `bb` is reachable from the entry block.
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.reachable.get(bb.index()).copied().unwrap_or(false)
    }

    /// Total number of CFG edges (counting duplicates).
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Edges `(src, dst)` that are critical: the source has more than one
    /// successor and the destination has more than one predecessor.
    pub fn critical_edges(&self) -> Vec<(BlockId, BlockId)> {
        let mut out = Vec::new();
        for (src, succs) in self.succs.iter().enumerate() {
            if succs.len() <= 1 {
                continue;
            }
            for &dst in succs {
                if self.preds(dst).len() > 1 {
                    out.push((BlockId::from_index(src), dst));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Reachable blocks in reverse post-order (entry first), walking the
/// successor lists `Cfg::new` already collected.
fn reverse_post_order(f: &Function, succs: &[Vec<BlockId>]) -> Vec<BlockId> {
    let mut visited = vec![false; succs.len()];
    let mut post = Vec::new();
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = Vec::new();
    if !f.block_exists(f.entry) {
        return post;
    }
    visited[f.entry.index()] = true;
    stack.push((f.entry, 0));
    while let Some(&mut (bb, ref mut idx)) = stack.last_mut() {
        if let Some(&next) = succs[bb.index()].get(*idx) {
            *idx += 1;
            if f.block_exists(next) && !visited[next.index()] {
                visited[next.index()] = true;
                stack.push((next, 0));
            }
        } else {
            post.push(bb);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Blocks not reachable from entry.
pub fn unreachable_blocks(f: &Function) -> Vec<BlockId> {
    let cfg = Cfg::new(f);
    f.block_ids().filter(|&bb| !cfg.is_reachable(bb)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpPred;
    use crate::types::Type;
    use crate::value::Value;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(Value::i32(0)));
        b.finish()
    }

    #[test]
    fn diamond_preds_succs() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(f.entry).len(), 2);
        let join = *cfg.rpo().last().unwrap();
        assert_eq!(cfg.preds(join).len(), 2);
        assert_eq!(cfg.num_edges(), 4);
        assert!(cfg.critical_edges().is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo()[0], f.entry);
        assert_eq!(cfg.rpo().len(), 4);
    }

    #[test]
    fn unreachable_detected() {
        let mut b = FunctionBuilder::new("u", vec![], Type::Void);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        assert_eq!(unreachable_blocks(&f), vec![dead]);
        assert!(!Cfg::new(&f).is_reachable(dead));
    }

    #[test]
    fn critical_edge_found() {
        // entry --cond--> {a, join}; a -> join. Edge entry->join is critical.
        let mut b = FunctionBuilder::new("c", vec![Type::I32], Type::Void);
        let a = b.new_block();
        let join = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        b.cond_br(c, a, join);
        b.switch_to(a);
        b.br(join);
        b.switch_to(join);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.critical_edges(), vec![(f.entry, join)]);
    }

    #[test]
    fn duplicate_edge_counted_twice() {
        let mut b = FunctionBuilder::new("dup", vec![Type::I32], Type::Void);
        let t = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        // both arms target the same block
        b.cond_br(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.preds(t).len(), 2);
        assert_eq!(cfg.unique_preds(t).len(), 1);
    }
}
