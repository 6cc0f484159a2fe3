//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg::Cfg;
use crate::function::{BlockId, Function};

/// Dominator tree over the reachable blocks of a function.
///
/// Every per-block table is a `Vec` indexed by [`BlockId::index`].
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each reachable block (entry maps to itself).
    idom: Vec<Option<BlockId>>,
    /// Dominator-tree children of each block, sorted by id.
    children: Vec<Vec<BlockId>>,
    /// RPO index of each reachable block.
    rpo_index: Vec<Option<usize>>,
    entry: BlockId,
}

impl DomTree {
    /// Compute dominators for `f` given its CFG.
    pub fn new(f: &Function, cfg: &Cfg) -> DomTree {
        let entry = f.entry;
        let cap = f.block_capacity().max(entry.index() + 1);
        let rpo = cfg.rpo();
        let mut rpo_index = vec![None; cap];
        for (i, &bb) in rpo.iter().enumerate() {
            rpo_index[bb.index()] = Some(i);
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; cap];
        idom[entry.index()] = Some(entry);

        let mut changed = true;
        while changed {
            changed = false;
            for &bb in rpo.iter().skip(1) {
                // First processed predecessor.
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(bb) {
                    if rpo_index[p.index()].is_none() {
                        continue; // unreachable predecessor
                    }
                    if idom[p.index()].is_some() {
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => intersect(&idom, &rpo_index, cur, p),
                        });
                    }
                }
                if let Some(ni) = new_idom {
                    if idom[bb.index()] != Some(ni) {
                        idom[bb.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Ascending index order, so each child list comes out sorted.
        let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); cap];
        for (b, d) in idom.iter().enumerate() {
            if let Some(d) = *d {
                let b = BlockId::from_index(b);
                if b != entry {
                    children[d.index()].push(b);
                }
            }
        }

        DomTree {
            idom,
            children,
            rpo_index,
            entry,
        }
    }

    /// Immediate dominator of `bb` (`None` for the entry block or
    /// unreachable blocks).
    pub fn idom(&self, bb: BlockId) -> Option<BlockId> {
        if bb == self.entry {
            return None;
        }
        self.idom.get(bb.index()).copied().flatten()
    }

    /// True if `a` dominates `b` (reflexive: every block dominates itself).
    ///
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            cur = self.idom[cur.index()].expect("reachable block has an idom");
        }
    }

    /// True if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// True if the block is reachable (has a dominator entry).
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        matches!(self.idom.get(bb.index()), Some(Some(_)))
    }

    /// Children of `bb` in the dominator tree, sorted by id.
    pub fn children(&self, bb: BlockId) -> &[BlockId] {
        self.children
            .get(bb.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Dominance frontier of every reachable block (for SSA construction),
    /// indexed by [`BlockId::index`].
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); self.idom.len()];
        for &bb in cfg.rpo() {
            let preds: Vec<BlockId> = cfg
                .preds(bb)
                .iter()
                .copied()
                .filter(|p| self.is_reachable(*p))
                .collect();
            if preds.len() < 2 {
                continue;
            }
            let idom_bb = self.idom[bb.index()].expect("reachable block has an idom");
            for p in preds {
                let mut runner = p;
                while runner != idom_bb {
                    let entry = &mut df[runner.index()];
                    if !entry.contains(&bb) {
                        entry.push(bb);
                    }
                    if runner == self.entry {
                        break;
                    }
                    runner = self.idom[runner.index()].expect("reachable block has an idom");
                }
            }
        }
        df
    }

    /// RPO index of a reachable block.
    pub fn rpo_index(&self, bb: BlockId) -> Option<usize> {
        self.rpo_index.get(bb.index()).copied().flatten()
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[Option<usize>],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    let pos = |x: BlockId| rpo_index[x.index()].expect("reachable block has an RPO index");
    let up = |x: BlockId| idom[x.index()].expect("processed block has an idom");
    while a != b {
        while pos(a) > pos(b) {
            a = up(a);
        }
        while pos(b) > pos(a) {
            b = up(b);
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpPred;
    use crate::types::Type;
    use crate::value::Value;

    /// entry -> {a, b}; a -> j; b -> j; j -> ret
    fn diamond() -> (Function, BlockId, BlockId, BlockId) {
        let mut bld = FunctionBuilder::new("d", vec![Type::I32], Type::I32);
        let a = bld.new_block();
        let b = bld.new_block();
        let j = bld.new_block();
        let c = bld.icmp(CmpPred::Slt, bld.arg(0), Value::i32(0));
        bld.cond_br(c, a, b);
        bld.switch_to(a);
        bld.br(j);
        bld.switch_to(b);
        bld.br(j);
        bld.switch_to(j);
        bld.ret(Some(Value::i32(1)));
        (bld.finish(), a, b, j)
    }

    #[test]
    fn diamond_dominators() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(dt.idom(a), Some(f.entry));
        assert_eq!(dt.idom(b), Some(f.entry));
        assert_eq!(dt.idom(j), Some(f.entry));
        assert!(dt.dominates(f.entry, j));
        assert!(!dt.dominates(a, j));
        assert!(dt.dominates(j, j));
        assert!(dt.strictly_dominates(f.entry, a));
        assert!(!dt.strictly_dominates(a, a));
    }

    #[test]
    fn diamond_frontiers() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        assert_eq!(df[a.index()], vec![j]);
        assert_eq!(df[b.index()], vec![j]);
        assert!(df[f.entry.index()].is_empty());
    }

    #[test]
    fn loop_dominators() {
        // entry -> header; header -> {body, exit}; body -> header
        let mut bld = FunctionBuilder::new("l", vec![Type::I32], Type::I32);
        let n = bld.arg(0);
        let (header, _exit) = bld.counted_loop(n, |_, _| {});
        bld.ret(Some(Value::i32(0)));
        let f = bld.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(dt.idom(header), Some(f.entry));
        // header dominates everything downstream
        for bb in cfg.rpo() {
            if *bb != f.entry {
                assert!(dt.dominates(header, *bb) || *bb == header);
            }
        }
    }

    #[test]
    fn children_listed() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let kids = dt.children(f.entry);
        assert!(kids.contains(&a) && kids.contains(&b) && kids.contains(&j));
    }

    #[test]
    fn unreachable_block_not_in_tree() {
        let mut bld = FunctionBuilder::new("u", vec![], Type::Void);
        let dead = bld.new_block();
        bld.ret(None);
        bld.switch_to(dead);
        bld.ret(None);
        let f = bld.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert!(!dt.is_reachable(dead));
        assert!(!dt.dominates(f.entry, dead));
    }
}
