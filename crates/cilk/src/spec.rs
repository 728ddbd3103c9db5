//! Steal specifications.
//!
//! The SP+ algorithm takes a *steal specification* as input: a description
//! of which continuations are stolen and which reduce operations execute
//! when, which removes all nondeterminism from the Cilk runtime's view
//! management and fixes a single execution to check (paper, Section 5).
//!
//! Following the paper's Section 8, a specification does not need to name
//! every program point: stealing the *same* continuation indices in every
//! sync block (or indices chosen per block from a random seed) already
//! suffices for the Section-7 coverage constructions. The encodings here:
//!
//! * [`StealSpec::None`] — no steals; the "No steals" configuration of
//!   Figures 7 and 8.
//! * [`StealSpec::EveryBlock`] — run the same [`BlockScript`] (an ordered
//!   sequence of `Steal(i)` / `Reduce` actions) in every sync block; this is
//!   how the coverage generators express "steal continuations a, b, and
//!   reduce before stealing c" (eliciting the `(a, b, c)` reduce operation).
//! * [`StealSpec::Random`] — per sync block, derive `steals_per_block`
//!   distinct continuation indices from a seed; the paper's "random seed and
//!   maximum sync block size" input mode ("Check reductions" column).
//! * [`StealSpec::AtSpawnCount`] — steal every continuation whose frame has
//!   spawn count exactly `j`; the breadth-first construction of Theorem 6
//!   that elicits all update strands at a given P-depth ("Check updates").

use rader_dsu::fxhash::hash_pair;

/// One action in a sync block's script.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockOp {
    /// Steal the continuation after the `i`-th spawn of the sync block
    /// (1-based: `Steal(1)` steals the continuation of the block's first
    /// spawn).
    Steal(u32),
    /// Execute a reduce: merge the topmost view of the block into the view
    /// below it. Executes immediately before the next `Steal` in the
    /// script, or at the block's sync if no `Steal` follows.
    Reduce,
}

/// An ordered action script applied to a sync block.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct BlockScript {
    ops: Vec<BlockOp>,
}

impl Clone for BlockScript {
    fn clone(&self) -> Self {
        BlockScript {
            ops: self.ops.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.ops.clone_from(&src.ops);
    }
}

impl BlockScript {
    /// Build a script from actions. Steal indices must be ≥ 1 and strictly
    /// increasing (continuation indices are visited in increasing order, so
    /// out-of-order steals could never fire).
    pub fn new(ops: Vec<BlockOp>) -> Self {
        let mut last = 0u32;
        for op in &ops {
            if let BlockOp::Steal(i) = *op {
                assert!(i >= 1, "continuation indices are 1-based");
                assert!(i > last, "steal indices must be strictly increasing");
                last = i;
            }
        }
        BlockScript { ops }
    }

    /// Script that steals the given continuation indices (sorted, deduped)
    /// with all reduces deferred to the sync.
    pub fn steals(mut indices: Vec<u32>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        BlockScript::new(indices.into_iter().map(BlockOp::Steal).collect())
    }

    /// The actions of the script.
    pub fn ops(&self) -> &[BlockOp] {
        &self.ops
    }

    /// Number of steals in the script.
    pub fn steal_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, BlockOp::Steal(_)))
            .count()
    }
}

/// A steal specification: fixes which continuations are stolen and when
/// reduces execute, across the whole execution.
#[derive(Debug, Default, PartialEq, Eq)]
pub enum StealSpec {
    /// No continuations are stolen; no views are created.
    #[default]
    None,
    /// Apply the same script to every sync block of every frame.
    EveryBlock(BlockScript),
    /// Per sync block, steal `steals_per_block` distinct continuation
    /// indices drawn uniformly from `1..=max_block` by hashing
    /// `(seed, block sequence number)`; reduces happen at the sync.
    Random {
        /// Seed for deriving per-block steal points.
        seed: u64,
        /// Upper bound on continuation indices drawn (the paper's
        /// "maximum sync block size" input).
        max_block: u32,
        /// Distinct continuations stolen per sync block.
        steals_per_block: u32,
    },
    /// Steal every continuation whose frame's spawn count (ancestor +
    /// local, the paper's `F.as + F.ls`) equals `j`.
    AtSpawnCount(u32),
}

impl Clone for StealSpec {
    fn clone(&self) -> Self {
        match self {
            StealSpec::None => StealSpec::None,
            StealSpec::EveryBlock(s) => StealSpec::EveryBlock(s.clone()),
            &StealSpec::Random {
                seed,
                max_block,
                steals_per_block,
            } => StealSpec::Random {
                seed,
                max_block,
                steals_per_block,
            },
            &StealSpec::AtSpawnCount(j) => StealSpec::AtSpawnCount(j),
        }
    }

    /// Reuses an `EveryBlock` script's buffer (a sweep's pooled replay
    /// state takes a new spec per run).
    fn clone_from(&mut self, src: &Self) {
        match (self, src) {
            (StealSpec::EveryBlock(s), StealSpec::EveryBlock(t)) => s.clone_from(t),
            (this, src) => *this = src.clone(),
        }
    }
}

impl StealSpec {
    /// True if this specification never steals.
    pub fn is_none(&self) -> bool {
        matches!(self, StealSpec::None)
            || matches!(self, StealSpec::EveryBlock(s) if s.steal_count() == 0)
    }

    /// Materialize the script for a sync block, given the block's global
    /// sequence number. Returns `None` for modes that need no script
    /// ([`StealSpec::None`], [`StealSpec::AtSpawnCount`]).
    pub fn block_script(&self, block_seq: u64) -> Option<BlockScript> {
        match self {
            StealSpec::None | StealSpec::AtSpawnCount(_) => None,
            StealSpec::EveryBlock(s) => Some(s.clone()),
            StealSpec::Random {
                seed,
                max_block,
                steals_per_block,
            } => {
                let m = (*max_block).max(1);
                let want = (*steals_per_block).min(m) as usize;
                let mut picks: Vec<u32> = Vec::with_capacity(want);
                let mut salt = 0u64;
                while picks.len() < want {
                    let h = hash_pair(*seed ^ salt.wrapping_mul(0x9e37_79b9), block_seq);
                    let idx = (h % m as u64) as u32 + 1;
                    if !picks.contains(&idx) {
                        picks.push(idx);
                    }
                    salt += 1;
                }
                Some(BlockScript::steals(picks))
            }
        }
    }

    /// For [`StealSpec::AtSpawnCount`]: should the continuation of a frame
    /// with total spawn count `spawn_count` be stolen?
    pub fn steal_at_spawn_count(&self, spawn_count: u32) -> bool {
        matches!(self, StealSpec::AtSpawnCount(j) if *j == spawn_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steals_constructor_sorts_and_dedupes() {
        let s = BlockScript::steals(vec![3, 1, 3, 2]);
        assert_eq!(
            s.ops(),
            &[BlockOp::Steal(1), BlockOp::Steal(2), BlockOp::Steal(3)]
        );
        assert_eq!(s.steal_count(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_steals_rejected() {
        let _ = BlockScript::new(vec![BlockOp::Steal(2), BlockOp::Steal(1)]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_index_rejected() {
        let _ = BlockScript::new(vec![BlockOp::Steal(0)]);
    }

    #[test]
    fn random_spec_is_deterministic_per_block() {
        let spec = StealSpec::Random {
            seed: 42,
            max_block: 10,
            steals_per_block: 3,
        };
        let a = spec.block_script(7).unwrap();
        let b = spec.block_script(7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.steal_count(), 3);
        for op in a.ops() {
            if let BlockOp::Steal(i) = *op {
                assert!((1..=10).contains(&i));
            }
        }
    }

    #[test]
    fn random_spec_varies_across_blocks() {
        let spec = StealSpec::Random {
            seed: 42,
            max_block: 100,
            steals_per_block: 3,
        };
        let scripts: Vec<_> = (0..20).map(|b| spec.block_script(b).unwrap()).collect();
        let distinct = scripts
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 1, "expected variation across blocks");
    }

    #[test]
    fn random_spec_caps_steals_at_block_size() {
        let spec = StealSpec::Random {
            seed: 1,
            max_block: 2,
            steals_per_block: 5,
        };
        assert_eq!(spec.block_script(0).unwrap().steal_count(), 2);
    }

    #[test]
    fn at_spawn_count_predicate() {
        let spec = StealSpec::AtSpawnCount(3);
        assert!(!spec.steal_at_spawn_count(2));
        assert!(spec.steal_at_spawn_count(3));
        assert!(spec.block_script(0).is_none());
        assert!(!spec.is_none()); // it does steal, just not via scripts
    }

    #[test]
    fn none_spec() {
        assert!(StealSpec::None.is_none());
        assert!(StealSpec::default().is_none());
        assert!(StealSpec::EveryBlock(BlockScript::default()).is_none());
    }
}
