//! Synthetic fork-join programs.
//!
//! Random-program generation is the workhorse of this reproduction's
//! validation story: the detectors (`rader-core`) are property-tested
//! against brute-force oracles (`rader-dag`) on thousands of random
//! programs, and the Section-7 coverage experiments sweep families of
//! nested-spawn programs with known `K` (max sync-block size) and `D`
//! (spawn depth).
//!
//! A synthetic program is an explicit AST ([`Node`]) interpreted against a
//! [`Ctx`]. Programs use a block of shared locations plus a set of
//! reducers; the generator can be biased towards or away from racy
//! constructs (parallel writes to shared cells, pre-sync reducer reads,
//! views aliased into shared memory à la the paper's Figure 1).

use std::sync::Arc;

use rader_rng::Rng;

use crate::engine::Ctx;
use crate::mem::{Loc, Word};
use crate::monoid::ViewMem;
use crate::monoid::ViewMonoid;

/// An AST node of a synthetic program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Statements executed in sequence.
    Seq(Vec<Node>),
    /// Spawn a child frame with the given body.
    Spawn(Box<Node>),
    /// Call a child frame with the given body.
    Call(Box<Node>),
    /// Sync the current frame.
    Sync,
    /// Read shared cell `i`.
    Read(u32),
    /// Write shared cell `i` (value derived from the cell index).
    Write(u32),
    /// Update reducer `r` with operand `x`.
    Update(u32, Word),
    /// Reducer-read: query reducer `r`'s value (reads the view cell).
    RedGet(u32),
    /// Reducer-read: reset reducer `r`'s view to a fresh private cell.
    RedSet(u32),
    /// Reducer-read: alias reducer `r`'s view onto shared cell `i`
    /// (the Figure-1 pattern — view-aware code now touches user-visible
    /// memory, so updates/reduces can race with `Read`/`Write`).
    RedSetShared(u32, u32),
}

impl Node {
    /// Number of AST nodes (for sizing assertions in tests).
    pub fn size(&self) -> usize {
        match self {
            Node::Seq(v) => 1 + v.iter().map(Node::size).sum::<usize>(),
            Node::Spawn(b) | Node::Call(b) => 1 + b.size(),
            _ => 1,
        }
    }
}

/// A complete synthetic program: a body over `locs` shared cells and
/// `reducers` sum reducers.
#[derive(Clone, Debug)]
pub struct SynthProgram {
    /// Shared cells the program may touch.
    pub locs: u32,
    /// Sum reducers registered for the program.
    pub reducers: u32,
    /// The program body.
    pub body: Node,
}

/// The single-cell sum monoid used by synthetic programs. Its view is one
/// arena word, which makes [`Node::RedSetShared`] aliasing trivially safe
/// with respect to allocation bounds.
pub struct SynthAdd;

impl ViewMonoid for SynthAdd {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        m.alloc(1)
    }
    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        let r = m.read(right);
        let l = m.read(left);
        m.write(left, l + r);
    }
    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let v = m.read(view);
        m.write(view, v + op[0]);
    }
    fn name(&self) -> &'static str {
        "synth-add"
    }
}

/// An order-sensitive yet associative monoid: views are `(len, hash)`
/// pairs and reduction is positional concatenation in base `B` modulo
/// 2^64. Any fold that deviates from serial order changes the hash, so
/// property tests use it to verify the engine folds views in serial order
/// under every steal specification.
pub struct HashConcat;

const B: u64 = 1_000_003;

impl HashConcat {
    fn pow_b(mut e: u64) -> u64 {
        let mut base = B;
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            e >>= 1;
        }
        acc
    }

    /// Reference fold of an operand sequence, for comparing against the
    /// reducer-managed result.
    pub fn reference(ops: &[Word]) -> Word {
        let mut h = 0u64;
        for &x in ops {
            h = h.wrapping_mul(B).wrapping_add(x as u64);
        }
        h as Word
    }
}

impl ViewMonoid for HashConcat {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        m.alloc(2) // [len, hash]
    }
    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        let rlen = m.read(right) as u64;
        let rh = m.read(right.at(1)) as u64;
        let llen = m.read(left) as u64;
        let lh = m.read(left.at(1)) as u64;
        m.write(left, (llen + rlen) as Word);
        m.write(
            left.at(1),
            lh.wrapping_mul(Self::pow_b(rlen)).wrapping_add(rh) as Word,
        );
    }
    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let len = m.read(view);
        let h = m.read(view.at(1)) as u64;
        m.write(view, len + 1);
        m.write(
            view.at(1),
            h.wrapping_mul(B).wrapping_add(op[0] as u64) as Word,
        );
    }
    fn name(&self) -> &'static str {
        "hash-concat"
    }
}

/// Run a synthetic program on a context; returns the final values of its
/// reducers (read after the final sync, race-free by construction).
pub fn run_synth(cx: &mut Ctx<'_>, prog: &SynthProgram) -> Vec<Word> {
    let base = cx.alloc(prog.locs.max(1) as usize);
    let reds: Vec<_> = (0..prog.reducers)
        .map(|_| cx.new_reducer(Arc::new(SynthAdd)))
        .collect();
    exec(cx, &prog.body, base, &reds);
    cx.sync();
    reds.iter()
        .map(|&h| {
            let v = cx.reducer_get_view(h);
            cx.read(v)
        })
        .collect()
}

fn exec(cx: &mut Ctx<'_>, node: &Node, base: Loc, reds: &[crate::events::ReducerId]) {
    match node {
        Node::Seq(v) => {
            for n in v {
                exec(cx, n, base, reds);
            }
        }
        Node::Spawn(b) => cx.spawn(|cx| exec(cx, b, base, reds)),
        Node::Call(b) => cx.call(|cx| exec(cx, b, base, reds)),
        Node::Sync => cx.sync(),
        Node::Read(i) => {
            let _ = cx.read(base.at(*i as usize));
        }
        Node::Write(i) => {
            cx.write(base.at(*i as usize), *i as Word + 1);
        }
        Node::Update(r, x) => {
            if !reds.is_empty() {
                cx.reducer_update(reds[*r as usize % reds.len()], &[*x]);
            }
        }
        Node::RedGet(r) => {
            if !reds.is_empty() {
                let v = cx.reducer_get_view(reds[*r as usize % reds.len()]);
                let _ = cx.read(v);
            }
        }
        Node::RedSet(r) => {
            if !reds.is_empty() {
                let fresh = cx.alloc(1);
                cx.reducer_set_view(reds[*r as usize % reds.len()], fresh);
            }
        }
        Node::RedSetShared(r, i) => {
            if !reds.is_empty() {
                cx.reducer_set_view(reds[*r as usize % reds.len()], base.at(*i as usize));
            }
        }
    }
}

/// Generation parameters for random programs.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Shared cells available.
    pub locs: u32,
    /// Reducers available.
    pub reducers: u32,
    /// Approximate statement budget.
    pub size: u32,
    /// Maximum frame nesting depth.
    pub max_depth: u32,
    /// Permit `Read`/`Write` of shared cells (determinacy-race fodder).
    pub shared_accesses: bool,
    /// Permit reducer-reads outside the "after sync" safe harbor
    /// (view-read-race fodder).
    pub reducer_reads: bool,
    /// Permit aliasing views onto shared memory (Figure-1 fodder).
    pub view_aliasing: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            locs: 4,
            reducers: 2,
            size: 40,
            max_depth: 4,
            shared_accesses: true,
            reducer_reads: true,
            view_aliasing: false,
        }
    }
}

/// Generate a random program from a seed. Deterministic in
/// `(seed, config)`.
pub fn gen_program(seed: u64, cfg: &GenConfig) -> SynthProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut budget = cfg.size.max(1);
    let body = gen_seq(&mut rng, cfg, &mut budget, 0);
    SynthProgram {
        locs: cfg.locs.max(1),
        reducers: cfg.reducers,
        body,
    }
}

fn gen_seq(rng: &mut Rng, cfg: &GenConfig, budget: &mut u32, depth: u32) -> Node {
    let mut stmts = Vec::new();
    let n = rng.gen_range(1..=5usize);
    for _ in 0..n {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        stmts.push(gen_stmt(rng, cfg, budget, depth));
    }
    Node::Seq(stmts)
}

fn gen_stmt(rng: &mut Rng, cfg: &GenConfig, budget: &mut u32, depth: u32) -> Node {
    // Weighted statement choice; structural statements only while budget
    // and depth allow.
    let can_nest = depth < cfg.max_depth && *budget > 2;
    match rng.gen_range(0..10u32) {
        0 | 1 if can_nest => Node::Spawn(Box::new(gen_seq(rng, cfg, budget, depth + 1))),
        2 if can_nest => Node::Call(Box::new(gen_seq(rng, cfg, budget, depth + 1))),
        3 => Node::Sync,
        4 if cfg.shared_accesses => Node::Read(rng.gen_range(0..cfg.locs)),
        5 if cfg.shared_accesses => Node::Write(rng.gen_range(0..cfg.locs)),
        6 | 7 if cfg.reducers > 0 => {
            Node::Update(rng.gen_range(0..cfg.reducers), rng.gen_range(1..100))
        }
        8 if cfg.reducers > 0 && cfg.reducer_reads => Node::RedGet(rng.gen_range(0..cfg.reducers)),
        9 if cfg.reducers > 0 && cfg.view_aliasing => {
            Node::RedSetShared(rng.gen_range(0..cfg.reducers), rng.gen_range(0..cfg.locs))
        }
        _ => {
            if cfg.reducers > 0 {
                Node::Update(rng.gen_range(0..cfg.reducers), 1)
            } else {
                Node::Sync
            }
        }
    }
}

/// A race-free-by-construction generator: spawned subtrees only update
/// reducers (never touch shared cells), reducer-reads happen only when no
/// spawn is outstanding. Used for "deterministic result under every steal
/// spec" properties.
pub fn gen_racefree(seed: u64, cfg: &GenConfig) -> SynthProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut budget = cfg.size.max(1);
    let body = gen_rf_frame(&mut rng, cfg, &mut budget, 0);
    SynthProgram {
        locs: cfg.locs.max(1),
        reducers: cfg.reducers,
        body,
    }
}

fn gen_rf_frame(rng: &mut Rng, cfg: &GenConfig, budget: &mut u32, depth: u32) -> Node {
    let mut stmts = Vec::new();
    let blocks = rng.gen_range(1..=2usize);
    for _ in 0..blocks {
        let spawns = rng.gen_range(0..=3usize);
        for _ in 0..spawns {
            if *budget == 0 {
                break;
            }
            *budget = budget.saturating_sub(1);
            let child = if depth < cfg.max_depth && *budget > 2 && rng.gen_bool(0.3) {
                gen_rf_frame(rng, cfg, budget, depth + 1)
            } else {
                gen_rf_updates(rng, cfg, budget)
            };
            stmts.push(Node::Spawn(Box::new(child)));
            // Updates on the continuation strand are fine too.
            if cfg.reducers > 0 && rng.gen_bool(0.5) {
                stmts.push(Node::Update(
                    rng.gen_range(0..cfg.reducers),
                    rng.gen_range(1..100),
                ));
            }
        }
        stmts.push(Node::Sync);
        // After a sync every reducer-read in this frame shares the peer set
        // of the frame's other post-sync reads: safe.
    }
    Node::Seq(stmts)
}

fn gen_rf_updates(rng: &mut Rng, cfg: &GenConfig, budget: &mut u32) -> Node {
    let mut stmts = Vec::new();
    let n = rng.gen_range(1..=3usize);
    for _ in 0..n {
        *budget = budget.saturating_sub(1);
        if cfg.reducers > 0 {
            stmts.push(Node::Update(
                rng.gen_range(0..cfg.reducers),
                rng.gen_range(1..100),
            ));
        }
    }
    Node::Seq(stmts)
}

/// The regular nested-spawn family used by the coverage experiments:
/// every frame up to depth `d` runs one sync block of `k` spawned
/// children, each child recursing, with a reducer update on every
/// continuation strand and in every leaf.
pub fn nested_spawns(k: u32, d: u32) -> SynthProgram {
    fn frame(k: u32, d: u32) -> Node {
        let mut stmts = Vec::new();
        for i in 0..k {
            let child = if d > 0 {
                frame(k, d - 1)
            } else {
                Node::Seq(vec![Node::Update(0, 1)])
            };
            stmts.push(Node::Spawn(Box::new(child)));
            stmts.push(Node::Update(0, (i + 2) as Word));
        }
        stmts.push(Node::Sync);
        Node::Seq(stmts)
    }
    SynthProgram {
        locs: 1,
        reducers: 1,
        body: frame(k, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SerialEngine;
    use crate::spec::{BlockScript, StealSpec};

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = gen_program(7, &cfg);
        let b = gen_program(7, &cfg);
        assert_eq!(a.body, b.body);
        assert_ne!(gen_program(8, &cfg).body, a.body);
    }

    #[test]
    fn random_programs_execute_without_panicking() {
        let cfg = GenConfig {
            view_aliasing: true,
            ..GenConfig::default()
        };
        for seed in 0..50 {
            let p = gen_program(seed, &cfg);
            let mut out = Vec::new();
            SerialEngine::new().run(|cx| out = run_synth(cx, &p));
            assert_eq!(out.len(), p.reducers as usize);
        }
    }

    #[test]
    fn racefree_programs_are_spec_invariant() {
        let cfg = GenConfig::default();
        for seed in 0..30 {
            let p = gen_racefree(seed, &cfg);
            let mut base = Vec::new();
            SerialEngine::new().run(|cx| base = run_synth(cx, &p));
            for spec in [
                StealSpec::EveryBlock(BlockScript::steals(vec![1, 2])),
                StealSpec::Random {
                    seed: seed ^ 0xdead,
                    max_block: 4,
                    steals_per_block: 2,
                },
                StealSpec::AtSpawnCount(2),
            ] {
                let mut out = Vec::new();
                SerialEngine::with_spec(spec.clone()).run(|cx| out = run_synth(cx, &p));
                assert_eq!(out, base, "seed {seed} spec {spec:?}");
            }
        }
    }

    #[test]
    fn hash_concat_matches_reference_under_steals() {
        let ops: Vec<Word> = (1..=20).collect();
        let expect = HashConcat::reference(&ops);
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 3, 5])),
            StealSpec::Random {
                seed: 3,
                max_block: 20,
                steals_per_block: 3,
            },
        ] {
            let mut got = 0;
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let h = cx.new_reducer(Arc::new(HashConcat));
                for &x in &ops {
                    cx.spawn(move |cx| cx.reducer_update(h, &[x]));
                }
                cx.sync();
                let v = cx.reducer_get_view(h);
                got = cx.read(v.at(1));
            });
            assert_eq!(got, expect, "under {spec:?}");
        }
    }

    #[test]
    fn nested_spawns_shape() {
        let p = nested_spawns(3, 2);
        let stats = SerialEngine::new().run(|cx| {
            run_synth(cx, &p);
        });
        assert_eq!(stats.max_sync_block, 3);
        // One block of 3 spawns per level, 3 levels of spawning frames:
        // max spawn count = 9.
        assert_eq!(stats.max_spawn_count, 9);
    }

    #[test]
    fn node_size_counts_nodes() {
        let n = Node::Seq(vec![
            Node::Spawn(Box::new(Node::Seq(vec![Node::Sync]))),
            Node::Read(0),
        ]);
        assert_eq!(n.size(), 5);
    }
}
