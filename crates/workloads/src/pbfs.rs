//! `pbfs` — work-efficient parallel breadth-first search with the bag
//! reducer (Leiserson & Schardl, SPAA'10; the paper's `pbfs` benchmark,
//! paper input |V| = 0.3M, |E| = 1.9M).
//!
//! Layer-by-layer BFS: the next frontier is accumulated in a
//! [`BagMonoid`] reducer by logically parallel neighbor scans (duplicate
//! insertions allowed), and between layers the bag is drained serially,
//! deduplicated against the distance array, and the layer distances are
//! committed. Keeping the `dist` writes serial avoids PBFS's classic
//! benign same-value write races, so the workload is detector-clean.

use rader_cilk::{Ctx, Loc, Word};
use rader_reducers::{BagMonoid, Monoid, RedHandle};
use rader_rng::Rng;

use crate::{Scale, Workload};

/// A graph in CSR form.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Per-vertex edge-list offsets (length `n + 1`).
    pub offsets: Vec<usize>,
    /// Flattened edge targets.
    pub targets: Vec<u32>,
}

impl Graph {
    /// Vertex count.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }
    /// Edge count.
    pub fn m(&self) -> usize {
        self.targets.len()
    }
    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Seeded random graph: `n` vertices, ~`deg` out-edges each, plus a
/// Hamiltonian-ish backbone so BFS reaches everything.
pub fn gen_graph(n: usize, deg: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut adj: Vec<Vec<u32>> = vec![Vec::with_capacity(deg + 1); n];
    for (v, a) in adj.iter_mut().enumerate() {
        a.push(((v + 1) % n) as u32); // backbone
        for _ in 0..deg {
            a.push(rng.gen_range(0..n as u32));
        }
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for a in &adj {
        targets.extend_from_slice(a);
        offsets.push(targets.len());
    }
    Graph { offsets, targets }
}

struct Csr {
    offsets: Loc,
    targets: Loc,
    dist: Loc,
    n: usize,
}

/// The Cilk program: BFS distances from `source`; returns the sum of all
/// finite distances (a deterministic checksum).
pub fn pbfs_program(cx: &mut Ctx<'_>, g: &Graph, source: u32) -> Word {
    let n = g.n();
    let offsets = cx.alloc(n + 1);
    let targets = cx.alloc(g.m().max(1));
    let dist = cx.alloc(n);
    for (i, &o) in g.offsets.iter().enumerate() {
        cx.write_idx(offsets, i, o as Word);
    }
    for (i, &t) in g.targets.iter().enumerate() {
        cx.write_idx(targets, i, t as Word);
    }
    for i in 0..n {
        cx.write_idx(dist, i, -1);
    }
    let csr = Csr {
        offsets,
        targets,
        dist,
        n,
    };

    cx.write_idx(dist, source as usize, 0);
    let mut frontier = vec![source as Word];
    let mut depth: Word = 0;
    while !frontier.is_empty() {
        let next = BagMonoid::register(cx);
        process_layer(cx, &csr, &frontier, next);
        cx.sync();
        // Drain the bag serially: dedup against dist and commit.
        let candidates = next.to_vec(cx);
        depth += 1;
        frontier.clear();
        for v in candidates {
            let vi = v as usize;
            if cx.read_idx(csr.dist, vi) == -1 {
                cx.write_idx(csr.dist, vi, depth);
                frontier.push(v);
            }
        }
    }

    let mut checksum = 0;
    for i in 0..n {
        let d = cx.read_idx(dist, i);
        if d >= 0 {
            checksum += d;
        }
    }
    checksum
}

/// Scan a layer's vertices in parallel, inserting unvisited neighbors
/// into the next-layer bag (duplicates permitted; the drain dedups).
fn process_layer(cx: &mut Ctx<'_>, csr: &Csr, frontier: &[Word], next: RedHandle<BagMonoid>) {
    let grain = (frontier.len() / 8).max(4) as u64;
    let frontier_arr = cx.alloc(frontier.len().max(1));
    for (i, &v) in frontier.iter().enumerate() {
        cx.write_idx(frontier_arr, i, v);
    }
    let n = csr.n;
    let (offsets, targets, dist) = (csr.offsets, csr.targets, csr.dist);
    cx.par_for(0..frontier.len() as u64, grain, &mut |cx, i| {
        let v = cx.read_idx(frontier_arr, i as usize) as usize;
        debug_assert!(v < n);
        let start = cx.read_idx(offsets, v) as usize;
        let end = cx.read_idx(offsets, v + 1) as usize;
        for e in start..end {
            let w = cx.read_idx(targets, e);
            if cx.read_idx(dist, w as usize) == -1 {
                next.insert(cx, w);
            }
        }
    });
}

/// The *racy* PBFS variant: marks `dist` inside the parallel neighbor
/// scan (the classic PBFS shortcut — benign when writes carry the same
/// value, but a determinacy race nonetheless, and exactly what a
/// Cilk-Screen-style tool reports on real PBFS). Kept for detector
/// validation.
pub fn pbfs_racy_program(cx: &mut Ctx<'_>, g: &Graph, source: u32) -> Word {
    let n = g.n();
    let offsets = cx.alloc(n + 1);
    let targets = cx.alloc(g.m().max(1));
    let dist = cx.alloc(n);
    for (i, &o) in g.offsets.iter().enumerate() {
        cx.write_idx(offsets, i, o as Word);
    }
    for (i, &t) in g.targets.iter().enumerate() {
        cx.write_idx(targets, i, t as Word);
    }
    for i in 0..n {
        cx.write_idx(dist, i, -1);
    }
    cx.write_idx(dist, source as usize, 0);
    let mut frontier = vec![source as Word];
    let mut depth: Word = 0;
    while !frontier.is_empty() {
        let next = BagMonoid::register(cx);
        let frontier_arr = cx.alloc(frontier.len().max(1));
        for (i, &v) in frontier.iter().enumerate() {
            cx.write_idx(frontier_arr, i, v);
        }
        depth += 1;
        let d = depth;
        cx.par_for(0..frontier.len() as u64, 4, &mut |cx, i| {
            let v = cx.read_idx(frontier_arr, i as usize) as usize;
            let start = cx.read_idx(offsets, v) as usize;
            let end = cx.read_idx(offsets, v + 1) as usize;
            for e in start..end {
                let w = cx.read_idx(targets, e) as usize;
                if cx.read_idx(dist, w) == -1 {
                    cx.write_idx(dist, w, d); // RACE: parallel same-value writes
                    next.insert(cx, w as Word);
                }
            }
        });
        cx.sync();
        // Dedup the bag (racy marking admits duplicates).
        let mut layer = next.to_vec(cx);
        layer.sort_unstable();
        layer.dedup();
        frontier = layer;
    }
    let mut checksum = 0;
    for i in 0..n {
        let v = cx.read_idx(dist, i);
        if v >= 0 {
            checksum += v;
        }
    }
    checksum
}

/// Plain-Rust reference BFS checksum.
pub fn pbfs_reference(g: &Graph, source: u32) -> Word {
    let mut dist = vec![-1i64; g.n()];
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source as usize]);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if dist[w as usize] == -1 {
                dist[w as usize] = dist[v] + 1;
                queue.push_back(w as usize);
            }
        }
    }
    dist.iter().filter(|&&d| d >= 0).sum()
}

/// The benchmark at a given scale (paper input |V| = 0.3M, |E| = 1.9M;
/// scaled by ~30× to keep the sweep laptop-sized at the same average
/// degree ≈ 6.3).
pub fn workload(scale: Scale) -> Workload {
    let (n, deg) = match scale {
        Scale::Small => (200, 4),
        Scale::Paper => (10_000, 5),
    };
    let g = gen_graph(n, deg, 0x70626673);
    let expect = pbfs_reference(&g, 0);
    Workload {
        name: "pbfs",
        run: Box::new(move |cx| {
            let got = pbfs_program(cx, &g, 0);
            assert_eq!(got, expect, "pbfs checksum wrong");
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};
    use rader_core::Rader;

    #[test]
    fn matches_reference_bfs() {
        for seed in 0..3 {
            let g = gen_graph(60, 3, seed);
            let mut got = -1;
            SerialEngine::new().run(|cx| got = pbfs_program(cx, &g, 0));
            assert_eq!(got, pbfs_reference(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn spec_invariant() {
        let g = gen_graph(50, 3, 11);
        let expect = pbfs_reference(&g, 0);
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::Random {
                seed: 5,
                max_block: 4,
                steals_per_block: 2,
            },
        ] {
            let mut got = -1;
            SerialEngine::with_spec(spec).run(|cx| got = pbfs_program(cx, &g, 0));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn detector_clean() {
        let g = gen_graph(40, 3, 2);
        let rader = Rader::new();
        let r = rader.check_view_read(|cx| {
            pbfs_program(cx, &g, 0);
        });
        assert!(!r.has_races(), "{r}");
        let r =
            rader.check_determinacy(StealSpec::EveryBlock(BlockScript::steals(vec![1])), |cx| {
                pbfs_program(cx, &g, 0);
            });
        assert!(!r.has_races(), "{r}");
    }

    #[test]
    fn racy_variant_is_flagged_and_still_correct_serially() {
        let g = gen_graph(40, 3, 9);
        // Serially the same-value race is benign: checksum still right.
        let mut got = -1;
        SerialEngine::new().run(|cx| got = pbfs_racy_program(cx, &g, 0));
        assert_eq!(got, pbfs_reference(&g, 0));
        // ...but it IS a determinacy race, and SP+ says so.
        let r = Rader::new().check_determinacy(StealSpec::None, |cx| {
            pbfs_racy_program(cx, &g, 0);
        });
        assert!(r.has_races(), "racy PBFS not flagged");
    }

    #[test]
    fn disconnected_source_only() {
        // A graph where the backbone is the only connectivity still
        // terminates and visits everything.
        let g = gen_graph(10, 0, 0);
        let mut got = -1;
        SerialEngine::new().run(|cx| got = pbfs_program(cx, &g, 3));
        assert_eq!(got, pbfs_reference(&g, 3));
    }
}
