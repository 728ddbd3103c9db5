//! Microbenches for the disjoint-set substrate: the near-constant
//! per-check cost (`α` factor) behind Theorems 1 and 5.

use rader_bench::timing::{black_box, Harness};
use rader_dsu::{BagForest, BagKind, ViewId};

fn main() {
    let mut h = Harness::from_args("dsu");
    let mut g = h.group("dsu");

    g.bench("make_elem_bag", || {
        let mut f = BagForest::with_capacity(1024);
        for _ in 0..1024 {
            black_box(f.make_elem_bag(BagKind::S, ViewId(0)));
        }
        f.len()
    });

    g.bench("union_chain_then_find_all", || {
        let mut f = BagForest::with_capacity(4096);
        let root = f.make_bag(BagKind::P, ViewId(0));
        let elems: Vec<_> = (0..1024)
            .map(|_| {
                let (e, bag) = f.make_elem_bag(BagKind::S, ViewId(0));
                f.union_bags(root, bag);
                e
            })
            .collect();
        let mut acc = 0u32;
        for &e in &elems {
            acc ^= f.find_info(e).vid.0;
        }
        black_box(acc)
    });

    g.bench("interleaved_sp_bags_pattern", || {
        // The access pattern the detectors generate: frame creation,
        // child returns folding S bags into P bags, periodic finds.
        let mut f = BagForest::with_capacity(8192);
        let mut stack = Vec::new();
        let mut hits = 0usize;
        for i in 0..512 {
            let (e, s) = f.make_elem_bag(BagKind::S, ViewId(0));
            let p = f.make_bag(BagKind::P, ViewId(0));
            stack.push((e, s, p));
            if i % 3 == 2 {
                let (child_e, child_s, _) = stack.pop().unwrap();
                let &(_, _, parent_p) = stack.last().unwrap();
                f.union_bags(parent_p, child_s);
                if f.find_info(child_e).kind.is_p() {
                    hits += 1;
                }
            }
        }
        black_box(hits)
    });

    h.finish();
}
