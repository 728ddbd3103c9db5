//! Design ablations (DESIGN.md §5).
//!
//! * **Single shadow reader vs. all readers** — the paper (after Feng &
//!   Leiserson) stores *one* reader per location, justified by the
//!   pseudotransitivity of ∥. The ablation implements the naive
//!   alternative — every parallel reader retained and checked — and
//!   measures the cost on a read-heavy workload. (Exactness of the
//!   single-reader scheme is separately property-tested against the
//!   oracle.)
//! * **Grain size** — `cilk_for` lowering grain vs. detection cost: the
//!   frame count (and hence bag traffic) scales inversely with grain.

use rader_bench::timing::Harness;
use rader_cilk::{AccessKind, Ctx, EnterKind, FrameId, Loc, SerialEngine, StrandId, Tool};
use rader_core::SpBags;
use rader_dsu::{Bag, BagForest, BagKind, Elem, ViewId};

fn main() {
    let mut h = Harness::from_args("ablations");
    bench_shadow_reader_ablation(&mut h);
    bench_grain_size(&mut h);
    bench_sp_maintenance(&mut h);
    h.finish();
}

/// The naive SP-bags variant: keeps EVERY reader whose bag is currently
/// parallel, checking writes against all of them.
struct AllReadersSpBags {
    forest: BagForest,
    stack: Vec<(Elem, Bag, Bag)>,
    readers: Vec<Vec<Elem>>,
    writer: Vec<Option<Elem>>,
    pub races: usize,
}

impl AllReadersSpBags {
    fn new() -> Self {
        AllReadersSpBags {
            forest: BagForest::new(),
            stack: Vec::new(),
            readers: Vec::new(),
            writer: Vec::new(),
            races: 0,
        }
    }

    fn slot<T: Default + Clone>(v: &mut Vec<T>, loc: Loc) -> &mut T {
        if loc.index() >= v.len() {
            v.resize(loc.index() + 1, T::default());
        }
        &mut v[loc.index()]
    }
}

impl Tool for AllReadersSpBags {
    fn frame_enter(&mut self, _f: FrameId, _k: EnterKind) {
        let (elem, s) = self.forest.make_elem_bag(BagKind::S, ViewId::NONE);
        let p = self.forest.make_bag(BagKind::P, ViewId::NONE);
        self.stack.push((elem, s, p));
    }
    fn frame_leave(&mut self, _f: FrameId, kind: EnterKind) {
        let (_, gs, gp) = self.stack.pop().unwrap();
        let Some(&(_, fs, fp)) = self.stack.last() else {
            return;
        };
        if kind == EnterKind::Spawn {
            self.forest.union_bags(fp, gs);
        } else {
            self.forest.union_bags(fs, gs);
        }
        self.forest.union_bags(fp, gp);
    }
    fn sync(&mut self, _f: FrameId) {
        let &(_, s, p) = self.stack.last().unwrap();
        self.forest.union_bags(s, p);
        let fresh = self.forest.make_bag(BagKind::P, ViewId::NONE);
        self.stack.last_mut().unwrap().2 = fresh;
    }
    fn read(&mut self, _f: FrameId, _s: StrandId, loc: Loc, _k: AccessKind) {
        if let Some(Some(w)) = self.writer.get(loc.index()).copied() {
            if self.forest.find_info(w).kind.is_p() {
                self.races += 1;
            }
        }
        let me = self.stack.last().unwrap().0;
        Self::slot(&mut self.readers, loc).push(me); // keep them ALL
    }
    fn write(&mut self, _f: FrameId, _s: StrandId, loc: Loc, _k: AccessKind) {
        let rs = Self::slot(&mut self.readers, loc).clone();
        for r in rs {
            if self.forest.find_info(r).kind.is_p() {
                self.races += 1;
                break;
            }
        }
        if let Some(Some(w)) = self.writer.get(loc.index()).copied() {
            if self.forest.find_info(w).kind.is_p() {
                self.races += 1;
            }
        }
        let me = self.stack.last().unwrap().0;
        *Self::slot(&mut self.writer, loc) = Some(me);
    }
}

/// Read-heavy race-free workload: many parallel readers of a shared
/// table, periodic post-sync writers.
fn read_heavy(cx: &mut Ctx<'_>, rounds: usize, readers: usize) {
    let table = cx.alloc(64);
    for r in 0..rounds {
        for _ in 0..readers {
            cx.spawn(move |cx| {
                for i in 0..64 {
                    let _ = cx.read_idx(table, i);
                }
            });
        }
        cx.sync();
        // Serial writers touch the whole table: the naive variant scans
        // every accumulated reader per cell, quadratic in rounds.
        for i in 0..64 {
            cx.write_idx(table, i, r as i64);
        }
    }
}

fn bench_shadow_reader_ablation(h: &mut Harness) {
    let mut g = h.group("shadow_reader_ablation");
    g.bench("single_reader (paper)", || {
        let mut t = SpBags::new();
        SerialEngine::new().run_tool(&mut t, |cx| read_heavy(cx, 16, 8));
        assert!(!t.report().has_races());
    });
    g.bench("all_readers (naive)", || {
        let mut t = AllReadersSpBags::new();
        SerialEngine::new().run_tool(&mut t, |cx| read_heavy(cx, 16, 8));
        assert_eq!(t.races, 0);
    });
}

fn bench_grain_size(h: &mut Harness) {
    let mut g = h.group("par_for_grain_vs_spplus");
    for grain in [1u64, 8, 64] {
        g.bench(grain.to_string(), || {
            let mut t = rader_core::SpPlus::new();
            SerialEngine::with_spec(rader_cilk::StealSpec::AtSpawnCount(2)).run_tool(
                &mut t,
                |cx| {
                    let arr = cx.alloc(4096);
                    cx.par_for(0..4096, grain, &mut |cx, i| {
                        let v = cx.read_idx(arr, i as usize);
                        cx.write_idx(arr, i as usize, v + 1);
                    });
                },
            );
            assert!(!t.report().has_races());
        });
    }
}

/// Series-parallel maintenance cost: the paper's bags (union-find) on a
/// no-steal workload, with no reducer awareness.
fn bench_sp_maintenance(h: &mut Harness) {
    use rader_workloads::fib;
    let mut g = h.group("sp_maintenance");
    // SP-bags is view-blind: it "detects" the reducer's same-view update
    // traffic as races (the false positives SP+ exists to remove), which
    // is fine for a cost measurement.
    g.bench("spbags_fib16", || {
        let mut t = SpBags::new();
        SerialEngine::new().run_tool(&mut t, |cx| {
            fib::fib_program(cx, 16);
        });
        t.report().racy_locs().len()
    });
}
