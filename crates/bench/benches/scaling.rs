//! Asymptotic scaling benches (Theorems 1 and 5).
//!
//! * Peer-Set runs in `O(T α(x, x))`: time per strand should be flat as
//!   `T` grows (fib sweep).
//! * SP+ runs in `O((T + Mτ) α(v, v))`: overhead beyond SP-bags grows
//!   with the number of simulated steals `M` (steal-density sweep) and
//!   with the reduce cost `τ` (heavy-monoid sweep).

use std::sync::Arc;

use rader_bench::timing::Harness;
use rader_cilk::{BlockScript, Ctx, SerialEngine, StealSpec, ViewMem, ViewMonoid, Word};
use rader_core::{PeerSet, SpPlus};
use rader_workloads::fib;

fn main() {
    let mut h = Harness::from_args("scaling");
    bench_peerset_scaling(&mut h);
    bench_spplus_steal_density(&mut h);
    bench_spplus_reduce_cost(&mut h);
    h.finish();
}

/// Theorem 1: Peer-Set time vs computation size T.
fn bench_peerset_scaling(h: &mut Harness) {
    let mut g = h.group("peerset_scaling_T");
    for n in [10u32, 14, 18] {
        g.bench(n.to_string(), || {
            let mut tool = PeerSet::new();
            SerialEngine::new().run_tool(&mut tool, |cx| {
                fib::fib_program(cx, n);
            });
            assert!(!tool.report().has_races());
        });
    }
}

/// Theorem 5, the `M` term: SP+ time vs steal density on fixed work.
fn bench_spplus_steal_density(h: &mut Harness) {
    let mut g = h.group("spplus_scaling_M");
    // fib's sync blocks have one continuation; vary which fraction of
    // frames steal by keying on spawn count.
    let specs: Vec<(&str, StealSpec)> = vec![
        ("no steals", StealSpec::None),
        ("steal depth 8 only", StealSpec::AtSpawnCount(8)),
        ("steal depth 4 only", StealSpec::AtSpawnCount(4)),
        (
            "steal every block",
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
        ),
    ];
    for (label, spec) in specs {
        g.bench(label, || {
            let mut tool = SpPlus::new();
            SerialEngine::with_spec(spec.clone()).run_tool(&mut tool, |cx| {
                fib::fib_program(cx, 14);
            });
            assert!(!tool.report().has_races());
        });
    }
}

/// A monoid whose reduce costs `tau` memory operations.
struct HeavyReduce {
    tau: usize,
}

impl ViewMonoid for HeavyReduce {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> rader_cilk::Loc {
        m.alloc(self.tau.max(1))
    }
    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: rader_cilk::Loc, right: rader_cilk::Loc) {
        for i in 0..self.tau {
            let r = m.read_idx(right, i);
            let l = m.read_idx(left, i);
            m.write_idx(left, i, l + r);
        }
    }
    fn update(&self, m: &mut ViewMem<'_, '_>, view: rader_cilk::Loc, op: &[Word]) {
        let v = m.read(view);
        m.write(view, v + op[0]);
    }
}

/// Theorem 5, the `τ` term: SP+ time vs reduce cost at fixed M.
fn bench_spplus_reduce_cost(h: &mut Harness) {
    let mut g = h.group("spplus_scaling_tau");
    for tau in [1usize, 64, 512] {
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3, 4]));
        g.bench(tau.to_string(), || {
            let mut tool = SpPlus::new();
            SerialEngine::with_spec(spec.clone()).run_tool(&mut tool, |cx: &mut Ctx<'_>| {
                let h = cx.new_reducer(Arc::new(HeavyReduce { tau }));
                for round in 0..32 {
                    for i in 0..8 {
                        let x = round * 8 + i;
                        cx.spawn(move |cx| cx.reducer_update(h, &[x]));
                    }
                    cx.sync();
                }
            });
            assert!(!tool.report().has_races());
        });
    }
}
