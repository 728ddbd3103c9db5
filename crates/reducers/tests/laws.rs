//! Monoid-law property tests: every builtin reducer must produce the
//! plain-Rust serial fold of its update sequence, for any distribution
//! of the updates over spawned children and any steal specification.
//!
//! This is the paper's determinism contract ("in the absence of a race,
//! as long as the Reduce operation is semantically associative, the
//! resulting view is the same as if the program were run serially"),
//! instantiated per monoid and stress-tested over random schedules.
//!
//! Cases are generated by `rader-rng` from fixed per-test seeds; every
//! assertion carries the case seed that regenerates its inputs.

use rader_cilk::{BlockScript, Ctx, SerialEngine, StealSpec, Word};
use rader_reducers::{
    ArgMax, BagMonoid, HypervectorMonoid, ListMonoid, Max, Min, Monoid, OpAdd, OpAnd, OpMul, OpOr,
    OpXor, OstreamMonoid,
};
use rader_rng::{splitmix64, Rng};

const BASE_SEED: u64 = 0x1A55_0001;
const CASES: usize = 48;

fn case_seeds(salt: u64) -> Vec<u64> {
    let mut s = BASE_SEED ^ salt;
    (0..CASES).map(|_| splitmix64(&mut s)).collect()
}

fn rand_ops(rng: &mut Rng, lo: Word, hi: Word, max_len: usize) -> Vec<Word> {
    let n = rng.gen_range(1..max_len);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Partition `ops` into `groups` consecutive chunks and spawn one child
/// per chunk; each child applies its chunk in order.
fn spawn_chunks<T: Clone + Send + Sync + 'static>(
    cx: &mut Ctx<'_>,
    ops: &[T],
    groups: usize,
    apply: impl FnMut(&mut Ctx<'_>, &T) + Clone + 'static,
) {
    let chunk = ops.len().div_ceil(groups.max(1)).max(1);
    for c in ops.chunks(chunk) {
        let c: Vec<T> = c.to_vec();
        let mut apply = apply.clone();
        cx.spawn(move |cx| {
            for x in &c {
                apply(cx, x);
            }
        });
    }
    cx.sync();
}

fn specs(seed: u64) -> Vec<StealSpec> {
    vec![
        StealSpec::None,
        StealSpec::EveryBlock(BlockScript::steals(vec![1])),
        StealSpec::EveryBlock(BlockScript::steals(vec![2, 3])),
        StealSpec::EveryBlock(BlockScript::new(vec![
            rader_cilk::BlockOp::Steal(1),
            rader_cilk::BlockOp::Steal(2),
            rader_cilk::BlockOp::Reduce,
            rader_cilk::BlockOp::Steal(3),
        ])),
        StealSpec::Random {
            seed,
            max_block: 6,
            steals_per_block: 3,
        },
        StealSpec::AtSpawnCount(1),
        StealSpec::AtSpawnCount(2),
    ]
}

#[test]
fn list_preserves_sequence() {
    for case_seed in case_seeds(0x01) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let ops = rand_ops(&mut rng, -100, 100, 40);
        let groups = rng.gen_range(1usize..6);
        for spec in specs(rng.next_u64()) {
            let mut got = Vec::new();
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let r = ListMonoid::register(cx);
                spawn_chunks(cx, &ops, groups, move |cx, &x| r.push_back(cx, x));
                got = r.to_vec(cx);
            });
            assert_eq!(&got, &ops, "case seed {case_seed:#x} under {spec:?}");
        }
    }
}

#[test]
fn hypervector_preserves_sequence() {
    for case_seed in case_seeds(0x02) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let ops = rand_ops(&mut rng, -100, 100, 60);
        let groups = rng.gen_range(1usize..6);
        for spec in specs(rng.next_u64()) {
            let mut got = Vec::new();
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let r = HypervectorMonoid::register(cx);
                spawn_chunks(cx, &ops, groups, move |cx, &x| r.push(cx, x));
                got = r.to_vec(cx);
            });
            assert_eq!(&got, &ops, "case seed {case_seed:#x} under {spec:?}");
        }
    }
}

#[test]
fn ostream_preserves_record_order() {
    for case_seed in case_seeds(0x03) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let nrecs = rng.gen_range(1usize..25);
        let recs: Vec<Vec<Word>> = (0..nrecs).map(|_| rand_ops(&mut rng, -50, 50, 4)).collect();
        let groups = rng.gen_range(1usize..5);
        for spec in specs(rng.next_u64()) {
            let mut got = Vec::new();
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let r = OstreamMonoid::register(cx);
                spawn_chunks(cx, &recs, groups, move |cx, rec: &Vec<Word>| {
                    r.emit(cx, rec)
                });
                got = r.collect(cx);
            });
            assert_eq!(&got, &recs, "case seed {case_seed:#x} under {spec:?}");
        }
    }
}

#[test]
fn bag_preserves_multiset() {
    for case_seed in case_seeds(0x04) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let ops = rand_ops(&mut rng, -100, 100, 60);
        let groups = rng.gen_range(1usize..6);
        let mut expect = ops.clone();
        expect.sort_unstable();
        for spec in specs(rng.next_u64()) {
            let mut got = Vec::new();
            let mut count = 0;
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let r = BagMonoid::register(cx);
                spawn_chunks(cx, &ops, groups, move |cx, &x| r.insert(cx, x));
                count = r.count(cx) as usize;
                got = r.to_vec(cx);
            });
            assert_eq!(count, ops.len(), "case seed {case_seed:#x} under {spec:?}");
            got.sort_unstable();
            assert_eq!(&got, &expect, "case seed {case_seed:#x} under {spec:?}");
        }
    }
}

#[test]
fn argmax_takes_earliest_maximum() {
    for case_seed in case_seeds(0x05) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let n = rng.gen_range(1usize..40);
        let ops: Vec<(Word, Word)> = (0..n)
            .map(|_| (rng.gen_range(-100i64..100), rng.gen_range(0i64..1000)))
            .collect();
        let groups = rng.gen_range(1usize..6);
        // Reference: maximum value; on ties, the earliest witness.
        let mut best: Option<(Word, Word)> = None;
        for &(v, w) in &ops {
            if best.is_none_or(|(bv, _)| v > bv) {
                best = Some((v, w));
            }
        }
        for spec in specs(rng.next_u64()) {
            let mut got = None;
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let r = ArgMax::register(cx);
                spawn_chunks(cx, &ops, groups, move |cx, &(v, w)| r.offer(cx, v, w));
                got = r.best(cx);
            });
            assert_eq!(got, best, "case seed {case_seed:#x} under {spec:?}");
        }
    }
}

#[test]
fn scalar_monoids_fold_correctly() {
    for case_seed in case_seeds(0x06) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let ops = rand_ops(&mut rng, -50, 50, 40);
        let groups = rng.gen_range(1usize..6);
        let sum: Word = ops.iter().sum();
        let prod: Word = ops.iter().fold(1i64, |a, &b| a.wrapping_mul(b));
        let mn: Word = *ops.iter().min().unwrap();
        let mx: Word = *ops.iter().max().unwrap();
        let and: Word = ops.iter().fold(-1i64, |a, &b| a & b);
        let or: Word = ops.iter().fold(0i64, |a, &b| a | b);
        let xor: Word = ops.iter().fold(0i64, |a, &b| a ^ b);
        for spec in specs(rng.next_u64()) {
            let mut got = [0i64; 7];
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let radd = OpAdd::register(cx);
                let rmul = OpMul::register(cx);
                let rmin = Min::register(cx);
                let rmax = Max::register(cx);
                let rand_ = OpAnd::register(cx);
                let ror = OpOr::register(cx);
                let rxor = OpXor::register(cx);
                spawn_chunks(cx, &ops, groups, move |cx, &x| {
                    radd.update(cx, x);
                    rmul.update(cx, x);
                    rmin.update(cx, x);
                    rmax.update(cx, x);
                    rand_.update(cx, x);
                    ror.update(cx, x);
                    rxor.update(cx, x);
                });
                got = [
                    radd.get(cx),
                    rmul.get(cx),
                    rmin.get(cx),
                    rmax.get(cx),
                    rand_.get(cx),
                    ror.get(cx),
                    rxor.get(cx),
                ];
            });
            assert_eq!(
                got,
                [sum, prod, mn, mx, and, or, xor],
                "case seed {case_seed:#x} under {spec:?}"
            );
        }
    }
}

/// The verdict finds nothing in the law programs (they are race-free by
/// construction) — a smoke check that the laws harness itself is clean.
#[test]
fn law_programs_are_detector_clean() {
    use rader_core::{check, CoverageOptions, SweepControl};
    let ops: Vec<Word> = (0..24).collect();
    let program = move |cx: &mut Ctx<'_>| {
        let list = ListMonoid::register(cx);
        let bag = BagMonoid::register(cx);
        spawn_chunks(cx, &ops, 4, move |cx, &x| {
            list.push_back(cx, x);
            bag.insert(cx, x);
        });
        let _ = list.to_vec(cx);
        let _ = bag.count(cx);
    };
    let (opts, ctl) = (CoverageOptions::default(), SweepControl::default());
    let v = check(program, &opts, 1, &ctl).expect("no journal is configured");
    assert!(v.clean(), "{}", v.report);
}
