//! Seeded stress tests for the runtime's work-stealing deque.
//!
//! The deque's correctness claims (crates/cilk/src/deque.rs module docs)
//! are: every pushed element is taken exactly once (conservation, no
//! duplication), the owner sees LIFO order, and thieves see FIFO order.
//! These tests drive randomized multi-thread interleavings from
//! `rader-rng` seeds — every failure reproduces from its printed seed —
//! plus a single-owner sequential model check against `VecDeque`, and
//! the pool's panic/shutdown contract.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rader_cilk::deque::MutexDeque;
use rader_cilk::par::ParRuntime;
use rader_rng::Rng;

/// Steal until empty, appending into `out`.
fn drain_as_thief(d: &MutexDeque<usize>, out: &mut Vec<usize>) {
    while let Some(v) = d.steal() {
        out.push(v);
    }
}

/// Single-owner sequential model test: random push/pop/steal ops on one
/// thread must agree exactly with a `VecDeque` model (owner at the back,
/// thief at the front). Exercises growth and the empty/last-element
/// boundary without concurrency noise.
#[test]
fn sequential_ops_match_vecdeque_model() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0xDE9E_0000 + seed);
        let d = MutexDeque::new();
        let mut model: VecDeque<usize> = VecDeque::new();
        let mut next = 0usize;
        for _ in 0..4_096 {
            match rng.gen_range(0..3u32) {
                0 => {
                    d.push(next);
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    let got = d.pop();
                    let want = model.pop_back();
                    assert_eq!(got, want, "seed {seed}: owner pop diverged from model");
                }
                _ => {
                    let got = d.steal();
                    let want = model.pop_front();
                    assert_eq!(got, want, "seed {seed}: thief steal diverged from model");
                }
            }
            assert_eq!(d.len(), model.len(), "seed {seed}: length diverged");
        }
    }
}

/// Multi-thread conservation: an owner doing a seeded mix of pushes and
/// pops races 1–4 thieves; afterwards, pops ∪ steals must be exactly the
/// pushed set — nothing lost, nothing duplicated.
#[test]
fn concurrent_interleavings_conserve_elements() {
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xC0DE_0000 + seed);
        let nthieves = rng.gen_range(1..=4usize);
        let total = rng.gen_range(2_000..6_000usize);
        let pop_bias = rng.gen_range(0..100u32);
        let owner_seed = rng.next_u64();

        let d = Arc::new(MutexDeque::new());
        let done = Arc::new(AtomicBool::new(false));
        let (mut popped, stolen): (Vec<usize>, Vec<usize>) = std::thread::scope(|s| {
            let thieves: Vec<_> = (0..nthieves)
                .map(|_| {
                    let d = d.clone();
                    let done = done.clone();
                    s.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            match d.steal() {
                                Some(v) => local.push(v),
                                None => {
                                    if done.load(Ordering::Acquire) {
                                        // Final drain after the owner
                                        // quiesced, then exit.
                                        drain_as_thief(&d, &mut local);
                                        return local;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                    })
                })
                .collect();

            // Owner: seeded push/pop mix, then quiesce.
            let mut rng = Rng::seed_from_u64(owner_seed);
            let mut popped = Vec::new();
            let mut next = 0usize;
            while next < total {
                if rng.gen_range(0..100u32) < pop_bias {
                    if let Some(v) = d.pop() {
                        popped.push(v);
                    }
                } else {
                    d.push(next);
                    next += 1;
                }
            }
            done.store(true, Ordering::Release);
            let stolen: Vec<usize> = thieves
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect();
            (popped, stolen)
        });

        // Leftovers (thieves may exit while the owner still holds the
        // last element race) drain through the owner side.
        while let Some(v) = d.pop() {
            popped.push(v);
        }
        let mut all: Vec<usize> = popped.iter().chain(stolen.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..total).collect::<Vec<_>>(),
            "seed {seed}: conservation violated ({} popped, {} stolen, {} pushed)",
            popped.len(),
            stolen.len(),
            total
        );
    }
}

/// Per-thief FIFO: a single thief's steal sequence must be strictly
/// increasing (it always takes the current oldest element), even while
/// the owner pushes and pops concurrently.
#[test]
fn single_thief_observes_fifo_order() {
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0xF1F0_0000 + seed);
        let total = rng.gen_range(4_000..8_000usize);
        let d = Arc::new(MutexDeque::new());
        let done = Arc::new(AtomicBool::new(false));
        let stolen = std::thread::scope(|s| {
            let thief = {
                let d = d.clone();
                let done = done.clone();
                s.spawn(move || {
                    let mut local = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match d.steal() {
                            Some(v) => local.push(v),
                            None => std::thread::yield_now(),
                        }
                    }
                    drain_as_thief(&d, &mut local);
                    local
                })
            };
            for i in 0..total {
                d.push(i);
                // Occasional owner pops contend on the last element.
                if rng.gen_range(0..8u32) == 0 {
                    let _ = d.pop();
                }
            }
            done.store(true, Ordering::Release);
            thief.join().unwrap()
        });
        for w in stolen.windows(2) {
            assert!(
                w[0] < w[1],
                "seed {seed}: thief saw {} before {} (FIFO violated)",
                w[0],
                w[1]
            );
        }
    }
}

/// A panicking job must surface on the caller of [`ParRuntime::run`] —
/// not hang the spawner's `sync` forever (the pre-fix behavior: the
/// unwound job never decremented its parent's pending count) — and the
/// pool must still shut down leak-exact: every queued-but-unrun job's
/// captures dropped, every helper thread joined. The `Arc` sentinel held
/// by all 64 jobs pins the leak-exactness; the test completing at all
/// pins the no-hang claim.
#[test]
fn worker_panic_propagates_to_caller_and_shuts_down_leak_exact() {
    let sentinel = Arc::new(());
    let result = {
        let sentinel = sentinel.clone();
        catch_unwind(AssertUnwindSafe(move || {
            let rt = ParRuntime::new(4);
            rt.run(move |cx| {
                for i in 0..64usize {
                    let token = sentinel.clone();
                    cx.spawn(move |cx| {
                        // Nested spawn so the panic crosses a frame
                        // boundary: the grandchild unwinds, the child's
                        // implicit sync re-raises, and the root sync
                        // re-raises again.
                        let token = token;
                        cx.spawn(move |_| {
                            let _held = token;
                            if i == 13 {
                                panic!("worker panic 13");
                            }
                        });
                        cx.sync();
                    });
                }
                cx.sync();
            });
        }))
    };
    let payload = match result {
        Err(payload) => payload,
        Ok(()) => panic!("panic did not propagate"),
    };
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or_else(|| panic!("non-str panic payload"));
    assert_eq!(msg, "worker panic 13");
    assert_eq!(
        Arc::strong_count(&sentinel),
        1,
        "shutdown leaked job captures"
    );
}
