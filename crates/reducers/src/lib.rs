#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rader-reducers
//!
//! Reducer hyperobjects for the Cilk simulator: a typed layer over
//! `rader-cilk`'s untyped [`ViewMonoid`] interface, plus the builtin
//! monoids the paper's benchmarks use:
//!
//! | Monoid | View | Used by |
//! |---|---|---|
//! | [`OpAdd`], [`OpMul`], [`Min`], [`Max`], [`OpAnd`], [`OpOr`], [`OpXor`] | one scalar cell | `fib` (`reducer_opadd`) |
//! | [`ListMonoid`] | linked list with head/tail pointers | the paper's Figure 1 |
//! | [`OstreamMonoid`] | record stream (ordered concatenation) | `dedup`, `ferret` (`reducer_ostream`) |
//! | [`BagMonoid`] | pennant bag (Leiserson–Schardl) | `pbfs` |
//! | [`HypervectorMonoid`] | chunked growable vector | `collision` |
//! | [`ArgMax`] | user-defined struct (best value + witness) | `knapsack` |
//!
//! All views live in the simulator's instrumented arena, so the memory
//! traffic of `Update`/`Create-Identity`/`Reduce` is visible to the race
//! detectors — which is the whole point: the paper's signature bug
//! (Figure 1) is a determinacy race on a list node's `next` pointer
//! performed *by the `Reduce` operation*.
//!
//! ## Typed handles
//!
//! [`RedHandle<M>`] is a `Copy` typed wrapper around a raw reducer ID;
//! monoid-specific methods (e.g. `RedHandle::<OpAdd>::add`) are
//! implemented per monoid and take the engine's [`Ctx`] directly.
//!
//! ```
//! use rader_cilk::SerialEngine;
//! use rader_reducers::{Monoid, OpAdd};
//!
//! let mut total = 0;
//! SerialEngine::new().run(|cx| {
//!     let sum = OpAdd::register(cx);
//!     for i in 1..=10 {
//!         cx.spawn(move |cx| sum.add(cx, i));
//!     }
//!     cx.sync();
//!     total = sum.get(cx);
//! });
//! assert_eq!(total, 55);
//! ```

use std::marker::PhantomData;
use std::sync::Arc;

use rader_cilk::{Ctx, Loc, ReducerId, ViewMonoid, Word};

pub mod bag;
pub mod hypervec;
pub mod list;
pub mod ostream;
pub mod scalar;
pub mod strukt;

pub use bag::BagMonoid;
pub use hypervec::HypervectorMonoid;
pub use list::{ListMonoid, MyList};
pub use ostream::OstreamMonoid;
pub use scalar::{Max, Min, OpAdd, OpAnd, OpMul, OpOr, OpXor};
pub use strukt::ArgMax;

/// Pointer encoding for arena-resident linked structures: locations are
/// stored as `loc + 1`, with `0` meaning null. (Needed because `Loc(0)` is
/// a valid arena location.)
#[inline]
pub fn enc_ptr(loc: Loc) -> Word {
    loc.0 as Word + 1
}

/// Decode a pointer word; `0` is null.
#[inline]
pub fn dec_ptr(w: Word) -> Option<Loc> {
    if w == 0 {
        None
    } else {
        Some(Loc((w - 1) as u32))
    }
}

/// A typed, `Copy` handle to a registered reducer.
///
/// Monoid-specific operations are provided by per-monoid `impl` blocks
/// (e.g. `RedHandle<OpAdd>::add`, `RedHandle<ListMonoid>::push_back`).
pub struct RedHandle<M> {
    id: ReducerId,
    _m: PhantomData<fn() -> M>,
}

impl<M> Clone for RedHandle<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for RedHandle<M> {}

impl<M> RedHandle<M> {
    /// Wrap a raw reducer ID.
    pub fn from_raw(id: ReducerId) -> Self {
        RedHandle {
            id,
            _m: PhantomData,
        }
    }

    /// The raw reducer ID.
    pub fn raw(&self) -> ReducerId {
        self.id
    }

    /// Raw `get_value`: location of the view visible to the current strand
    /// (a reducer-read).
    pub fn view(&self, cx: &mut Ctx<'_>) -> Loc {
        cx.reducer_get_view(self.id)
    }

    /// Raw `set_value`: install `loc` as the current view (a reducer-read).
    pub fn set_view(&self, cx: &mut Ctx<'_>, loc: Loc) {
        cx.reducer_set_view(self.id, loc)
    }
}

/// Registration sugar: every [`ViewMonoid`] gets `register` /
/// `register_with` constructors producing typed handles.
pub trait Monoid: ViewMonoid + Sized + 'static {
    /// Register a default-constructed instance of this monoid.
    fn register(cx: &mut Ctx<'_>) -> RedHandle<Self>
    where
        Self: Default,
    {
        Self::default().register_with(cx)
    }

    /// Register this monoid instance (for monoids carrying parameters).
    fn register_with(self, cx: &mut Ctx<'_>) -> RedHandle<Self> {
        RedHandle::from_raw(cx.new_reducer(Arc::new(self)))
    }
}

impl<T: ViewMonoid + Sized + 'static> Monoid for T {}
