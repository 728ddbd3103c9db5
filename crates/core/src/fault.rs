//! Deterministic fault injection for the exhaustive sweep.
//!
//! The sweep's fault-tolerance machinery — worker `catch_unwind`,
//! quarantine, journal checkpointing under interruption — is only
//! trustworthy if it can be *exercised on demand*. A [`FaultPlan`] names
//! the spec indices whose runs panic before they start: the same plan
//! injects the same panics at the same spec boundaries on every run,
//! every thread count, and every scheduler, so a test (or the
//! `--fault-panic-at` CLI flag) can pin "spec 5 panics, everything else
//! completes, spec 5 is quarantined" as an exact expectation rather than
//! a probabilistic one. The payload is `injected fault at spec {i}`.

use std::collections::BTreeSet;

/// The spec indices whose sweep runs are forced to panic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic before the SP+ run of each of these spec indices.
    pub panic_at: BTreeSet<usize>,
}
