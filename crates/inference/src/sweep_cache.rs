//! The epoch-pinned interventional sweep cache.
//!
//! Unicorn's answers are pure functions of `(snapshot epoch, canonical
//! sweep)`: debugging iterations repeat the same `do(·)` probes, and
//! steady-state serving traffic re-asks the same questions window after
//! window. The [`SweepCache`] memoizes the *sweep result buffer* — the
//! exact simulated output bits every consumer folds from — keyed by the
//! sweep's canonical signature and pinned to the data epoch it was
//! computed at, so [`crate::FittedScm::evaluate_plan`] can skip the lane
//! scheduler entirely for sweeps the process already simulated.
//!
//! # Why caching cannot change an answer
//!
//! * **The key is exact.** A sweep's signature hashes the canonical
//!   assignment list over the *bit patterns* of its `f64` values (plus
//!   the target read set and the residual-mode key). The swept rows are
//!   not in it: the fit's stride is a function of its row count, which
//!   the epoch tag already pins. Two sweeps share an entry only when the
//!   planner itself would have deduplicated them within one plan.
//! * **The value is exact.** The cache stores the per-row simulated
//!   values of the sweep's target nodes (whole-table sweeps) or the full
//!   simulated vector (single-row counterfactual sweeps) — never a
//!   reduced scalar. Every consumer kind re-folds from the buffer in
//!   ascending row order with the same arithmetic the miss path uses, so
//!   a hit is bit-identical to recomputation by construction.
//! * **A hit is epoch-exact.** Entries follow the
//!   [`unicorn_stats::EpochLru`] discipline: a lookup hits only at the
//!   reader's snapshot epoch; an entry computed on older data is reported
//!   stale, recomputed, and overwritten in place. Appends and relearns
//!   invalidate by construction — no explicit flush is ever needed.
//! * **Eviction is amnesia, not error.** Capacity eviction (or a fleet
//!   budget sweep clearing the cache) only means the next lookup
//!   recomputes the same bits.
//!
//! # Making a new query type cache-eligible
//!
//! Cache eligibility is a property of the *sweep*, not the consumer:
//! any reduction that reads only per-row values of its sweep's declared
//! target set (or the full vector of a single-row sweep) is served from
//! the cache automatically. To keep a new query kind eligible:
//!
//! 1. **Register reads as targets.** When compiling the query into plan
//!    items, every node a reduction reads must be folded into the sweep's
//!    `targets` set (as `QueryPlan::expectation` / `probability` / `ice`
//!    do) — the buffer stores exactly the declared targets, and the
//!    signature includes them, so an undeclared read has nowhere to come
//!    from. Whole-vector consumers belong on single-row (`Row`-mode)
//!    sweeps, whose buffers are the full simulated vector.
//! 2. **Keep the signature canonical.** New degrees of freedom that
//!    change simulated values (a new residual mode, a sampling knob) must
//!    enter the mode key or the signature — hashed over exact bits for
//!    `f64` parameters, never rounded.
//! 3. **Fold row-major, ascending.** The consumer's fold must be a pure
//!    function of the per-row buffer values applied in ascending row
//!    order (the lane-width/fold-order contract in `scm.rs`); then
//!    hit ≡ miss ≡ cache-off bitwise, which
//!    `tests/sweep_cache_determinism.rs` asserts for every consumer kind.
//!
//! The `UNICORN_SWEEP_CACHE={on,off}` environment gate (default on)
//! keeps the bypass path exercised in CI; both legs must answer
//! identically.

use std::sync::{Arc, OnceLock};

use unicorn_graph::NodeId;

use unicorn_stats::{CacheStats, EpochLru};

use crate::plan::{ModeKey, Sweep};

/// Canonical identity of one interventional sweep — the cache key.
///
/// Everything that selects *which* values a sweep simulates and *what*
/// the buffer records is in here: the canonical `do(·)` assignments (by
/// exact `f64` bits), the ascending target read set (the buffer's column
/// layout) and the residual-mode key. Data identity is deliberately
/// absent — that is the epoch tag's job, and it also fixes the swept rows
/// (the fit's stride is `max(n / 256, 1)` over the epoch's `n` rows).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SweepSignature {
    /// `(node, value bits)` of the canonical assignments.
    assignments: Vec<(NodeId, u64)>,
    /// Distinct nodes the buffer records per row, ascending.
    targets: Vec<NodeId>,
    /// Residual-mode identity (`f64` weights by bits).
    mode: ModeKey,
}

/// Default total entry capacity: sized for a serving snapshot's steady
/// working set (hundreds of distinct sweeps per query mix) while keeping
/// the worst-case resident footprint small enough for fleet budgets —
/// `approx_bytes` reports the actual usage for accounting either way.
const DEFAULT_SWEEP_CACHE_CAPACITY: usize = 1024;

/// An epoch-keyed, sharded LRU from canonical sweep signatures to
/// completed sweep result buffers (module docs). Thread-safe and cheap
/// to share: the serving path holds one per tenant state, attached to
/// every fitted SCM along the same lineage, so it survives admission
/// windows, keep-alive connections, and epoch bumps alike.
pub struct SweepCache {
    inner: EpochLru<SweepSignature, Arc<Vec<f64>>>,
}

impl SweepCache {
    /// A cache holding at most `capacity` sweep buffers in total.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: EpochLru::new(capacity),
        }
    }

    /// The canonical signature of a compiled sweep.
    pub(crate) fn signature(sweep: &Sweep) -> SweepSignature {
        SweepSignature {
            assignments: sweep
                .intervention
                .assignments
                .iter()
                .map(|&(n, v)| (n, v.to_bits()))
                .collect(),
            targets: sweep.intervention.targets.clone(),
            mode: sweep.mode.key(),
        }
    }

    /// The buffer for `sig` computed at exactly `epoch`, counting a hit
    /// or miss.
    pub(crate) fn get(&self, sig: &SweepSignature, epoch: u64) -> Option<Arc<Vec<f64>>> {
        self.inner.get(sig, epoch)
    }

    /// Stores a completed sweep buffer at `epoch`, overwriting any stale
    /// entry under the same signature.
    pub(crate) fn put(&self, sig: SweepSignature, epoch: u64, buffer: Arc<Vec<f64>>) {
        self.inner.put(sig, epoch, buffer);
    }

    /// Hit/miss counters (hits count only epoch-exact lookups).
    pub fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Total capacity evictions so far.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions()
    }

    /// Live entries (any epoch).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no buffers are cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Approximate resident bytes (buffer payloads plus per-entry
    /// overhead) — what fleet memory accounting charges the tenant.
    pub fn approx_bytes(&self) -> usize {
        self.inner
            .approx_bytes(|buf| std::mem::size_of::<Vec<f64>>() + buf.len() * 8)
    }

    /// Drops every buffer, keeping counters and capacity — the fleet
    /// budget sweep's eviction hook. Always safe: the next lookup
    /// recomputes bit-identically.
    pub fn clear(&self) {
        self.inner.clear();
    }
}

impl Default for SweepCache {
    fn default() -> Self {
        Self::new(DEFAULT_SWEEP_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for SweepCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCache")
            .field("entries", &self.len())
            .field("hits", &self.stats().hits())
            .field("misses", &self.stats().misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

/// The `UNICORN_SWEEP_CACHE` gate, read once per process: any value but
/// `off`/`0`/`false` (default: unset) enables sweep caching. The off leg
/// exists so CI keeps the bypass path — which must answer identically —
/// exercised.
pub fn sweep_cache_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("UNICORN_SWEEP_CACHE").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QueryPlan;

    fn one_sweep_plan() -> QueryPlan {
        let mut plan = QueryPlan::new();
        plan.expectation(3, &[(0, 1.0)]);
        plan
    }

    #[test]
    fn signature_is_epoch_free_and_bit_exact() {
        let plan = one_sweep_plan();
        let sw = &plan.sweeps[0];
        let a = SweepCache::signature(sw);
        let b = SweepCache::signature(sw);
        assert_eq!(a, b);
        // A different assignment bit pattern is a different key.
        let mut other = QueryPlan::new();
        other.expectation(3, &[(0, 1.0 + f64::EPSILON)]);
        assert_ne!(a, SweepCache::signature(&other.sweeps[0]));
        // Same sweep, different target read set: different buffer layout,
        // different key.
        let mut wider = QueryPlan::new();
        wider.expectation(3, &[(0, 1.0)]);
        wider.expectation(2, &[(0, 1.0)]);
        assert_ne!(a, SweepCache::signature(&wider.sweeps[0]));
    }

    #[test]
    fn hits_are_epoch_exact_and_eviction_counts() {
        let plan = one_sweep_plan();
        let sig = SweepCache::signature(&plan.sweeps[0]);
        let cache = SweepCache::new(8);
        assert!(cache.get(&sig, 5).is_none());
        cache.put(sig.clone(), 5, Arc::new(vec![1.5, 2.5]));
        assert_eq!(cache.get(&sig, 5).unwrap().as_slice(), &[1.5, 2.5]);
        assert!(cache.get(&sig, 6).is_none(), "stale epoch never hits");
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 2);
        assert!(cache.approx_bytes() >= 16);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.approx_bytes(), 0);
    }
}
