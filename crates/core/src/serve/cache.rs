//! Two-level plan cache: probe memo by operand handle, plan memo by
//! structural sketch.
//!
//! Planning a job costs a structure probe over the operands plus a
//! predict pass over every candidate grid. A serving workload is
//! repeat-heavy — a thousand jobs over a handful of operand shapes — so
//! both costs are memoized, at different keys:
//!
//! * **Probe memo** — keyed by the *handle pair* `(OperandId, OperandId)`.
//!   Handles are interned by the operand store and matrices are immutable
//!   once registered, so a hit is exact by construction: no hashing of
//!   matrix content on the submit path at all.
//! * **Plan cache** — keyed by [`PlanKey`]: the pair's
//!   structural [`sketch`](crate::planner::sketch::sketch) plus the run parameters that change the
//!   planner's answer (`p` and the job's budget). This level also dedups
//!   *structurally identical* pairs registered under different handles —
//!   the sketch is value-insensitive, so re-registered copies of the same
//!   pattern still hit.
//!
//! A full hit skips probe *and* predict ([`super::PlanSource::Cached`]);
//! a probe-memo hit with a plan miss skips only the probe
//! ([`super::PlanSource::ProbeReused`]). Eviction is LRU over a logical
//! tick counter (no wall clock — deterministic under test), and
//! [`CacheStats`] counts hits, misses and evictions for the server's
//! report.

use super::admission::JobDemand;
use super::job::OperandId;
use crate::planner::probe::ProbeEstimate;
use crate::planner::Candidate;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything besides structure that changes what the planner would say.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// The structural [`sketch`](crate::planner::sketch::sketch) of the operand pair.
    pub sketch: u64,
    /// Process count the plan was made for.
    pub p: usize,
    /// The job's own budget (total bytes) the batch count was derived
    /// under.
    pub budget_bytes: usize,
}

/// A memoized planning decision, ready to run without probe or predict.
#[derive(Debug, Clone)]
pub(crate) struct CachedPlan {
    /// The winning configuration (layers, kernels, overlap, exchange).
    pub candidate: Candidate,
    /// The memory shape admission control replays (planned and shrunk);
    /// its `planned_batches` is the batch count the planner derived under
    /// the job's budget.
    pub demand: JobDemand,
}

/// Hit/miss/eviction counters for both cache levels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan-cache hits (probe *and* predict skipped).
    pub plan_hits: u64,
    /// Plan-cache misses (predict ran).
    pub plan_misses: u64,
    /// Plans evicted to stay within capacity.
    pub plan_evictions: u64,
    /// Probe-memo hits (probe skipped for a known handle pair).
    pub probe_hits: u64,
    /// Probe-memo misses (the pair was probed).
    pub probe_misses: u64,
}

impl CacheStats {
    /// Plan-cache hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// The serve subsystem's plan cache (both levels plus stats).
#[derive(Debug)]
pub(crate) struct PlanCache {
    capacity: usize,
    tick: u64,
    plans: HashMap<PlanKey, (CachedPlan, u64)>,
    probes: HashMap<(OperandId, OperandId), (u64, Arc<ProbeEstimate>)>,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables the plan
    /// level; the probe memo is unbounded — one entry per registered pair
    /// actually multiplied, which the operand store already bounds).
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            plans: HashMap::new(),
            probes: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up the memoized probe of a handle pair.
    pub(crate) fn probe_lookup(
        &mut self,
        pair: (OperandId, OperandId),
    ) -> Option<(u64, Arc<ProbeEstimate>)> {
        match self.probes.get(&pair) {
            Some((sketch, est)) => {
                self.stats.probe_hits += 1;
                Some((*sketch, Arc::clone(est)))
            }
            None => {
                self.stats.probe_misses += 1;
                None
            }
        }
    }

    /// Memoize a freshly taken probe for a handle pair.
    pub(crate) fn probe_insert(
        &mut self,
        pair: (OperandId, OperandId),
        sketch: u64,
        est: Arc<ProbeEstimate>,
    ) {
        self.probes.insert(pair, (sketch, est));
    }

    /// Look up a plan, bumping its recency on hit.
    pub(crate) fn get(&mut self, key: &PlanKey) -> Option<CachedPlan> {
        self.tick += 1;
        match self.plans.get_mut(key) {
            Some((plan, used)) => {
                *used = self.tick;
                self.stats.plan_hits += 1;
                Some(plan.clone())
            }
            None => {
                self.stats.plan_misses += 1;
                None
            }
        }
    }

    /// Insert a plan, evicting the least-recently-used entry when full.
    pub(crate) fn insert(&mut self, key: PlanKey, plan: CachedPlan) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.plans.contains_key(&key) && self.plans.len() >= self.capacity {
            if let Some(victim) = self
                .plans
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                self.plans.remove(&victim);
                self.stats.plan_evictions += 1;
            }
        }
        self.plans.insert(key, (plan, self.tick));
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::ExchangeMode;
    use crate::family15::AlgorithmFamily;
    use crate::kernels::KernelStrategy;
    use crate::memory::Footprint;
    use crate::summa2d::OverlapMode;

    fn plan() -> CachedPlan {
        CachedPlan {
            candidate: Candidate {
                family: AlgorithmFamily::Summa3dBatched,
                layers: 1,
                kernels: KernelStrategy::New,
                overlap: OverlapMode::Blocking,
                exchange: ExchangeMode::DenseBcast,
            },
            demand: JobDemand {
                p: 4,
                footprint: Footprint {
                    inputs: 100,
                    unmerged: 400,
                },
                planned_batches: 2,
                max_batches: 32,
            },
        }
    }

    fn key(sketch: u64) -> PlanKey {
        PlanKey {
            sketch,
            p: 4,
            budget_bytes: 1 << 20,
        }
    }

    #[test]
    fn lru_evicts_the_stalest_plan() {
        let mut cache = PlanCache::new(2);
        cache.insert(key(1), plan());
        cache.insert(key(2), plan());
        assert!(cache.get(&key(1)).is_some()); // 1 is now fresher than 2
        cache.insert(key(3), plan()); // evicts 2
        assert_eq!(cache.plans.len(), 2);
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.plan_evictions, 1);
        assert_eq!(s.plan_hits, 3);
        assert_eq!(s.plan_misses, 1);
    }

    #[test]
    fn key_distinguishes_p_and_budget_not_just_sketch() {
        let mut cache = PlanCache::new(8);
        cache.insert(key(7), plan());
        assert!(cache.get(&key(7)).is_some());
        assert!(cache.get(&PlanKey { p: 16, ..key(7) }).is_none());
        assert!(cache
            .get(&PlanKey {
                budget_bytes: 1 << 21,
                ..key(7)
            })
            .is_none());
    }

    #[test]
    fn zero_capacity_disables_plan_level() {
        let mut cache = PlanCache::new(0);
        cache.insert(key(1), plan());
        assert!(cache.plans.is_empty());
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().plan_evictions, 0);
    }

    #[test]
    fn hit_rate_counts_both_levels_separately() {
        let mut cache = PlanCache::new(4);
        assert_eq!(cache.stats().plan_hit_rate(), 0.0);
        cache.insert(key(1), plan());
        cache.get(&key(1));
        cache.get(&key(1));
        cache.get(&key(9));
        assert!((cache.stats().plan_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Probe memo counts independently of the plan level.
        let (s, e) = (1, Arc::new(dummy_probe()));
        let pair = (OperandId(0), OperandId(1));
        assert!(cache.probe_lookup(pair).is_none());
        cache.probe_insert(pair, s, e);
        assert!(cache.probe_lookup(pair).is_some());
        let st = cache.stats();
        assert_eq!((st.probe_hits, st.probe_misses), (1, 1));
    }

    fn dummy_probe() -> ProbeEstimate {
        ProbeEstimate {
            nrows_a: 8,
            nrows_b: 8,
            total_cols: 8,
            cols: vec![0, 1],
            scale: 4.0,
            nnz_a: 16,
            nnz_b: 16,
            flops: 12,
            nnz_c: 12,
            col_flops: vec![1, 2],
            col_nnz: vec![1, 2],
            col_bnnz: vec![1, 1],
            work_units: 0.0,
        }
    }
}
