//! Admission control: the server's global memory budget as a hard
//! reservation ledger.
//!
//! Every admitted job reserves its modeled peak — the Eq. 2 / Alg. 3
//! arithmetic the planner already does per job, aggregated over the job's
//! ranks — for its whole lifetime, and the controller maintains the
//! central invariant the concurrency proptest pins:
//!
//! > **the sum of admitted jobs' modeled peaks never exceeds the global
//! > budget.**
//!
//! A job's modeled peak at batch count `b` is `p` times its per-process
//! [`Footprint`] at `b`, `input_bytes + ⌈unmerged_bytes / b⌉`: the inputs
//! are resident for the whole multiply (irreducible), while column
//! batching divides the unmerged intermediate. That split is exactly what
//! makes *shrink-and-batch* possible — when a job's planned peak doesn't
//! fit the budget **currently** available, the controller runs Alg. 3 on
//! what each process can still get, raising `b` until the divisible term
//! fits, admitting the job now at the price of extra A-rebroadcasts
//! instead of parking it behind the running set.
//!
//! [`AdmissionController::decide`] is pure (no reservation mutation), so
//! schedulers can probe alternatives; [`AdmissionController::admit`] is
//! the single mutation point and asserts the invariant on every call.

use super::job::JobId;
use crate::memory::Footprint;
use std::collections::HashMap;

/// The memory shape of one job, as the planner modeled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobDemand {
    /// Ranks the job runs on (reservations are aggregate: per-process
    /// bytes × `p`).
    pub p: usize,
    /// The heaviest rank's resident inputs and unmerged intermediate under
    /// the chosen placement.
    pub footprint: Footprint,
    /// The batch count the planner chose under the job's own budget.
    pub planned_batches: usize,
    /// Finest batching column granularity allows (`ncols(B)`).
    pub max_batches: usize,
}

impl JobDemand {
    /// Aggregate modeled peak at batch count `b` (Eq. 2 shape).
    pub(crate) fn bytes_at(&self, b: usize) -> usize {
        self.p.saturating_mul(self.footprint.at(b))
    }

    /// Aggregate peak at the planned batch count.
    pub(crate) fn planned_bytes(&self) -> usize {
        self.bytes_at(self.planned_batches)
    }

    /// Aggregate peak at the finest feasible batching — the least memory
    /// this job can ever run in.
    pub(crate) fn min_bytes(&self) -> usize {
        self.bytes_at(self.max_batches)
    }
}

/// One admission verdict ([`AdmissionController::decide`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Fits right now at the planned batch count: reserve `bytes`.
    Admit {
        /// Batch count to run with (the planned one).
        batches: usize,
        /// Aggregate bytes to reserve.
        bytes: usize,
    },
    /// Fits right now only after raising the batch count to `batches`
    /// (shrink-and-batch): reserve `bytes`.
    AdmitShrunk {
        /// Raised batch count that makes the peak fit what's available.
        batches: usize,
        /// Aggregate bytes to reserve.
        bytes: usize,
    },
    /// Feasible under the full budget, but not in what's currently
    /// available: park it and retry when a running job releases.
    Queue,
    /// Can never run here: even the finest batching exceeds the global
    /// budget.
    Reject {
        /// The job's minimum aggregate demand.
        min_bytes: usize,
    },
}

/// The reservation ledger.
#[derive(Debug)]
pub(crate) struct AdmissionController {
    budget_bytes: usize,
    reserved: usize,
    peak_reserved: usize,
    shrink: bool,
    ledger: HashMap<JobId, usize>,
}

impl AdmissionController {
    /// A controller over `budget_bytes` aggregate modeled bytes.
    /// `shrink` enables shrink-and-batch admission.
    pub(crate) fn new(budget_bytes: usize, shrink: bool) -> Self {
        AdmissionController {
            budget_bytes,
            reserved: 0,
            peak_reserved: 0,
            shrink,
            ledger: HashMap::new(),
        }
    }

    /// The global budget.
    pub(crate) fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently reserved by admitted jobs.
    pub(crate) fn reserved(&self) -> usize {
        self.reserved
    }

    /// High-water mark of [`AdmissionController::reserved`] — what the
    /// proptest compares against the budget.
    pub(crate) fn peak_reserved(&self) -> usize {
        self.peak_reserved
    }

    /// Bytes available for new admissions.
    pub(crate) fn available(&self) -> usize {
        self.budget_bytes - self.reserved
    }

    /// Judge `demand` against the current reservation state. Pure: no
    /// reservation is taken until [`AdmissionController::admit`].
    pub(crate) fn decide(&self, demand: &JobDemand) -> Decision {
        let min_bytes = demand.min_bytes();
        if min_bytes > self.budget_bytes {
            return Decision::Reject { min_bytes };
        }
        let available = self.available();
        let planned = demand.planned_bytes();
        if planned <= available {
            return Decision::Admit {
                batches: demand.planned_batches,
                bytes: planned,
            };
        }
        if !self.shrink {
            return Decision::Queue;
        }
        // Shrink-and-batch: Alg. 3 on what each process can still get.
        let fewest = available
            .checked_div(demand.p)
            .and_then(|per_proc| demand.footprint.fewest_batches(per_proc));
        match fewest.map(|b| b.max(demand.planned_batches)) {
            Some(batches) if batches <= demand.max_batches => Decision::AdmitShrunk {
                batches,
                bytes: demand.bytes_at(batches),
            },
            _ => Decision::Queue,
        }
    }

    /// Reserve `bytes` for `id`. Panics if the reservation would breach
    /// the budget or the id already holds one — both are scheduler bugs,
    /// not runtime conditions.
    pub(crate) fn admit(&mut self, id: JobId, bytes: usize) {
        assert!(
            self.reserved + bytes <= self.budget_bytes,
            "admission would breach the global budget: reserved {} + job {} > {}",
            self.reserved,
            bytes,
            self.budget_bytes
        );
        let prev = self.ledger.insert(id, bytes);
        assert!(prev.is_none(), "job {id} admitted twice");
        self.reserved += bytes;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
    }

    /// Release job `id`'s reservation, returning the freed bytes.
    pub(crate) fn release(&mut self, id: JobId) -> usize {
        let bytes = self
            .ledger
            .remove(&id)
            .unwrap_or_else(|| panic!("released job {id} holds no reservation"));
        self.reserved -= bytes;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::alg3_batch_count;

    fn demand(p: usize, input: usize, unmerged: usize, planned: usize, maxb: usize) -> JobDemand {
        JobDemand {
            p,
            footprint: Footprint {
                inputs: input,
                unmerged,
            },
            planned_batches: planned,
            max_batches: maxb,
        }
    }

    #[test]
    fn bytes_at_divides_only_the_intermediate() {
        let d = demand(4, 100, 1000, 1, 64);
        assert_eq!(d.bytes_at(1), 4 * 1100);
        assert_eq!(d.bytes_at(10), 4 * 200);
        assert_eq!(d.bytes_at(1000), 4 * 101);
        // b is clamped to ≥ 1 and the ceil never under-counts.
        assert_eq!(d.bytes_at(0), d.bytes_at(1));
        assert_eq!(demand(4, 100, 999, 1, 64).bytes_at(10), 4 * 200);
    }

    #[test]
    fn admit_then_queue_then_release_cycle() {
        let mut ac = AdmissionController::new(10_000, false);
        let d = demand(2, 500, 2000, 1, 8); // planned: 2·2500 = 5000
        match ac.decide(&d) {
            Decision::Admit { batches: 1, bytes } => ac.admit(1, bytes),
            other => panic!("{other:?}"),
        }
        assert_eq!(ac.reserved(), 5000);
        // Second identical job fits exactly.
        match ac.decide(&d) {
            Decision::Admit { bytes, .. } => ac.admit(2, bytes),
            other => panic!("{other:?}"),
        }
        // Third must queue (shrink disabled).
        assert_eq!(ac.decide(&d), Decision::Queue);
        assert_eq!(ac.release(1), 5000);
        assert!(matches!(ac.decide(&d), Decision::Admit { .. }));
        assert_eq!(ac.peak_reserved(), 10_000);
    }

    #[test]
    fn shrink_raises_batches_to_fit_what_is_left() {
        let mut ac = AdmissionController::new(10_000, true);
        ac.admit(1, 7000);
        // Planned peak 2·(500+2000) = 5000 > 3000 available; at b ≥ 2 the
        // peak is 2·(500+1000) = 3000 ≤ 3000.
        let d = demand(2, 500, 2000, 1, 64);
        match ac.decide(&d) {
            Decision::AdmitShrunk { batches, bytes } => {
                assert_eq!(batches, 2);
                assert_eq!(bytes, 3000);
                ac.admit(2, bytes);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ac.available(), 0);
        // Nothing left at all: even one-column batches can't fit now.
        assert_eq!(ac.decide(&d), Decision::Queue);
        // A shrunk b is Alg. 3 on what each process can still get:
        // (p, input nnz, unmerged nnz, reserved of 10 000).
        for (p, input, unmerged, reserved) in [
            (2, 10, 80, 7000),
            (4, 5, 300, 9000),
            (3, 7, 41, 9000),
            (8, 1, 50, 9000),
        ] {
            let mut ac = AdmissionController::new(10_000, true);
            ac.admit(1, reserved);
            let d = demand(p, 24 * input, 24 * unmerged, 1, 64);
            let per_proc = ac.available() / p;
            let b = alg3_batch_count(per_proc, input as u64, 0, unmerged as u64, 0, 64).unwrap();
            let shrunk = Decision::AdmitShrunk {
                batches: b,
                bytes: d.bytes_at(b),
            };
            assert_eq!(ac.decide(&d), shrunk, "p={p} reserved={reserved}");
        }
    }

    #[test]
    fn shrink_respects_column_granularity() {
        let mut ac = AdmissionController::new(10_000, true);
        ac.admit(1, 8000);
        // Needs b ≥ 4 to fit 2000 available (fixed 2·500 = 1000, room
        // 500/proc, unmerged 2000/proc ⇒ b = 4), but only 3 columns exist.
        let d = demand(2, 500, 2000, 1, 3);
        assert_eq!(ac.decide(&d), Decision::Queue);
        // With enough columns the same job shrinks in.
        let d64 = demand(2, 500, 2000, 1, 64);
        assert!(matches!(ac.decide(&d64), Decision::AdmitShrunk { batches: 4, .. }));
    }

    #[test]
    fn never_fits_is_rejected_not_queued() {
        let ac = AdmissionController::new(1000, true);
        // Min demand: 2·(400 + ⌈1000/64⌉) = 832 ≤ 1000 → queueable...
        let ok = demand(2, 400, 1000, 1, 64);
        assert!(!matches!(ac.decide(&ok), Decision::Reject { .. }));
        // ...but inputs alone over budget can never run.
        let never = demand(2, 600, 1000, 1, 64);
        match ac.decide(&never) {
            Decision::Reject { min_bytes } => assert_eq!(min_bytes, 2 * 616),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "breach the global budget")]
    fn over_admission_panics() {
        let mut ac = AdmissionController::new(100, false);
        ac.admit(1, 60);
        ac.admit(2, 60);
    }
}
