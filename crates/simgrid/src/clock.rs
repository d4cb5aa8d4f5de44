//! Per-rank modeled clocks with per-step accounting.
//!
//! The paper instruments seven major steps of BatchedSUMMA3D (Sec. IV-B):
//! Symbolic, A-Broadcast, B-Broadcast, Local-Multiply, Merge-Layer,
//! AllToAll-Fiber and Merge-Fiber. [`Step`] adds a split of Symbolic into
//! its communication and computation parts (needed for Fig. 8) and an
//! `Other` bucket for harness overhead (scatter/gather) that the paper
//! excludes from its plots.

/// A timed step of the distributed algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Step {
    /// Symbolic step, communication part (broadcasts inside Alg. 3).
    SymbolicComm = 0,
    /// Symbolic step, local counting part (`LocalSymbolic`).
    SymbolicComp = 1,
    /// Broadcast of `A` pieces along process rows.
    ABcast = 2,
    /// Broadcast of `B` pieces along process columns.
    BBcast = 3,
    /// Local multiplication (one per SUMMA stage).
    LocalMultiply = 4,
    /// Merging the per-stage partial products inside a layer.
    MergeLayer = 5,
    /// All-to-all exchange along fibers (one per batch).
    AllToAllFiber = 6,
    /// Merging the per-layer pieces received on the fiber.
    MergeFiber = 7,
    /// Harness overhead outside the algorithm proper (scatter, gather,
    /// verification); excluded from paper-style reports.
    Other = 8,
    /// Time spent waiting for the slowest participant at collective entry.
    /// Kept separate so that load-imbalance skew does not pollute the α–β
    /// cost of whichever collective happens to come next (at miniature
    /// scale the skew is comparatively much larger than at the paper's
    /// payload sizes, where it vanishes inside the bandwidth terms).
    /// Counted in totals: it is real critical-path time.
    Wait = 9,
    /// Sparsity-aware exchange, request round: receivers ship their
    /// needed-column index sets to the stage owner (`ExchangeMode::
    /// SparseFetch`). Zero under dense broadcasts.
    FetchRequest = 10,
    /// Sparsity-aware exchange, reply round: owners ship the requested
    /// column-subset slices back point-to-point. Zero under dense
    /// broadcasts.
    FetchReply = 11,
    /// 1.5D shift round: point-to-point rotation of a sparse `A` block
    /// around a replication ring (ColA / InnerABC). Zero under SUMMA.
    AShift = 12,
    /// 1.5D partial-`C` reduction across a replication team (InnerABC's
    /// allreduce of layer-partial dense outputs). Zero elsewhere.
    CReduce = 13,
}

/// Number of [`Step`] variants.
pub(crate) const N_STEPS: usize = 14;

/// All steps in display order.
pub const ALL_STEPS: [Step; N_STEPS] = [
    Step::SymbolicComm,
    Step::SymbolicComp,
    Step::ABcast,
    Step::BBcast,
    Step::FetchRequest,
    Step::FetchReply,
    Step::AShift,
    Step::LocalMultiply,
    Step::MergeLayer,
    Step::AllToAllFiber,
    Step::CReduce,
    Step::MergeFiber,
    Step::Other,
    Step::Wait,
];

impl Step {
    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Step::SymbolicComm => "Symbolic-Comm",
            Step::SymbolicComp => "Symbolic-Comp",
            Step::ABcast => "A-Bcast",
            Step::BBcast => "B-Bcast",
            Step::LocalMultiply => "Local-Multiply",
            Step::MergeLayer => "Merge-Layer",
            Step::AllToAllFiber => "AllToAll-Fiber",
            Step::MergeFiber => "Merge-Fiber",
            Step::Other => "Other",
            Step::Wait => "Wait",
            Step::FetchRequest => "Fetch-Request",
            Step::FetchReply => "Fetch-Reply",
            Step::AShift => "A-Shift",
            Step::CReduce => "C-Reduce",
        }
    }

    /// Steps the paper counts as communication.
    pub fn is_communication(self) -> bool {
        matches!(
            self,
            Step::SymbolicComm
                | Step::ABcast
                | Step::BBcast
                | Step::AllToAllFiber
                | Step::FetchRequest
                | Step::FetchReply
                | Step::AShift
                | Step::CReduce
        )
    }
}

/// Modeled seconds, communicated bytes, and message counts per step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepBreakdown {
    /// Modeled seconds per step.
    pub secs: [f64; N_STEPS],
    /// Modeled bytes moved per step (received side for collectives).
    pub bytes: [u64; N_STEPS],
    /// Collective/message rounds per step.
    pub msgs: [u64; N_STEPS],
    /// Modeled seconds of communication *hidden* behind computation per
    /// step: the portion of a nonblocking collective's span (post → modeled
    /// completion) that the rank spent doing other work instead of
    /// waiting. Charged seconds plus hidden seconds for an op equal the
    /// blocking variant's full wait-plus-cost span, so this is the overlap
    /// saving.
    pub overlap_secs: [f64; N_STEPS],
}

impl StepBreakdown {
    /// Seconds attributed to `step`.
    pub fn secs_of(&self, step: Step) -> f64 {
        self.secs[step as usize]
    }

    /// Bytes recorded under `step` (received side for collectives).
    pub fn bytes_of(&self, step: Step) -> u64 {
        self.bytes[step as usize]
    }

    /// Total modeled bytes over every step (including `Other`).
    pub fn bytes_total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Step-wise difference against an `earlier` snapshot of the same
    /// monotone clock — the per-iteration breakdown of an iterative
    /// session is the delta between snapshots taken around one iteration.
    #[must_use]
    pub fn delta(&self, earlier: &StepBreakdown) -> StepBreakdown {
        let mut d = StepBreakdown::default();
        for i in 0..N_STEPS {
            d.secs[i] = self.secs[i] - earlier.secs[i];
            d.bytes[i] = self.bytes[i] - earlier.bytes[i];
            d.msgs[i] = self.msgs[i] - earlier.msgs[i];
            d.overlap_secs[i] = self.overlap_secs[i] - earlier.overlap_secs[i];
        }
        d
    }

    /// Total modeled seconds over algorithm steps (excludes `Other`).
    pub fn total(&self) -> f64 {
        ALL_STEPS
            .iter()
            .filter(|&&s| s != Step::Other)
            .map(|&s| self.secs[s as usize])
            .sum()
    }

    /// Total modeled seconds over communication steps.
    pub fn comm_total(&self) -> f64 {
        ALL_STEPS
            .iter()
            .filter(|&&s| s.is_communication())
            .map(|&s| self.secs[s as usize])
            .sum()
    }

    /// Total modeled seconds over local-computation steps (excludes
    /// `Other` and `Wait`: waiting is neither computing nor communicating).
    pub fn comp_total(&self) -> f64 {
        [
            Step::SymbolicComp,
            Step::LocalMultiply,
            Step::MergeLayer,
            Step::MergeFiber,
        ]
        .iter()
        .map(|&s| self.secs[s as usize])
        .sum()
    }

    /// Seconds of communication hidden behind computation for `step`.
    pub fn overlap_of(&self, step: Step) -> f64 {
        self.overlap_secs[step as usize]
    }

    /// Total modeled seconds of communication hidden by overlap.
    pub fn overlap_total(&self) -> f64 {
        self.overlap_secs.iter().sum()
    }

    /// Elementwise max — used when reducing across ranks.
    pub(crate) fn max_with(&mut self, other: &StepBreakdown) {
        for i in 0..N_STEPS {
            self.secs[i] = self.secs[i].max(other.secs[i]);
            self.bytes[i] = self.bytes[i].max(other.bytes[i]);
            self.msgs[i] = self.msgs[i].max(other.msgs[i]);
            self.overlap_secs[i] = self.overlap_secs[i].max(other.overlap_secs[i]);
        }
    }
}

/// The modeled clock of one simulated rank.
#[derive(Debug, Clone, Default)]
pub struct RankClock {
    now: f64,
    breakdown: StepBreakdown,
    /// Recorded spans when tracing is enabled (see [`crate::trace`]).
    events: Option<Vec<crate::trace::TraceEvent>>,
}

impl RankClock {
    /// A clock at time zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current modeled time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Per-step accounting so far.
    pub fn breakdown(&self) -> &StepBreakdown {
        &self.breakdown
    }

    /// Enable per-span tracing (for Chrome trace export).
    pub fn enable_tracing(&mut self) {
        self.events.get_or_insert_with(Vec::new);
    }

    /// Recorded spans, if tracing was enabled.
    pub fn events(&self) -> Option<&[crate::trace::TraceEvent]> {
        self.events.as_deref()
    }

    fn record_event(&mut self, step: Step, start: f64, end: f64) {
        if let Some(events) = &mut self.events {
            if end > start {
                events.push(crate::trace::TraceEvent {
                    step,
                    start,
                    end,
                    hidden: 0.0,
                });
            }
        }
    }

    /// Advance by `dt` seconds of local work attributed to `step`.
    pub fn advance(&mut self, step: Step, dt: f64) {
        debug_assert!(dt >= 0.0, "negative time step: {dt}");
        let start = self.now;
        self.now += dt;
        self.breakdown.secs[step as usize] += dt;
        self.record_event(step, start, self.now);
    }

    /// Jump to absolute time `t` (≥ now), attributing the elapsed span to
    /// `step`. Used by collectives: the span covers both waiting for the
    /// slowest participant and the op cost itself, matching how per-step
    /// wall-clock timers behave in a real MPI code.
    pub(crate) fn advance_to(&mut self, step: Step, t: f64) {
        if t > self.now {
            self.breakdown.secs[step as usize] += t - self.now;
            let start = self.now;
            self.now = t;
            self.record_event(step, start, t);
        }
    }

    /// Record `bytes` moved and one message round under `step`.
    pub fn record_comm(&mut self, step: Step, bytes: u64, msgs: u64) {
        self.breakdown.bytes[step as usize] += bytes;
        self.breakdown.msgs[step as usize] += msgs;
    }

    /// Record `secs` of communication under `step` that completed in the
    /// background while this rank computed (nonblocking overlap). Does not
    /// advance the clock — the covered span already elapsed under whatever
    /// steps the rank worked on. When tracing, a zero-length marker event
    /// carrying the hidden duration is emitted at the current time.
    pub(crate) fn record_overlap(&mut self, step: Step, secs: f64) {
        debug_assert!(secs >= 0.0, "negative overlap: {secs}");
        if secs <= 0.0 {
            return;
        }
        self.breakdown.overlap_secs[step as usize] += secs;
        if let Some(events) = &mut self.events {
            events.push(crate::trace::TraceEvent {
                step,
                start: self.now,
                end: self.now,
                hidden: secs,
            });
        }
    }

    /// Reset time and accounting (between repetitions in a harness).
    pub fn reset(&mut self) {
        *self = RankClock::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates_per_step() {
        let mut c = RankClock::new();
        c.advance(Step::LocalMultiply, 1.0);
        c.advance(Step::LocalMultiply, 2.0);
        c.advance(Step::ABcast, 0.5);
        assert_eq!(c.now(), 3.5);
        assert_eq!(c.breakdown().secs_of(Step::LocalMultiply), 3.0);
        assert_eq!(c.breakdown().secs_of(Step::ABcast), 0.5);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = RankClock::new();
        c.advance(Step::Other, 2.0);
        c.advance_to(Step::BBcast, 5.0);
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.breakdown().secs_of(Step::BBcast), 3.0);
        c.advance_to(Step::BBcast, 1.0); // in the past: no-op
        assert_eq!(c.now(), 5.0);
    }

    #[test]
    fn totals_exclude_other() {
        let mut c = RankClock::new();
        c.advance(Step::Other, 100.0);
        c.advance(Step::ABcast, 1.0);
        c.advance(Step::LocalMultiply, 2.0);
        let b = c.breakdown();
        assert_eq!(b.total(), 3.0);
        assert_eq!(b.comm_total(), 1.0);
        assert_eq!(b.comp_total(), 2.0);
    }

    #[test]
    fn comm_classification_matches_paper() {
        assert!(Step::ABcast.is_communication());
        assert!(Step::BBcast.is_communication());
        assert!(Step::AllToAllFiber.is_communication());
        assert!(Step::SymbolicComm.is_communication());
        assert!(Step::FetchRequest.is_communication());
        assert!(Step::FetchReply.is_communication());
        assert!(!Step::LocalMultiply.is_communication());
        assert!(!Step::MergeLayer.is_communication());
        assert!(!Step::MergeFiber.is_communication());
    }

    #[test]
    fn record_overlap_accumulates_without_advancing() {
        let mut c = RankClock::new();
        c.enable_tracing();
        c.advance(Step::LocalMultiply, 2.0);
        c.record_overlap(Step::ABcast, 1.5);
        c.record_overlap(Step::ABcast, 0.5);
        c.record_overlap(Step::BBcast, 0.0); // no-op
        assert_eq!(c.now(), 2.0, "overlap never advances the clock");
        assert_eq!(c.breakdown().overlap_of(Step::ABcast), 2.0);
        assert_eq!(c.breakdown().overlap_total(), 2.0);
        // Hidden time does not count toward charged step seconds.
        assert_eq!(c.breakdown().secs_of(Step::ABcast), 0.0);
        // Tracing records zero-length markers carrying the hidden span.
        let markers: Vec<_> = c
            .events()
            .unwrap()
            .iter()
            .filter(|e| e.hidden > 0.0)
            .collect();
        assert_eq!(markers.len(), 2);
        assert!(markers.iter().all(|e| e.start == e.end && e.start == 2.0));
    }

    #[test]
    fn max_with_takes_elementwise_max() {
        let mut a = StepBreakdown::default();
        a.secs[0] = 1.0;
        a.bytes[1] = 10;
        let mut b = StepBreakdown::default();
        b.secs[0] = 0.5;
        b.bytes[1] = 20;
        a.max_with(&b);
        assert_eq!(a.secs[0], 1.0);
        assert_eq!(a.bytes[1], 20);
    }
}
