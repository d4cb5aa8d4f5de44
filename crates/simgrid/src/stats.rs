//! Cross-rank reduction and report formatting for step breakdowns.
//!
//! The paper reports, for each configuration, the time of each major step
//! maximized over processes (the critical path). [`max_breakdown`] performs
//! that reduction; [`StepReport`] renders the familiar
//! rows-of-steps-per-configuration tables and CSV series that the bench
//! harnesses print.

use crate::clock::{Step, StepBreakdown, ALL_STEPS};

/// Elementwise maximum of per-rank breakdowns (critical-path view).
pub fn max_breakdown(per_rank: &[StepBreakdown]) -> StepBreakdown {
    let mut acc = StepBreakdown::default();
    for b in per_rank {
        acc.max_with(b);
    }
    acc
}

/// Sum of bytes over ranks per step (total communication volume).
pub fn total_bytes(per_rank: &[StepBreakdown], step: Step) -> u64 {
    per_rank.iter().map(|b| b.bytes[step as usize]).sum()
}

/// Steps shown in paper-style reports (everything but `Other`, with the
/// two symbolic halves merged into one column).
const REPORT_STEPS: [Step; 8] = [
    Step::ABcast,
    Step::BBcast,
    Step::LocalMultiply,
    Step::MergeLayer,
    Step::AllToAllFiber,
    Step::MergeFiber,
    Step::SymbolicComm, // rendered as combined "Symbolic"
    Step::Wait,
];

/// Fetch steps get their own columns (inserted after B-Bcast) as soon as
/// any row recorded sparse-exchange traffic, so dense-vs-sparse runs stay
/// comparable at a glance without widening dense-only tables.
const FETCH_STEPS: [Step; 2] = [Step::FetchRequest, Step::FetchReply];

/// Kernel-side resource counters attached to a report row: how often the
/// local kernels hit the heap allocator, the workspace scratch high-water
/// mark, and the exact-size copy-out volume. The simgrid crate knows
/// nothing about the sparse kernels — callers (the bench harnesses) fill
/// these from whatever `WorkStats`-like totals their run produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCounters {
    /// Heap allocation events in kernel hot paths (arena/table growth plus
    /// exact-size output copies), summed over ranks.
    pub allocs: u64,
    /// Peak reusable-workspace scratch bytes (max over ranks).
    pub peak_scratch_bytes: u64,
    /// Bytes copied out of workspaces into finished outputs, summed.
    pub memcpy_bytes: u64,
    /// Per-thread load imbalance of the parallel kernel splitter:
    /// max/mean work per thread range, work-weighted over invocations
    /// (1.0 = perfectly balanced). `0.0` means the run was serial (no
    /// thread ranges recorded) and renders as `-` in tables.
    pub load_imbalance: f64,
}

/// A table of labeled configurations × step breakdowns, optionally with
/// per-row [`KernelCounters`].
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    rows: Vec<(String, StepBreakdown)>,
    counters: Vec<Option<KernelCounters>>,
}

impl StepReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a labeled configuration.
    pub fn push(&mut self, label: impl Into<String>, breakdown: StepBreakdown) {
        self.rows.push((label.into(), breakdown));
        self.counters.push(None);
    }

    /// Append a labeled configuration with kernel counters; the rendered
    /// table/CSV grow `allocs`/`peak_scratch`/`memcpy` columns once any
    /// row carries counters.
    pub fn push_with_counters(
        &mut self,
        label: impl Into<String>,
        breakdown: StepBreakdown,
        counters: KernelCounters,
    ) {
        self.rows.push((label.into(), breakdown));
        self.counters.push(Some(counters));
    }

    /// Labeled rows in insertion order.
    pub fn rows(&self) -> &[(String, StepBreakdown)] {
        &self.rows
    }

    fn has_counters(&self) -> bool {
        self.counters.iter().any(|c| c.is_some())
    }

    fn has_overlap(&self) -> bool {
        self.rows.iter().any(|(_, b)| b.overlap_total() > 0.0)
    }

    fn has_fetch(&self) -> bool {
        self.rows.iter().any(|(_, b)| {
            FETCH_STEPS
                .iter()
                .any(|&s| b.secs_of(s) > 0.0 || b.bytes_of(s) > 0)
        })
    }

    /// The step columns this report renders: [`REPORT_STEPS`], with the
    /// Fetch steps spliced in after B-Bcast when any row used them.
    fn report_steps(&self) -> Vec<Step> {
        let mut steps = Vec::with_capacity(REPORT_STEPS.len() + FETCH_STEPS.len());
        for s in REPORT_STEPS {
            steps.push(s);
            if s == Step::BBcast && self.has_fetch() {
                steps.extend(FETCH_STEPS);
            }
        }
        steps
    }

    fn symbolic_secs(b: &StepBreakdown) -> f64 {
        b.secs_of(Step::SymbolicComm) + b.secs_of(Step::SymbolicComp)
    }

    /// Render an aligned text table (seconds of modeled time).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let report_steps = self.report_steps();
        out.push_str(&format!("{:label_w$}", "config"));
        for &s in &report_steps {
            let name = if s == Step::SymbolicComm { "Symbolic" } else { s.label() };
            out.push_str(&format!(" {name:>14}"));
        }
        out.push_str(&format!(" {:>14}", "Total"));
        let with_overlap = self.has_overlap();
        if with_overlap {
            out.push_str(&format!(" {:>14}", "Hidden"));
        }
        let with_counters = self.has_counters();
        if with_counters {
            out.push_str(&format!(
                " {:>12} {:>14} {:>14} {:>8}",
                "Allocs", "PeakScratchB", "MemcpyB", "Imbal"
            ));
        }
        out.push('\n');
        for ((label, b), cnt) in self.rows.iter().zip(&self.counters) {
            out.push_str(&format!("{label:label_w$}"));
            for &s in &report_steps {
                let v = if s == Step::SymbolicComm {
                    Self::symbolic_secs(b)
                } else {
                    b.secs_of(s)
                };
                out.push_str(&format!(" {v:>14.4}"));
            }
            out.push_str(&format!(" {:>14.4}", b.total()));
            if with_overlap {
                out.push_str(&format!(" {:>14.4}", b.overlap_total()));
            }
            if with_counters {
                match cnt {
                    Some(c) => {
                        out.push_str(&format!(
                            " {:>12} {:>14} {:>14}",
                            c.allocs, c.peak_scratch_bytes, c.memcpy_bytes
                        ));
                        if c.load_imbalance > 0.0 {
                            out.push_str(&format!(" {:>8.2}", c.load_imbalance));
                        } else {
                            out.push_str(&format!(" {:>8}", "-"));
                        }
                    }
                    None => out.push_str(&format!(
                        " {:>12} {:>14} {:>14} {:>8}",
                        "-", "-", "-", "-"
                    )),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render CSV with one row per configuration.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("config");
        for s in ALL_STEPS {
            out.push_str(&format!(",{}", s.label()));
        }
        out.push_str(",total,comm_total,comp_total,overlap_total");
        let with_counters = self.has_counters();
        if with_counters {
            out.push_str(",allocs,peak_scratch_bytes,memcpy_bytes,load_imbalance");
        }
        out.push('\n');
        for ((label, b), cnt) in self.rows.iter().zip(&self.counters) {
            out.push_str(label);
            for s in ALL_STEPS {
                out.push_str(&format!(",{:.6e}", b.secs_of(s)));
            }
            out.push_str(&format!(
                ",{:.6e},{:.6e},{:.6e},{:.6e}",
                b.total(),
                b.comm_total(),
                b.comp_total(),
                b.overlap_total()
            ));
            if with_counters {
                match cnt {
                    Some(c) => out.push_str(&format!(
                        ",{},{},{},{:.4}",
                        c.allocs, c.peak_scratch_bytes, c.memcpy_bytes, c.load_imbalance
                    )),
                    None => out.push_str(",,,,"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(abcast: f64, lm: f64) -> StepBreakdown {
        let mut b = StepBreakdown::default();
        b.secs[Step::ABcast as usize] = abcast;
        b.secs[Step::LocalMultiply as usize] = lm;
        b
    }

    #[test]
    fn max_breakdown_is_elementwise() {
        let m = max_breakdown(&[bd(1.0, 5.0), bd(2.0, 3.0)]);
        assert_eq!(m.secs_of(Step::ABcast), 2.0);
        assert_eq!(m.secs_of(Step::LocalMultiply), 5.0);
    }

    #[test]
    fn report_renders_all_rows() {
        let mut r = StepReport::new();
        r.push("l=1 b=4", bd(1.0, 2.0));
        r.push("l=16 b=8", bd(0.5, 1.0));
        let t = r.to_table();
        assert!(t.contains("l=1 b=4"));
        assert!(t.contains("l=16 b=8"));
        assert!(t.contains("A-Bcast"));
        assert!(t.contains("Total"));
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("config,"));
    }

    #[test]
    fn counters_add_columns_only_when_present() {
        let mut r = StepReport::new();
        r.push("plain", bd(1.0, 2.0));
        assert!(!r.to_table().contains("Allocs"));
        assert!(!r.to_csv().contains("allocs"));
        r.push_with_counters(
            "metered",
            bd(0.5, 1.0),
            KernelCounters {
                allocs: 42,
                peak_scratch_bytes: 4096,
                memcpy_bytes: 1234,
                load_imbalance: 1.25,
            },
        );
        let t = r.to_table();
        assert!(t.contains("Allocs") && t.contains("PeakScratchB") && t.contains("MemcpyB"));
        assert!(t.contains("Imbal") && t.contains("1.25"));
        assert!(t.contains("42") && t.contains("4096"));
        let csv = r.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("allocs,peak_scratch_bytes,memcpy_bytes,load_imbalance"));
        // The counter-less row renders empty counter cells, keeping the
        // column count uniform.
        let plain_line = csv.lines().find(|l| l.starts_with("plain")).unwrap();
        let metered_line = csv.lines().find(|l| l.starts_with("metered")).unwrap();
        assert_eq!(
            plain_line.matches(',').count(),
            metered_line.matches(',').count()
        );
        assert!(metered_line.ends_with("42,4096,1234,1.2500"));
    }

    #[test]
    fn hidden_column_appears_only_with_overlap() {
        let mut r = StepReport::new();
        r.push("blocking", bd(1.0, 2.0));
        assert!(!r.to_table().contains("Hidden"));
        // CSV always carries overlap_total for uniform schemas.
        assert!(r.to_csv().lines().next().unwrap().ends_with("comp_total,overlap_total"));
        let mut b = bd(0.5, 2.0);
        b.overlap_secs[Step::ABcast as usize] = 0.25;
        r.push("overlapped", b);
        let t = r.to_table();
        assert!(t.contains("Hidden"));
        assert!(t.contains("0.2500"));
        let csv = r.to_csv();
        let line = csv.lines().find(|l| l.starts_with("overlapped")).unwrap();
        assert!(line.ends_with("2.500000e-1"));
    }

    #[test]
    fn fetch_columns_appear_only_with_fetch_traffic() {
        let mut r = StepReport::new();
        r.push("dense", bd(1.0, 2.0));
        let t = r.to_table();
        assert!(!t.contains("Fetch-Request") && !t.contains("Fetch-Reply"));
        let mut b = bd(0.5, 2.0);
        b.secs[Step::FetchRequest as usize] = 0.125;
        b.bytes[Step::FetchReply as usize] = 4096;
        r.push("sparse", b);
        let t = r.to_table();
        assert!(t.contains("Fetch-Request") && t.contains("Fetch-Reply"));
        // The columns sit between B-Bcast and Local-Multiply.
        let header = t.lines().next().unwrap();
        let bb = header.find("B-Bcast").unwrap();
        let fr = header.find("Fetch-Request").unwrap();
        let lm = header.find("Local-Multiply").unwrap();
        assert!(bb < fr && fr < lm);
        // CSV always carries the fetch steps (uniform schema).
        let csv = r.to_csv();
        assert!(csv.lines().next().unwrap().contains("Fetch-Request"));
    }

    #[test]
    fn total_bytes_sums_over_ranks() {
        let mut a = StepBreakdown::default();
        a.bytes[Step::ABcast as usize] = 10;
        let mut b = StepBreakdown::default();
        b.bytes[Step::ABcast as usize] = 32;
        assert_eq!(total_bytes(&[a, b], Step::ABcast), 42);
    }
}
