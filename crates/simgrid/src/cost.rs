//! α–β machine model and machine presets.
//!
//! Communication: a message of `n` bytes between two ranks costs
//! `α + β·n`; tree collectives over `q` ranks cost `α·⌈log₂ q⌉ + β·n`;
//! an all-to-all costs `α·(q−1) + β·n_max` — exactly the accounting the
//! paper uses in its Table II analysis.
//!
//! Computation: local kernels report abstract *work units*
//! (`spgemm-sparse::WorkStats::work_units`); a machine converts them to
//! seconds through `secs_per_work_unit`, divided by its
//! `threads_per_proc · thread_efficiency` — this models the paper's
//! MPI+OpenMP hybrid where threading accelerates local compute but never
//! communication (only one thread makes MPI calls).
//!
//! Presets are calibrated to the platforms of Table IV: `knl()` for
//! Cori-KNL (68-core Xeon Phi 7250, 16 threads per process in the paper's
//! runs), `haswell()` for Cori-Haswell (per Fig. 13: ~2.1× faster
//! computation, ~1.4× faster communication on the same Aries network), and
//! `knl_hyperthreaded()` for the 4-hardware-threads-per-core configuration
//! of Fig. 12 (more process-level parallelism, slower individual threads).

/// Cost-model parameters of a simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Latency per message round, seconds.
    pub alpha: f64,
    /// Inverse bandwidth, seconds per byte (per process).
    pub beta: f64,
    /// Seconds per abstract work unit for a single thread.
    pub secs_per_work_unit: f64,
    /// OpenMP-style threads per MPI process.
    pub threads_per_proc: usize,
    /// Parallel efficiency of intra-process threading (0..=1].
    pub thread_efficiency: f64,
}

impl Machine {
    /// Cori-KNL-like preset (Intel Xeon Phi 7250, Cray Aries).
    pub fn knl() -> Machine {
        Machine {
            name: "knl",
            alpha: 2.0e-5,
            beta: 5.0e-10, // ~2 GB/s effective per process
            secs_per_work_unit: 6.5e-9,
            threads_per_proc: 16,
            thread_efficiency: 0.85,
        }
    }

    /// Cori-Haswell-like preset (Xeon E5-2698; Fig. 13: ~2.1× faster
    /// compute, ~1.4× faster effective communication, 6 threads/process).
    pub fn haswell() -> Machine {
        let knl = Machine::knl();
        Machine {
            name: "haswell",
            alpha: knl.alpha / 1.4,
            beta: knl.beta / 1.4,
            // 2.1× faster per process with 6 threads instead of 16: the
            // per-thread rate is correspondingly higher.
            secs_per_work_unit: knl.secs_per_work_unit / 2.1 * (6.0 * 0.9) / (16.0 * 0.85),
            threads_per_proc: 6,
            thread_efficiency: 0.9,
        }
    }

    /// Cori-KNL rebalanced for miniature workloads.
    ///
    /// The paper's matrices carry megabytes per process per broadcast, so
    /// its communication is **bandwidth-dominated** (β-term ≫ α-term by
    /// ~500×). A simulation-scale matrix is ~10³–10⁴× smaller, which would
    /// flip every collective into the latency-dominated regime and distort
    /// the figures' shapes (e.g. B-Bcast would grow with `b` through its
    /// round count, where the paper observes the b-independent bandwidth
    /// term). This preset shrinks α by 10³ — the same factor the payloads
    /// shrank — restoring the paper's α:β balance. Bench harnesses that
    /// reproduce bandwidth-regime figures use this; latency-sensitive
    /// studies (hyperthreading's grid growth, Fig. 12) keep [`Machine::knl`].
    pub fn knl_mini() -> Machine {
        Machine {
            name: "knl-mini",
            alpha: 2.0e-9,
            ..Machine::knl()
        }
    }

    /// Cori-KNL with 4 hardware threads per core (Fig. 12). Used with 4×
    /// the process count: each simulated thread runs ~2.5× slower than a
    /// dedicated core (but 4× more processes share the work, netting the
    /// paper's observed compute speedup), and 4× more processes share each
    /// node's Aries NIC, so per-process bandwidth drops 4× — which is why
    /// the paper sees communication time *increase* under hyperthreading.
    pub fn knl_hyperthreaded() -> Machine {
        let knl = Machine::knl();
        Machine {
            name: "knl-ht",
            secs_per_work_unit: knl.secs_per_work_unit * 2.5,
            beta: knl.beta * 4.0,
            ..knl
        }
    }

    /// Seconds for a size-`q` broadcast of `bytes` payload.
    pub(crate) fn bcast_secs(&self, q: usize, bytes: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        self.alpha * (q as f64).log2().ceil() + self.beta * bytes as f64
    }

    /// Seconds for a size-`q` allreduce of `bytes` payload.
    pub(crate) fn allreduce_secs(&self, q: usize, bytes: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        self.alpha * (q as f64).log2().ceil() + self.beta * bytes as f64
    }

    /// Seconds for a size-`q` allgather where each rank contributes
    /// `bytes_each`.
    pub(crate) fn allgather_secs(&self, q: usize, bytes_each: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        self.alpha * (q as f64).log2().ceil() + self.beta * (bytes_each * (q - 1)) as f64
    }

    /// Seconds for a point-to-point message of `bytes` (the α–β cost of a
    /// single send; also what a gather's non-root participants pay).
    pub fn send_secs(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Seconds until a size-`q` gather of `bytes_each` per rank completes
    /// **at the root**: the binomial tree funnels `(q−1)·bytes_each` into
    /// the root over `⌈log₂ q⌉` latency rounds. Unlike an allgather there
    /// is no broadcast back and non-roots do not receive `(q−1)·bytes_each`
    /// — they finish after their own send ([`Machine::send_secs`]), exactly
    /// as an `MPI_Gather` returns early on non-root ranks.
    pub(crate) fn gather_secs(&self, q: usize, bytes_each: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        self.alpha * (q as f64).log2().ceil() + self.beta * (bytes_each * (q - 1)) as f64
    }

    /// Seconds for a size-`q` barrier: one tree round of latency, no
    /// payload.
    pub(crate) fn barrier_secs(&self, q: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        self.alpha * (q as f64).log2().ceil()
    }

    /// Seconds for a size-`q` all-to-all where the heaviest rank sends
    /// `max_bytes` in total (the paper's `αl + β·flops/(bp)` form for
    /// AllToAll-Fiber).
    pub(crate) fn alltoall_secs(&self, q: usize, max_bytes: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        self.alpha * (q - 1) as f64 + self.beta * max_bytes as f64
    }

    /// Effective per-process compute parallelism:
    /// `threads_per_proc · thread_efficiency`.
    ///
    /// The single definition of "per-thread work" shared by the modeled
    /// clock ([`Machine::compute_secs`]) and by the planner's calibrator,
    /// which divides *measured* per-process times by the same factor when
    /// fitting `secs_per_work_unit` from a real `Native` run.
    pub fn thread_scale(&self) -> f64 {
        self.threads_per_proc as f64 * self.thread_efficiency
    }

    /// Seconds of local computation for `work_units` abstract units.
    pub fn compute_secs(&self, work_units: f64) -> f64 {
        self.secs_per_work_unit * work_units / self.thread_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_are_free() {
        let m = Machine::knl();
        assert_eq!(m.bcast_secs(1, 1 << 20), 0.0);
        assert_eq!(m.alltoall_secs(1, 1 << 20), 0.0);
        assert_eq!(m.allreduce_secs(1, 8), 0.0);
        assert_eq!(m.gather_secs(1, 1 << 20), 0.0);
        assert_eq!(m.barrier_secs(1), 0.0);
    }

    #[test]
    fn gather_root_pays_tree_non_root_pays_one_send() {
        let m = Machine::knl();
        let (q, bytes) = (16, 1 << 20);
        let root = m.gather_secs(q, bytes);
        let leaf = m.send_secs(bytes);
        assert!(
            root > leaf,
            "root ingests (q-1)x the bytes a leaf sends: {root} vs {leaf}"
        );
        assert_eq!(leaf, m.alpha + m.beta * bytes as f64);
        // The root-side cost matches the tree formula exactly.
        assert_eq!(
            root,
            m.alpha * (q as f64).log2().ceil() + m.beta * (bytes * (q - 1)) as f64
        );
    }

    #[test]
    fn barrier_is_pure_latency() {
        let m = Machine::knl();
        assert_eq!(m.barrier_secs(8), m.alpha * 3.0);
        assert_eq!(m.barrier_secs(9), m.alpha * 4.0);
    }

    #[test]
    fn bcast_scales_log_in_ranks_linear_in_bytes() {
        let m = Machine::knl();
        let t4 = m.bcast_secs(4, 0);
        let t16 = m.bcast_secs(16, 0);
        assert!((t16 / t4 - 2.0).abs() < 1e-9, "latency doubles from q=4 to q=16");
        let b1 = m.bcast_secs(4, 1_000_000) - t4;
        let b2 = m.bcast_secs(4, 2_000_000) - t4;
        assert!((b2 / b1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn alltoall_latency_linear_in_q() {
        let m = Machine::knl();
        let t = |q| m.alltoall_secs(q, 0);
        assert!((t(16) / t(4) - 5.0).abs() < 1e-9); // (16-1)/(4-1)
    }

    #[test]
    fn haswell_computes_faster_than_knl() {
        let knl = Machine::knl();
        let has = Machine::haswell();
        let w = 1e9;
        let ratio = knl.compute_secs(w) / has.compute_secs(w);
        assert!((ratio - 2.1).abs() < 0.05, "expected ~2.1x, got {ratio}");
        assert!(knl.bcast_secs(16, 1 << 20) / has.bcast_secs(16, 1 << 20) > 1.3);
    }

    #[test]
    fn hyperthreading_slows_per_process_compute() {
        let knl = Machine::knl();
        let ht = Machine::knl_hyperthreaded();
        assert!(ht.compute_secs(1.0) > knl.compute_secs(1.0));
        // But 4x the processes doing 1/4 the work each nets a speedup:
        let per_proc_ht = ht.compute_secs(0.25);
        assert!(per_proc_ht < knl.compute_secs(1.0));
    }

    #[test]
    fn mini_preset_is_bandwidth_dominated_at_small_payloads() {
        let m = Machine::knl_mini();
        // A few-KB payload must already be bandwidth-bound under the mini
        // preset (it is latency-bound under the full preset).
        let q = 16;
        let bytes = 8 << 10;
        let beta_term = m.beta * bytes as f64;
        let alpha_term = m.alpha * (q as f64).log2().ceil();
        assert!(beta_term > 10.0 * alpha_term);
        let full = Machine::knl();
        assert!(full.alpha * (q as f64).log2().ceil() > full.beta * bytes as f64);
    }

    #[test]
    fn threading_divides_compute_time() {
        let mut m = Machine::knl();
        let t16 = m.compute_secs(1e6);
        m.threads_per_proc = 1;
        m.thread_efficiency = 1.0;
        let t1 = m.compute_secs(1e6);
        assert!(t1 / t16 > 10.0);
    }
}
