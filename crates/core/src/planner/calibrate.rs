//! Calibration: fit effective machine constants from one measured run.
//!
//! The simulator charges collectives exact α–β costs, so a run's per-step
//! seconds/bytes/ops satisfy, per rank and exactly,
//!
//! ```text
//! secs(ABcast) = α · msgs(ABcast) · ⌈lg √(p/l)⌉ + β · bytes(ABcast)
//! secs(BBcast) = α · msgs(BBcast) · ⌈lg √(p/l)⌉ + β · bytes(BBcast)
//! ```
//!
//! (`msgs` counts one per collective op; broadcasts pay `⌈lg q⌉` latency
//! rounds per op). Averaging each equation over ranks and solving the
//! resulting 2×2 system recovers α and β; the flop rate follows from the
//! measured computation seconds and the modeled work units. The fitted
//! constants persist as a flat machine-profile JSON (hand-rolled — the
//! workspace takes no serialization dependency) that later `plan`
//! invocations load.

use crate::{CoreError, Result};
use spgemm_simgrid::{Machine, Step, StepBreakdown};

/// Fitted machine constants, serializable as a machine-profile JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Where the constants came from (base machine name, workload note).
    pub source: String,
    /// Fitted per-message latency (seconds).
    pub alpha: f64,
    /// Fitted per-byte transfer time (seconds).
    pub beta: f64,
    /// Fitted seconds per modeled kernel work unit (single thread).
    pub secs_per_work_unit: f64,
    /// Threads per process (copied from the base machine).
    pub threads_per_proc: usize,
    /// Parallel efficiency of threading (copied from the base machine).
    pub thread_efficiency: f64,
}

impl MachineProfile {
    /// A profile that reproduces `m` unchanged.
    pub(crate) fn from_machine(m: &Machine) -> Self {
        MachineProfile {
            source: m.name.to_string(),
            alpha: m.alpha,
            beta: m.beta,
            secs_per_work_unit: m.secs_per_work_unit,
            threads_per_proc: m.threads_per_proc,
            thread_efficiency: m.thread_efficiency,
        }
    }

    /// Materialize as a [`Machine`] usable anywhere a preset is.
    pub fn to_machine(&self) -> Machine {
        Machine {
            name: "calibrated",
            alpha: self.alpha,
            beta: self.beta,
            secs_per_work_unit: self.secs_per_work_unit,
            threads_per_proc: self.threads_per_proc,
            thread_efficiency: self.thread_efficiency,
        }
    }

    /// Serialize as flat JSON.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\n  \"source\": \"{}\",\n  \"alpha\": {:e},\n  \"beta\": {:e},\n  \
             \"secs_per_work_unit\": {:e},\n  \"threads_per_proc\": {},\n  \
             \"thread_efficiency\": {}\n}}\n",
            self.source.replace('\\', "\\\\").replace('"', "\\\""),
            self.alpha,
            self.beta,
            self.secs_per_work_unit,
            self.threads_per_proc,
            self.thread_efficiency,
        )
    }

    /// Parse the flat JSON written by [`Self::to_json`].
    pub(crate) fn from_json(text: &str) -> Result<Self> {
        fn field<'a>(text: &'a str, key: &str) -> Result<&'a str> {
            let pat = format!("\"{key}\"");
            let at = text
                .find(&pat)
                .ok_or_else(|| CoreError::Config(format!("machine profile: missing {key}")))?;
            let rest = &text[at + pat.len()..];
            let colon = rest
                .find(':')
                .ok_or_else(|| CoreError::Config(format!("machine profile: malformed {key}")))?;
            let rest = rest[colon + 1..].trim_start();
            let end = rest
                .find([',', '\n', '}'])
                .unwrap_or(rest.len());
            Ok(rest[..end].trim())
        }
        fn num(text: &str, key: &str) -> Result<f64> {
            field(text, key)?.parse::<f64>().map_err(|_| {
                CoreError::Config(format!("machine profile: {key} is not a number"))
            })
        }
        let source_raw = field(text, "source")?;
        let source_raw = source_raw.strip_prefix('"').unwrap_or(source_raw);
        let source_raw = source_raw.strip_suffix('"').unwrap_or(source_raw);
        let source = source_raw.replace("\\\"", "\"").replace("\\\\", "\\");
        let profile = MachineProfile {
            source,
            alpha: num(text, "alpha")?,
            beta: num(text, "beta")?,
            secs_per_work_unit: num(text, "secs_per_work_unit")?,
            threads_per_proc: num(text, "threads_per_proc")? as usize,
            thread_efficiency: num(text, "thread_efficiency")?,
        };
        if !(profile.alpha.is_finite()
            && profile.beta.is_finite()
            && profile.secs_per_work_unit.is_finite())
            || profile.alpha < 0.0
            || profile.beta < 0.0
            || profile.secs_per_work_unit <= 0.0
            || profile.threads_per_proc == 0
        {
            return Err(CoreError::Config(
                "machine profile: constants out of range".into(),
            ));
        }
        Ok(profile)
    }

    /// Write the profile JSON to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<Self> {
        std::fs::write(path, self.to_json()).map_err(|e| {
            CoreError::Config(format!("cannot write machine profile {}: {e}", path.display()))
        })?;
        Ok(self.clone())
    }

    /// Load a profile JSON from `path`.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            CoreError::Config(format!("cannot read machine profile {}: {e}", path.display()))
        })?;
        Self::from_json(&text)
    }
}

/// What one measured run exposes to the fitter.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationInput<'a> {
    /// Process count of the run.
    pub p: usize,
    /// Layer count of the run.
    pub layers: usize,
    /// Per-rank step breakdowns from `RunOutput::per_rank`.
    pub per_rank: &'a [StepBreakdown],
    /// Total modeled kernel work units across ranks, when known (e.g. the
    /// planner's prediction for the executed configuration). `None` keeps
    /// the base machine's flop rate.
    pub total_work_units: Option<f64>,
    /// Thread count of a Native-backend run, when the breakdowns carry
    /// **measured** kernel seconds. The fitted profile then describes the
    /// real machine: `threads_per_proc` is set to this count (efficiency
    /// 1.0 — the measured seconds already include any threading loss).
    /// `None` for modeled (Simgrid) runs: the base machine's threading
    /// parameters are kept and divided back out of the compute seconds.
    pub threads: Option<usize>,
}

fn mean(per_rank: &[StepBreakdown], f: impl Fn(&StepBreakdown) -> f64) -> f64 {
    if per_rank.is_empty() {
        return 0.0;
    }
    per_rank.iter().map(f).sum::<f64>() / per_rank.len() as f64
}

/// Fit α, β and the flop rate from one run's step breakdowns.
///
/// Falls back to the base machine's constants whenever the run carries no
/// signal for a term (e.g. a 2D grid with `√(p/l) = 1` never broadcasts,
/// and a degenerate system — both broadcast rows proportional — pins α to
/// the base value and fits β alone).
pub fn calibrate(base: &Machine, input: &CalibrationInput) -> MachineProfile {
    let mut profile = MachineProfile::from_machine(base);
    profile.source = format!("calibrated from p={} l={} on {}", input.p, input.layers, base.name);

    let pr = (input.p / input.layers.max(1)).max(1);
    let pr = (pr as f64).sqrt().round() as usize;
    let lg_pr = if pr > 1 { (pr as f64).log2().ceil() } else { 0.0 };

    // Per-step mean rows: secs = α·rounds + β·bytes.
    let row = |s: Step| {
        let secs = mean(input.per_rank, |b| b.secs_of(s));
        let rounds = mean(input.per_rank, |b| b.msgs[s as usize] as f64) * lg_pr;
        let bytes = mean(input.per_rank, |b| b.bytes_of(s) as f64);
        (secs, rounds, bytes)
    };
    let rows = [row(Step::ABcast), row(Step::BBcast)];
    let rows: Vec<_> = rows
        .iter()
        .copied()
        .filter(|&(secs, rounds, bytes)| secs > 0.0 && (rounds > 0.0 || bytes > 0.0))
        .collect();

    match rows.as_slice() {
        [(s1, r1, b1), (s2, r2, b2)] => {
            let det = r1 * b2 - r2 * b1;
            let scale = (r1 * b2).abs().max((r2 * b1).abs()).max(1e-300);
            if det.abs() > 1e-9 * scale {
                let alpha = (s1 * b2 - s2 * b1) / det;
                let beta = (r1 * s2 - r2 * s1) / det;
                if alpha >= 0.0 && beta >= 0.0 {
                    profile.alpha = alpha;
                    profile.beta = beta;
                } else {
                    fit_beta_only(&mut profile, base, &rows);
                }
            } else {
                fit_beta_only(&mut profile, base, &rows);
            }
        }
        [_] => fit_beta_only(&mut profile, base, &rows),
        _ => {} // no broadcast signal at all: keep base α, β
    }

    if let Some(threads) = input.threads {
        // Measured run: the profile's threading parameters describe the
        // real execution, not the base model's assumption.
        profile.threads_per_proc = threads.max(1);
        profile.thread_efficiency = 1.0;
    }
    if let Some(work) = input.total_work_units {
        let comp = mean(input.per_rank, |b| b.comp_total());
        let per_proc_work = work / input.p.max(1) as f64;
        if comp > 0.0 && per_proc_work > 0.0 {
            // comp = spu · (work/p) / thread_scale  =>  solve for spu. For
            // measured runs thread_scale is the real thread count, so the
            // fitted spu is the per-thread rate the planner divides back.
            profile.secs_per_work_unit =
                comp * profile.to_machine().thread_scale() / per_proc_work;
        }
    }
    profile
}

/// Keep the base α; least-squares β over the usable rows.
fn fit_beta_only(profile: &mut MachineProfile, base: &Machine, rows: &[(f64, f64, f64)]) {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(secs, rounds, bytes) in rows {
        let resid = secs - base.alpha * rounds;
        num += resid * bytes;
        den += bytes * bytes;
    }
    if den > 0.0 {
        let beta = num / den;
        if beta >= 0.0 {
            profile.beta = beta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_breakdown(
        alpha: f64,
        beta: f64,
        lg_pr: f64,
        ops_ab: u64,
        bytes_ab: u64,
        ops_bb: u64,
        bytes_bb: u64,
    ) -> StepBreakdown {
        let mut b = StepBreakdown::default();
        b.secs[Step::ABcast as usize] = alpha * ops_ab as f64 * lg_pr + beta * bytes_ab as f64;
        b.bytes[Step::ABcast as usize] = bytes_ab;
        b.msgs[Step::ABcast as usize] = ops_ab;
        b.secs[Step::BBcast as usize] = alpha * ops_bb as f64 * lg_pr + beta * bytes_bb as f64;
        b.bytes[Step::BBcast as usize] = bytes_bb;
        b.msgs[Step::BBcast as usize] = ops_bb;
        b
    }

    #[test]
    fn recovers_alpha_beta_from_exact_rows() {
        let base = Machine::knl();
        let (alpha, beta) = (3.0e-6, 2.0e-9);
        // p=16, l=1 -> pr=4, lg_pr=2. Distinct byte/round ratios per step.
        let per_rank: Vec<StepBreakdown> = (0..4)
            .map(|_| synthetic_breakdown(alpha, beta, 2.0, 8, 1_000_000, 8, 50_000))
            .collect();
        let fit = calibrate(
            &base,
            &CalibrationInput { p: 16, layers: 1, per_rank: &per_rank, total_work_units: None, threads: None },
        );
        assert!((fit.alpha / alpha - 1.0).abs() < 1e-9, "alpha={}", fit.alpha);
        assert!((fit.beta / beta - 1.0).abs() < 1e-9, "beta={}", fit.beta);
        assert_eq!(fit.secs_per_work_unit, base.secs_per_work_unit);
    }

    #[test]
    fn degenerate_rows_keep_base_alpha_and_fit_beta() {
        let base = Machine::knl();
        // Proportional rows: bytes/rounds identical ratio -> singular system.
        let per_rank =
            vec![synthetic_breakdown(base.alpha, 4.0e-9, 2.0, 8, 400_000, 8, 400_000)];
        let fit = calibrate(
            &base,
            &CalibrationInput { p: 16, layers: 1, per_rank: &per_rank, total_work_units: None, threads: None },
        );
        assert_eq!(fit.alpha, base.alpha);
        assert!((fit.beta / 4.0e-9 - 1.0).abs() < 1e-9, "beta={}", fit.beta);
    }

    #[test]
    fn no_broadcast_signal_keeps_base_constants() {
        let base = Machine::haswell();
        // pr = 1 (l = p): broadcasts never happen.
        let per_rank = vec![StepBreakdown::default(); 4];
        let fit = calibrate(
            &base,
            &CalibrationInput { p: 4, layers: 4, per_rank: &per_rank, total_work_units: None, threads: None },
        );
        assert_eq!(fit.alpha, base.alpha);
        assert_eq!(fit.beta, base.beta);
    }

    #[test]
    fn flop_rate_fits_from_work_units() {
        let base = Machine::knl();
        let mut b = StepBreakdown::default();
        b.secs[Step::LocalMultiply as usize] = 2.0;
        let per_rank = vec![b; 2];
        let total_work = 1.0e9;
        let fit = calibrate(
            &base,
            &CalibrationInput {
                p: 2,
                layers: 2,
                per_rank: &per_rank,
                total_work_units: Some(total_work),
                threads: None,
            },
        );
        // comp = spu * (work/p) / thread_scale  =>  spu = comp*scale/(work/p)
        let expect = 2.0 * base.thread_scale() / (total_work / 2.0);
        assert!((fit.secs_per_work_unit / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn native_run_fits_real_thread_count() {
        let base = Machine::knl();
        let mut b = StepBreakdown::default();
        b.secs[Step::LocalMultiply as usize] = 0.5;
        let per_rank = vec![b; 4];
        let total_work = 8.0e8;
        let fit = calibrate(
            &base,
            &CalibrationInput {
                p: 4,
                layers: 1,
                per_rank: &per_rank,
                total_work_units: Some(total_work),
                threads: Some(8),
            },
        );
        // The fitted profile describes the measured execution: 8 real
        // threads at unit efficiency, spu solved against that scale.
        assert_eq!(fit.threads_per_proc, 8);
        assert_eq!(fit.thread_efficiency, 1.0);
        let expect = 0.5 * 8.0 / (total_work / 4.0);
        assert!((fit.secs_per_work_unit / expect - 1.0).abs() < 1e-12);
        // Round-tripping through a Machine keeps predictions consistent.
        let m = fit.to_machine();
        assert!((m.compute_secs(total_work / 4.0) / 0.5 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips() {
        let p = MachineProfile {
            source: "calibrated from p=64 l=4 on \"knl\"".into(),
            alpha: 2.5e-6,
            beta: 7.5e-10,
            secs_per_work_unit: 3.25e-9,
            threads_per_proc: 16,
            thread_efficiency: 0.85,
        };
        let back = MachineProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        let m = back.to_machine();
        assert_eq!(m.name, "calibrated");
        assert_eq!(m.alpha, 2.5e-6);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(MachineProfile::from_json("{}").is_err());
        assert!(MachineProfile::from_json("{\"source\": \"x\", \"alpha\": \"nan?\"}").is_err());
        let negative = "{\"source\": \"x\", \"alpha\": -1, \"beta\": 1e-9, \
                        \"secs_per_work_unit\": 1e-9, \"threads_per_proc\": 4, \
                        \"thread_efficiency\": 0.9}";
        assert!(MachineProfile::from_json(negative).is_err());
    }
}
