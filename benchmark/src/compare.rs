//! `compare A.json B.json`: is B (the change) no worse than A (the parent)?
//!
//! One row per workload × metric. Simulated metrics and counts must be
//! identical; a row that is not says whether it got better or worse. A
//! host end-to-end metric may get worse by at most its bound; when either
//! side's run-to-run IQR is wider than that bound the row reads
//! *unresolved*, never *unchanged*. Host per-layer metrics have no bound
//! and are shown for context only.

use crate::json::Json;
use crate::metrics::{self, MetricDef};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Ok,
    Improved,
    Info,
    Unresolved,
    Regressed,
    ChangedBetter,
    ChangedWorse,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Info => "-",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Regressed => "REGRESSED",
            Verdict::ChangedBetter => "CHANGED (better)",
            Verdict::ChangedWorse => "CHANGED (worse)",
            Verdict::Missing => "MISSING",
        }
    }

    fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::ChangedBetter | Verdict::ChangedWorse | Verdict::Missing
        )
    }
}

struct Side {
    value: f64,
    iqr_frac: Option<f64>,
}

fn side(workload: &Json, group: &str, name: &str) -> Option<Side> {
    let m = workload.get(group)?.get(name)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        iqr_frac: m.get("iqr_frac").and_then(Json::as_f64),
    })
}

fn judge(def: &MetricDef, a: &Side, b: &Side) -> Verdict {
    if def.kind.is_exact() {
        return if a.value == b.value {
            Verdict::Same
        } else if (b.value > a.value) == def.higher_is_better {
            Verdict::ChangedBetter
        } else {
            Verdict::ChangedWorse
        };
    }
    let Some(bound) = def.bound else {
        return Verdict::Info;
    };
    if [a, b].iter().any(|s| s.iqr_frac.is_some_and(|f| f > bound)) {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the parent's value.
    let worse = if def.higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    } / a.value.abs();
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the table; `Ok(false)` when any row fails.
pub fn compare_files(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seed", "smoke", "seconds", "nproc", "rustc", "git_sha"] {
        let show = |j: &Json| j.get(key).map_or("?".to_string(), Json::compact);
        println!("{key:<8} A={}  B={}", show(&a), show(&b));
    }
    // Different inputs, or host numbers measured differently: not comparable.
    for key in ["seed", "smoke", "seconds", "nproc"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two results differ in `{key}`"));
        }
    }
    if a.get("rustc") != b.get("rustc") {
        println!("warning: built with different compilers; host rows include that change");
    }
    let workloads_a = a.get("workloads").ok_or("A has no workloads")?;
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;
    println!(
        "\n{:<20} {:<32} {:<9} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "kind", "A", "B", "delta"
    );
    let mut failures = 0;
    let (mut unresolved, mut better) = (0, 0);
    for (name, wa) in workloads_a.entries() {
        let Some(wb) = workloads_b.get(name) else {
            println!(
                "{name:<20} {:<32} {:<9} {:>16} {:>16} {:>9}  MISSING",
                "*", "", "", "", ""
            );
            failures += 1;
            continue;
        };
        let failed_frac = |w: &Json| {
            w.get("failed_frac")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (fa, fb) = (failed_frac(wa), failed_frac(wb));
        // Bound 0: any failed op on the change fails the comparison; a
        // change that cures the parent's failures is an improvement.
        let verdict = match (fa == 0.0, fb == 0.0) {
            (true, true) => Verdict::Same,
            (false, true) => Verdict::Improved,
            _ => Verdict::Regressed,
        };
        println!(
            "{name:<20} {:<32} {:<9} {fa:>16} {fb:>16} {:>9}  {}",
            "failed_frac",
            "count",
            "",
            verdict.label()
        );
        failures += usize::from(verdict.fails());
        let groups = [
            ("end_to_end", metrics::end_to_end()),
            ("per_layer", metrics::per_layer()),
        ];
        for (group, defs) in &groups {
            for def in defs {
                let (verdict, va, vb) =
                    match (side(wa, group, &def.name), side(wb, group, &def.name)) {
                        (Some(sa), Some(sb)) => (judge(def, &sa, &sb), sa.value, sb.value),
                        _ => (Verdict::Missing, f64::NAN, f64::NAN),
                    };
                let delta = if va == vb {
                    "0".to_string()
                } else if va != 0.0 {
                    format!("{:+.2}%", (vb - va) / va.abs() * 100.0)
                } else {
                    "n/a".to_string()
                };
                println!(
                    "{name:<20} {:<32} {:<9} {va:>16.6} {vb:>16.6} {delta:>9}  {}",
                    def.name,
                    def.kind.label(),
                    verdict.label()
                );
                failures += usize::from(verdict.fails());
                unresolved += usize::from(verdict == Verdict::Unresolved);
                better += usize::from(verdict == Verdict::ChangedBetter);
            }
        }
    }
    println!(
        "\n{failures} failing rows ({better} of them exact metrics that changed for the better: \
         re-measure the baseline), {unresolved} unresolved (spread wider than the bound)"
    );
    println!(
        "host rows: `ok` means no worse than the bound, which is the resolution of one pair \
         of runs on a shared box; a smaller change is neither shown nor refuted (README, \
         \"Resolution of the host metrics\")"
    );
    Ok(failures == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Kind;

    fn def(kind: Kind, higher: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s",
            higher_is_better: higher,
            kind,
            bound: Some(0.10),
        }
    }

    fn s(value: f64, iqr: f64) -> Side {
        Side {
            value,
            iqr_frac: Some(iqr),
        }
    }

    #[test]
    fn host_metrics_use_the_relative_bound_in_the_worse_direction() {
        let lower = def(Kind::Host, false);
        assert_eq!(judge(&lower, &s(1.0, 0.01), &s(1.09, 0.01)), Verdict::Ok);
        assert_eq!(
            judge(&lower, &s(1.0, 0.01), &s(1.2, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &s(1.0, 0.01), &s(0.8, 0.01)),
            Verdict::Improved
        );
        let higher = def(Kind::Host, true);
        assert_eq!(
            judge(&higher, &s(100.0, 0.01), &s(80.0, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &s(100.0, 0.01), &s(120.0, 0.01)),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let d = def(Kind::Host, false);
        assert_eq!(judge(&d, &s(1.0, 0.2), &s(1.0, 0.01)), Verdict::Unresolved);
        assert_eq!(judge(&d, &s(1.0, 0.01), &s(1.5, 0.3)), Verdict::Unresolved);
    }

    #[test]
    fn simulated_metrics_must_be_identical() {
        let d = def(Kind::Sim, false);
        assert_eq!(
            judge(&d, &s(400_570_560.0, 0.0), &s(400_570_560.0, 0.0)),
            Verdict::Same
        );
        assert_eq!(
            judge(&d, &s(400_570_560.0, 0.0), &s(400_570_561.0, 0.0)),
            Verdict::ChangedWorse
        );
        assert_eq!(
            judge(&d, &s(400_570_560.0, 0.0), &s(400_570_559.0, 0.0)),
            Verdict::ChangedBetter
        );
    }
}
