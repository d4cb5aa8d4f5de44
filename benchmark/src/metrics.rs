//! The metric catalogue (what `BENCHMARK.json` lists) and the statistics
//! every number is reduced with.

use crate::json::Json;
use crate::surface;

/// Which clock a metric reads. The compare step treats them differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated α–β time, bytes or peaks: a pure function of the inputs,
    /// must repeat bit-for-bit for one seed.
    Sim,
    /// An exact count made by the program (flops, events, messages).
    Count,
    /// Host time or anything that depends on host scheduling.
    Host,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Sim => "simulated",
            Kind::Count => "count",
            Kind::Host => "host",
        }
    }

    pub fn is_exact(self) -> bool {
        self != Kind::Host
    }
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    pub kind: Kind,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse, as `BENCHMARK.json` states it. The benchmark
    /// is accepted on runs at ten different seeds, so a simulated metric's
    /// bound has to cover three times its seed-to-seed spread and cannot
    /// be 0; at one seed `compare` checks simulated metrics for equality.
    /// A host bound is the resolution of the box it was set on (see
    /// README, "Resolution of the host metrics").
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, higher: bool, kind: Kind, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better: higher,
        kind,
        bound,
    }
}

/// The nine end-to-end metrics. Every workload reports every one.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", false, Kind::Host, Some(0.25)),
        def("wall_s", "s", false, Kind::Host, Some(0.25)),
        def("jobs_per_s", "1/s", true, Kind::Host, Some(0.25)),
        def("cpu_s_per_op", "s", false, Kind::Host, Some(0.25)),
        def("peak_rss_mb", "MB", false, Kind::Host, Some(0.20)),
        def("modeled_s", "s", false, Kind::Sim, Some(0.10)),
        def("modeled_bytes", "B", false, Kind::Sim, Some(0.05)),
        def("modeled_msgs", "count", false, Kind::Sim, Some(0.15)),
        def("peak_bytes", "B", false, Kind::Sim, Some(0.15)),
    ]
}

/// The per-layer metrics of the traced run, grouped by the crate (layer)
/// that answers for them. A workload that does not exercise a layer
/// reports 0 for that layer's metrics.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        // sparse: local kernels.
        def("sparse.flops", "count", false, Kind::Count, None),
        def("sparse.allocs", "count", false, Kind::Count, None),
        def("sparse.memcpy_bytes", "B", false, Kind::Count, None),
        def("sparse.peak_scratch_bytes", "B", false, Kind::Count, None),
        def(
            "sparse.compression_factor",
            "ratio",
            false,
            Kind::Count,
            None,
        ),
        def("sparse.replay_cpu_s", "s", false, Kind::Host, None),
        def("sparse.multiply_ns_per_flop", "ns", false, Kind::Host, None),
        def("sparse.merge_ns_per_nnz", "ns", false, Kind::Host, None),
        def("sparse.spmm_ns_per_flop", "ns", false, Kind::Host, None),
        def("sparse.serial_ref_s", "s", false, Kind::Host, None),
        def(
            "sparse.mtx_read_mnnz_per_s",
            "Mnnz/s",
            true,
            Kind::Host,
            None,
        ),
        // simgrid: the virtual MPI runtime.
        def("simgrid.msgs", "count", false, Kind::Count, None),
        def("simgrid.bytes_per_msg", "B", false, Kind::Sim, None),
        def("simgrid.spawn_join_ms", "ms", false, Kind::Host, None),
        def("simgrid.bcast_us", "us", false, Kind::Host, None),
        def("simgrid.alltoallv_us", "us", false, Kind::Host, None),
        def("simgrid.p2p_us", "us", false, Kind::Host, None),
        def(
            "simgrid.check_overhead_frac",
            "ratio",
            false,
            Kind::Host,
            None,
        ),
    ];
    // core: the distributed drivers, per simulated step.
    for (slug, _) in surface::step_slugs() {
        v.push(def(
            &format!("core.step.{slug}_s"),
            "s",
            false,
            Kind::Sim,
            None,
        ));
    }
    for (slug, comm) in surface::step_slugs() {
        if comm {
            v.push(def(
                &format!("core.step.{slug}_bytes"),
                "B",
                false,
                Kind::Sim,
                None,
            ));
        }
    }
    v.extend([
        def("core.comm_frac", "ratio", false, Kind::Sim, None),
        def("core.overlap_hidden_s", "s", true, Kind::Sim, None),
        def("core.nbatches", "count", false, Kind::Sim, None),
        def("core.peak_imbalance", "ratio", false, Kind::Sim, None),
        def("core.eq2_slack_frac", "ratio", false, Kind::Sim, None),
        def("core.fetch_hit_rate", "ratio", true, Kind::Sim, None),
        def("core.fetch_bytes_saved", "B", true, Kind::Sim, None),
        def("core.host_overhead_s", "s", false, Kind::Host, None),
        // planner.
        def("planner.probe_ms", "ms", false, Kind::Host, None),
        def("planner.predict_ms", "ms", false, Kind::Host, None),
        def("planner.candidates", "count", false, Kind::Count, None),
        def("planner.batches_predicted", "count", false, Kind::Sim, None),
        def("planner.residual_frac", "ratio", false, Kind::Sim, None),
        // audit.
        def("audit.configs", "count", false, Kind::Count, None),
        def("audit.events", "count", false, Kind::Count, None),
        def("audit.events_per_s", "1/s", true, Kind::Host, None),
        def("audit.violations", "count", false, Kind::Count, None),
        // serve: all timing-dependent (which jobs overlap decides them).
        def("serve.plan_hit_rate", "ratio", true, Kind::Host, None),
        def("serve.probe_hit_rate", "ratio", true, Kind::Host, None),
        def("serve.shrunk_frac", "ratio", false, Kind::Host, None),
        def("serve.peak_queue_depth", "count", false, Kind::Host, None),
        def("serve.peak_reserved_frac", "ratio", false, Kind::Host, None),
        def("serve.queue_p50_ms", "ms", false, Kind::Host, None),
        def("serve.queue_p99_ms", "ms", false, Kind::Host, None),
        def("serve.run_p50_ms", "ms", false, Kind::Host, None),
        def("serve.overhead_p50_ms", "ms", false, Kind::Host, None),
        def("serve.job_p50_ms", "ms", false, Kind::Host, None),
        def("serve.job_p99_ms", "ms", false, Kind::Host, None),
        def("serve.generator_lag_p99_ms", "ms", false, Kind::Host, None),
        def("serve.rate_offered_hz", "1/s", false, Kind::Host, None),
        // apps.
        def("apps.mcl_iters", "count", false, Kind::Count, None),
        def("apps.mcl_clusters", "count", false, Kind::Count, None),
        def("apps.mcl_warm_bytes_frac", "ratio", false, Kind::Sim, None),
        def("apps.mcl_iter_modeled_s", "s", false, Kind::Sim, None),
        // host: context for every wall_s, not a target.
        def("host.ops_timed", "count", true, Kind::Host, None),
        def("host.wall_p90_s", "s", false, Kind::Host, None),
        def("host.cores_used", "ratio", false, Kind::Host, None),
        def("host.wall_iqr_frac", "ratio", false, Kind::Host, None),
        def("host.trace_overhead_frac", "ratio", false, Kind::Host, None),
    ]);
    v
}

/// Values keyed by metric name; a name never set reads as 0.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over exactly `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| &d.name == name),
                "metric {name} is not in the catalogue"
            );
        }
        Json::obj(defs.iter().map(|d| {
            (
                d.name.clone(),
                Json::obj([
                    ("value", Json::Num(self.get(&d.name))),
                    ("unit", Json::str(d.unit)),
                ]),
            )
        }))
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in `0..=1`).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the exclusive method), so spreads read here match the
/// ones the benchmark is accepted by.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        let total = names.len();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; it must list exactly the
    /// workloads and metrics this program runs and reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no list {key}");
            };
            items
                .iter()
                .map(|item| {
                    let field = |f: &&str| item.get(f).expect(f).compact();
                    fields.iter().map(field).collect()
                })
                .collect()
        };
        let row = |d: &MetricDef, bounded: bool| {
            let better = if d.higher_is_better { "higher" } else { "lower" };
            let mut row = vec![
                Json::str(d.name.clone()).compact(),
                Json::str(d.unit).compact(),
                Json::str(better).compact(),
            ];
            if bounded {
                row.push(Json::Num(d.bound.unwrap()).compact());
            }
            row
        };
        assert_eq!(
            listed("end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end().iter().map(|d| row(d, true)).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer", &["name", "unit", "better"]),
            per_layer().iter().map(|d| row(d, false)).collect::<Vec<_>>()
        );
        let names: Vec<Vec<String>> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| vec![Json::str(*w).compact()])
            .collect();
        assert_eq!(listed("workloads", &["name"]), names);
    }
}
