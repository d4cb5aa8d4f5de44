//! `serve-mixed`: the resident job server under a closed loop, then an
//! open loop at a fixed rate.

use crate::host;
use crate::loadgen::{closed_loop, open_loop, Campaign, Stop};
use crate::metrics::{self, Values};
use crate::spans::Recorder;
use crate::surface::{self, CscMatrix, ServeSpec, Server, Simulated};
use crate::workloads::{Window, Workload};
use std::sync::mpsc::channel;
use std::time::Duration;

/// Global modeled-memory budget of the server: every spec fits alone, but
/// the ledger fills when the two largest meet (peak reserved about 0.8 of
/// it), so admission queues or shrinks-and-batches now and then.
const GLOBAL_BUDGET_BYTES: usize = 6 << 20;
const MAX_CONCURRENCY: usize = 2;
/// Below the 8 distinct plan keys, so hits, misses and evictions all run.
const PLAN_CACHE_CAPACITY: usize = 6;
const TENANTS: usize = 2;
/// Open-loop rate: about half of what the closed loop sustained on the
/// 2-core box when the benchmark was defined. Fixed, so a slower server
/// shows as latency, not as less offered load.
const OPEN_RATE_HZ: f64 = 150.0;
/// Share of the measured seconds spent in the closed loop.
const CLOSED_SHARE: f64 = 0.35;

pub struct ServeMixed {
    server: Option<Server>,
    specs: Vec<ServeSpec>,
    /// Simulated numbers of each spec, run alone as planned.
    per_spec: Vec<Simulated>,
    /// Their sum (peak: max): the workload's simulated end-to-end numbers.
    reference: Simulated,
    picker: u64,
    smoke: bool,
}

impl ServeMixed {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }

    pub fn prepare(seed: u64, smoke: bool) -> Result<ServeMixed, String> {
        let n = if smoke { 128 } else { 256 };
        let shapes: [CscMatrix<f64>; 2] = [
            surface::gen_uniform(n, 6, seed),
            surface::gen_protein(n / 64, 64, 12, 1, seed ^ 0x5EED),
        ];
        let server = Server::start(GLOBAL_BUDGET_BYTES, MAX_CONCURRENCY, PLAN_CACHE_CAPACITY);
        let mut specs = Vec::new();
        let mut references = Vec::new();
        for m in &shapes {
            let id = server.register(m.clone());
            references.push(surface::serial_product(m, m).0);
            let inputs = 2 * m.nnz() * surface::R_BYTES;
            for p in [4, 16] {
                // Unlimited at normal priority; three times the inputs at
                // high priority (the planner must batch to fit).
                for (budget_bytes, high_priority) in [(None, false), (Some(3 * inputs), true)] {
                    specs.push(ServeSpec {
                        a: id,
                        b: id,
                        p,
                        budget_bytes,
                        high_priority,
                        keep_output: false,
                    });
                }
            }
        }
        // Correctness gate: every spec once, alone, product kept; then once
        // more as timed (product discarded) for the simulated numbers every
        // as-planned job must repeat.
        let mut per_spec = Vec::new();
        let mut reference = Simulated::default();
        let run_alone = |spec: &ServeSpec| {
            let (tx, rx) = channel();
            server.submit(spec, tx);
            rx.recv()
                .map(surface::serve_done)
                .map_err(|e| e.to_string())
        };
        for (i, spec) in specs.iter().enumerate() {
            let kept = run_alone(&ServeSpec {
                keep_output: true,
                ..*spec
            })?;
            let c = kept
                .c
                .as_ref()
                .ok_or(format!("spec {i} was rejected or returned no product"))?;
            if !surface::same_product(c, &references[i / 4]) {
                return Err(format!(
                    "spec {i}: served product differs from the serial reference"
                ));
            }
            let done = run_alone(spec)?;
            if !done.completed {
                return Err(format!("spec {i} was rejected"));
            }
            let sim = Simulated {
                modeled_s: done.modeled_s,
                modeled_bytes: done.modeled_bytes,
                peak_bytes: done.peak_bytes,
                nbatches: done.nbatches,
                msgs: done.msgs,
                ..Simulated::default()
            };
            reference.absorb(&sim);
            per_spec.push(sim);
        }
        let mut w = ServeMixed {
            server: Some(server),
            specs,
            per_spec,
            reference,
            picker: seed,
            smoke,
        };
        let server = w.server.as_ref().expect("just started");
        let warm = closed_loop(server, &w.specs, &mut w.picker, TENANTS, Stop::Jobs(64));
        if warm.failed() > 0 {
            return Err(format!("{} of 64 warm-up jobs failed", warm.failed()));
        }
        Ok(w)
    }

    /// Jobs admitted as planned must reproduce their spec's simulated
    /// numbers bit-for-bit (a shrunk job legitimately runs more batches).
    fn mismatches(&self, c: &Campaign) -> u64 {
        c.samples
            .iter()
            .filter(|s| s.done.completed && !s.done.shrunk)
            .filter(|s| {
                let want = &self.per_spec[s.spec];
                s.done.modeled_s.to_bits() != want.modeled_s.to_bits()
                    || s.done.modeled_bytes != want.modeled_bytes
                    || s.done.nbatches != want.nbatches
            })
            .count() as u64
    }

    fn phases(&mut self, seconds: f64) -> (Campaign, Campaign) {
        let (closed_stop, open_stop) = if self.smoke {
            (Stop::Jobs(60), Stop::Jobs(120))
        } else {
            (
                Stop::After(Duration::from_secs_f64(seconds * CLOSED_SHARE)),
                Stop::After(Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE))),
            )
        };
        let server = self.server.as_ref().expect("server runs until drop");
        let a = closed_loop(server, &self.specs, &mut self.picker, TENANTS, closed_stop);
        let b = open_loop(
            server,
            &self.specs,
            &mut self.picker,
            OPEN_RATE_HZ,
            open_stop,
        );
        (a, b)
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for ServeMixed {
    fn sim(&self) -> &Simulated {
        &self.reference
    }

    fn window(&mut self, seconds: f64, _max_ops: Option<u64>) -> Window {
        let cpu0 = host::cpu_seconds();
        let (a, b) = self.phases(seconds);
        let cpu_s = host::cpu_seconds() - cpu0;
        let done = (a.completed() + b.completed()).max(1);
        Window {
            latencies: b
                .samples
                .iter()
                .filter(|s| s.done.completed)
                .map(|s| s.latency_s())
                .collect(),
            jobs_per_s: a.completed() as f64 / a.elapsed_s,
            cpu_s_per_op: cpu_s / done as f64,
            attempted: (a.submitted + b.submitted) as u64,
            failed: (a.failed() + b.failed()) as u64 + self.mismatches(&a) + self.mismatches(&b),
        }
    }

    fn traced(
        &mut self,
        seconds: f64,
        _smoke: bool,
        rec: &mut Recorder,
        out: &mut Values,
    ) -> (u64, u64) {
        // `JobSpec` has no trace switch and the per-job spans are written
        // after the phases from their samples, so the traced phases cost
        // what the plain ones do: `host.trace_overhead_frac` stays 0.
        let cpu0 = host::cpu_seconds();
        let (plain_a, plain_b) = self.phases(seconds * 0.3);
        let cpu_s = host::cpu_seconds() - cpu0;
        let (a, b) = rec.span("benchmark", "closed + open loop", |rec| {
            let (a, b) = self.phases(seconds * 0.3);
            // One span per job, due time to report. Jobs overlap, so each
            // goes on the first trace row that is free at its due time.
            let mut row_free_at: Vec<std::time::Instant> = Vec::new();
            for (phase, campaign) in [("closed", &a), ("open", &b)] {
                let mut jobs: Vec<_> = campaign.samples.iter().collect();
                jobs.sort_by_key(|s| s.due);
                for s in jobs {
                    let row = row_free_at
                        .iter()
                        .position(|&t| t <= s.due)
                        .unwrap_or_else(|| {
                            row_free_at.push(s.due);
                            row_free_at.len() - 1
                        });
                    row_free_at[row] = s.done_at;
                    rec.next_op();
                    let name = format!("{phase} job {} spec {}", s.done.id, s.spec);
                    rec.closed_span("serve", &name, s.due, s.done_at, row as u32 + 1);
                }
            }
            (a, b)
        });
        // Percentiles in ms over the answered open-loop jobs.
        type Pick = fn(&crate::loadgen::JobSample) -> f64;
        let per_job: [(&str, Pick, f64); 7] = [
            ("serve.job_p50_ms", |s| s.latency_s(), 0.50),
            ("serve.job_p99_ms", |s| s.latency_s(), 0.99),
            ("serve.queue_p50_ms", |s| s.done.queue_s, 0.50),
            ("serve.queue_p99_ms", |s| s.done.queue_s, 0.99),
            ("serve.run_p50_ms", |s| s.done.run_s, 0.50),
            (
                "serve.overhead_p50_ms",
                |s| s.done.total_s - s.done.queue_s - s.done.run_s,
                0.50,
            ),
            ("serve.generator_lag_p99_ms", |s| s.lag_s, 0.99),
        ];
        for (name, pick, q) in per_job {
            let xs: Vec<f64> = b
                .samples
                .iter()
                .filter(|s| s.done.completed)
                .map(pick)
                .collect();
            out.set(name, metrics::percentile(&xs, q) * 1e3);
        }
        out.set("serve.rate_offered_hz", OPEN_RATE_HZ);
        let stats = self.server().stats();
        out.set("serve.plan_hit_rate", stats.plan_hit_rate);
        out.set("serve.probe_hit_rate", stats.probe_hit_rate);
        out.set("serve.shrunk_frac", stats.shrunk_frac);
        out.set("serve.peak_queue_depth", stats.peak_queue_depth as f64);
        out.set("serve.peak_reserved_frac", stats.peak_reserved_frac);

        let plain_latencies: Vec<f64> = plain_b.samples.iter().map(|s| s.latency_s()).collect();
        out.set(
            "host.ops_timed",
            (plain_a.submitted + plain_b.submitted) as f64,
        );
        out.set(
            "host.wall_p90_s",
            metrics::percentile(&plain_latencies, 0.90),
        );
        out.set(
            "host.cores_used",
            cpu_s / (plain_a.elapsed_s + plain_b.elapsed_s),
        );
        out.set(
            "host.wall_iqr_frac",
            metrics::iqr_frac(&plain_latencies).unwrap_or(0.0),
        );
        crate::layers::fill_core(out, &self.reference);
        let all = [&plain_a, &plain_b, &a, &b];
        (
            all.iter().map(|c| c.submitted as u64).sum(),
            all.iter()
                .map(|c| c.failed() as u64 + self.mismatches(c))
                .sum(),
        )
    }
}
