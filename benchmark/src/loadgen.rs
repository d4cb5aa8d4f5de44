//! The benchmark's own load generator for the job server.
//!
//! `core::serve::run_loadgen` times each job from the moment it was
//! actually submitted, so a stalled server slows the generator down and
//! hides the stall (coordinated omission). This generator's open loop
//! sends on a fixed schedule whatever the server does, times every job
//! from the instant it was *due*, reports how late the generator itself
//! ran, and counts jobs that are still unanswered a fixed time after the
//! schedule ends as lost. The closed loop keeps a fixed number of tenants
//! with one job outstanding each and measures saturated throughput.

use crate::surface::{self, ServeDone, ServeReply, ServeSpec, Server};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Jobs unanswered this long after the last due time count as lost: a
/// backlog that is still growing when the schedule ends shows up here.
const DRAIN_LIMIT: Duration = Duration::from_secs(1);

/// One answered job.
#[derive(Debug)]
pub struct JobSample {
    /// Index into the spec pool.
    pub spec: usize,
    /// When the schedule wanted the job sent (closed loop: when it was).
    pub due: Instant,
    pub done_at: Instant,
    /// Seconds the generator sent it late (0 in the closed loop).
    pub lag_s: f64,
    pub done: ServeDone,
}

impl JobSample {
    /// Seconds from the due time to the report.
    pub fn latency_s(&self) -> f64 {
        self.done_at.duration_since(self.due).as_secs_f64()
    }
}

#[derive(Debug, Default)]
pub struct Campaign {
    pub samples: Vec<JobSample>,
    pub submitted: usize,
    /// Submitted but never answered within the drain limit.
    pub lost: usize,
    /// First submission to last report.
    pub elapsed_s: f64,
}

impl Campaign {
    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.done.completed).count()
    }

    /// Jobs that errored, were rejected, or were lost.
    pub fn failed(&self) -> usize {
        self.submitted - self.completed()
    }
}

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Jobs(usize),
}

fn pick(picker: &mut u64, n: usize) -> usize {
    (surface::splitmix64(picker) % n as u64) as usize
}

/// Closed loop: `tenants` callers, each submitting its next job when the
/// previous one is answered.
pub fn closed_loop(
    server: &Server,
    specs: &[ServeSpec],
    picker: &mut u64,
    tenants: usize,
    stop: Stop,
) -> Campaign {
    let (tx, rx) = channel::<ServeReply>();
    let start = Instant::now();
    let mut pending: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut out = Campaign::default();
    let more = |submitted: usize| match stop {
        Stop::After(d) => start.elapsed() < d,
        Stop::Jobs(n) => submitted < n,
    };
    let mut submit = |out: &mut Campaign, pending: &mut HashMap<u64, (usize, Instant)>| {
        let spec = pick(picker, specs.len());
        let at = Instant::now();
        let id = server.submit(&specs[spec], tx.clone());
        pending.insert(id, (spec, at));
        out.submitted += 1;
    };
    while out.submitted < tenants && more(out.submitted) {
        submit(&mut out, &mut pending);
    }
    while !pending.is_empty() {
        let Ok(reply) = rx.recv_timeout(DRAIN_LIMIT * 5) else {
            break;
        };
        let done_at = Instant::now();
        let done = surface::serve_done(reply);
        if let Some((spec, due)) = pending.remove(&done.id) {
            out.samples.push(JobSample {
                spec,
                due,
                done_at,
                lag_s: 0.0,
                done,
            });
        }
        if more(out.submitted) {
            submit(&mut out, &mut pending);
        }
    }
    out.lost = pending.len();
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Open loop: one job every `1/rate_hz` seconds regardless of completions.
pub fn open_loop(
    server: &Server,
    specs: &[ServeSpec],
    picker: &mut u64,
    rate_hz: f64,
    stop: Stop,
) -> Campaign {
    let gap = Duration::from_secs_f64(1.0 / rate_hz);
    let jobs = match stop {
        Stop::After(d) => (d.as_secs_f64() * rate_hz).ceil() as usize,
        Stop::Jobs(n) => n,
    }
    .max(1);
    let (tx, rx) = channel::<ServeReply>();
    let start = Instant::now();
    let finished = AtomicBool::new(false);
    let submitted = AtomicUsize::new(0);
    let deadline = start + gap * (jobs as u32 - 1) + DRAIN_LIMIT;

    let (sent, replies) = std::thread::scope(|s| {
        // The collector only receives and timestamps, so a report is never
        // stamped late because the generator was busy sending.
        let (finished, submitted) = (&finished, &submitted);
        let collector = s.spawn(move || {
            let mut got: Vec<(ServeReply, Instant)> = Vec::with_capacity(jobs);
            loop {
                match rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(r) => got.push((r, Instant::now())),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                let all_in = finished.load(Ordering::SeqCst)
                    && got.len() >= submitted.load(Ordering::SeqCst);
                if all_in || Instant::now() > deadline {
                    break;
                }
            }
            got
        });
        let mut sent: Vec<(u64, usize, Instant, f64)> = Vec::with_capacity(jobs);
        for i in 0..jobs {
            let due = start + gap * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let spec = pick(picker, specs.len());
            let lag_s = Instant::now().saturating_duration_since(due).as_secs_f64();
            let id = server.submit(&specs[spec], tx.clone());
            sent.push((id, spec, due, lag_s));
            submitted.store(i + 1, Ordering::SeqCst);
        }
        drop(tx);
        finished.store(true, Ordering::SeqCst);
        (sent, collector.join().expect("collector thread panicked"))
    });

    let mut by_id: HashMap<u64, (usize, Instant, f64)> = sent
        .iter()
        .map(|&(id, spec, due, lag)| (id, (spec, due, lag)))
        .collect();
    let mut out = Campaign {
        submitted: sent.len(),
        ..Campaign::default()
    };
    let mut last = start;
    for (reply, done_at) in replies {
        let done = surface::serve_done(reply);
        if let Some((spec, due, lag_s)) = by_id.remove(&done.id) {
            last = last.max(done_at);
            out.samples.push(JobSample {
                spec,
                due,
                done_at,
                lag_s,
                done,
            });
        }
    }
    out.lost = by_id.len();
    out.elapsed_s = last.duration_since(start).as_secs_f64();
    out
}
