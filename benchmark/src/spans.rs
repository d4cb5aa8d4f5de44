//! Host spans recorded by the benchmark around every call it makes into a
//! layer, held in memory and written as one Chrome trace per workload.
//!
//! Tracing inside the crates is a later issue; these spans sit at the
//! boundary the benchmark can see. Each span has a name, the layer (crate)
//! it entered, start and end, its parent span and the id of the op it
//! belongs to. The simulated per-rank timeline of the last traced op is
//! written into the same file under a second process id, so host time and
//! simulated time can be read side by side but never mixed.

use crate::json::Json;
use crate::surface::Timeline;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    layer: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: u64,
    /// Trace row: 0 is the benchmark's driving thread; concurrent work
    /// timed elsewhere (served jobs) gets rows of its own.
    track: u32,
}

/// The span recorder. Disabled, it costs one branch per call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    sim_timeline: Timeline,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            sim_timeline: Vec::new(),
        }
    }

    /// Start a new op: spans recorded until the next call share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: self.us(Instant::now()),
            end_us: 0.0,
            parent: self.open.last().copied(),
            op: self.op,
            track: 0,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.us(Instant::now());
        r
    }

    /// Record a span whose ends were timed elsewhere (a replayed rank's
    /// kernels, a served job's life), as a child of the open span. Spans
    /// that overlap each other must be given different `track`s.
    pub fn closed_span(
        &mut self,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
        track: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.open.last().copied(),
            op: self.op,
            track,
        });
    }

    /// Keep the simulated timeline of the latest traced op.
    pub fn set_sim_timeline(&mut self, timeline: Option<Timeline>) {
        if let (true, Some(t)) = (self.enabled, timeline) {
            self.sim_timeline = t;
        }
    }

    /// Host self time per layer: each span's duration minus the part its
    /// child spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(&child_us) {
            let own = (s.end_us - s.start_us - covered).max(0.0) / 1e6;
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some(slot) => slot.1 += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer
    }

    /// The Chrome trace (`chrome://tracing`, Perfetto): pid 1 is host time
    /// on the benchmark's driving thread, pid 2 is simulated time with one
    /// row per simulated rank.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let meta = |pid: f64, name: &str| {
            Json::obj([
                ("name", Json::str("process_name")),
                ("ph", Json::str("M")),
                ("pid", Json::Num(pid)),
                ("args", Json::obj([("name", Json::str(name))])),
            ])
        };
        let mut events = vec![
            meta(1.0, &format!("host time: {workload} (benchmark spans)")),
            meta(2.0, "simulated time: last traced op, one row per rank"),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.track))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                        ("layer", Json::str(s.layer)),
                    ]),
                ),
            ]));
        }
        for (rank, timeline) in self.sim_timeline.iter().enumerate() {
            for e in timeline.iter().filter(|e| e.end_s > e.start_s) {
                events.push(Json::obj([
                    ("name", Json::str(e.label)),
                    ("cat", Json::str("simulated")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(e.start_s * 1e6)),
                    ("dur", Json::Num((e.end_s - e.start_s) * 1e6)),
                    ("pid", Json::Num(2.0)),
                    ("tid", Json::Num(rank as f64)),
                ]));
            }
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}
