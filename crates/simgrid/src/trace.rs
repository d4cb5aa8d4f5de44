//! Execution tracing: per-rank timelines of modeled step spans, exportable
//! as Chrome trace JSON (`chrome://tracing`, Perfetto).
//!
//! Tracing is opt-in per rank ([`crate::RankClock::enable_tracing`]); when
//! enabled, every `advance`/`advance_to` span is recorded. The exporter
//! writes one timeline row per rank, making SUMMA stage structure, batch
//! boundaries, and synchronization waits visible at a glance.

use crate::clock::Step;

/// One contiguous span of modeled time attributed to a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The step the span belongs to.
    pub step: Step,
    /// Span start, modeled seconds.
    pub start: f64,
    /// Span end, modeled seconds.
    pub end: f64,
    /// Seconds of communication hidden behind computation, for zero-length
    /// overlap markers emitted when a nonblocking collective completes
    /// under cover of other work (see `RankClock::record_overlap`).
    /// `0.0` for ordinary spans.
    pub hidden: f64,
}

/// Render per-rank event lists as Chrome trace JSON.
///
/// Rank `i`'s events appear on thread id `i`; durations are microseconds
/// as the format requires. Positive-length spans render as `X` duration
/// events; zero-length overlap markers (`hidden > 0`) render as `i`
/// instant events carrying the hidden microseconds in `args`, making the
/// overlap savings of nonblocking collectives visible on the timeline.
/// Other zero-length spans are skipped.
pub fn chrome_trace_json(per_rank: &[Vec<TraceEvent>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (rank, events) in per_rank.iter().enumerate() {
        for e in events {
            let dur_us = (e.end - e.start) * 1e6;
            let entry = if dur_us > 0.0 {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{rank}}}",
                    e.step.label(),
                    e.start * 1e6,
                    dur_us
                )
            } else if e.hidden > 0.0 {
                format!(
                    "{{\"name\":\"{} overlapped\",\"ph\":\"i\",\"ts\":{:.3},\"s\":\"t\",\"pid\":0,\
                     \"tid\":{rank},\"args\":{{\"hidden_us\":{:.3}}}}}",
                    e.step.label(),
                    e.start * 1e6,
                    e.hidden * 1e6
                )
            } else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&entry);
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_json_shape() {
        let events = vec![
            vec![
                TraceEvent {
                    step: Step::ABcast,
                    start: 0.0,
                    end: 1e-3,
                    hidden: 0.0,
                },
                TraceEvent {
                    step: Step::LocalMultiply,
                    start: 1e-3,
                    end: 2e-3,
                    hidden: 0.0,
                },
            ],
            vec![TraceEvent {
                step: Step::Wait,
                start: 0.0,
                end: 0.0, // zero-length, no hidden time: skipped
                hidden: 0.0,
            }],
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"A-Bcast\""));
        assert!(json.contains("\"tid\":0"));
    }

    #[test]
    fn overlap_markers_render_as_instant_events() {
        let events = vec![vec![TraceEvent {
            step: Step::ABcast,
            start: 2e-3,
            end: 2e-3,
            hidden: 5e-4,
        }]];
        let json = chrome_trace_json(&events);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.contains("\"name\":\"A-Bcast overlapped\""));
        assert!(json.contains("\"hidden_us\":500.000"));
        assert!(!json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }
}
