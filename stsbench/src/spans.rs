//! The traced run's span store: spans recorded by the benchmark's own
//! wrappers around each layer call, kept in memory under a per-solve id,
//! merged with the kernel spans of `sts_trace::SpanRecorder`, and written
//! once at exit as a Chrome trace-event file (loadable in Perfetto).

use std::fmt::Write as _;
use std::sync::Arc;

use sts_trace::{SpanEvent, SpanRecorder};

/// One span recorded by a benchmark wrapper.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Layer call, e.g. `krylov.solve` or `serve.round_trip`.
    pub name: &'static str,
    /// The solve (request) this span belongs to.
    pub solve: u64,
    /// Track: the client connection, or 0 in process.
    pub track: u32,
    /// Start, nanoseconds on the shared clock.
    pub t_start_ns: u64,
    /// End, nanoseconds on the shared clock.
    pub t_end_ns: u64,
}

/// Spans of one traced run. The clock is a kernel `SpanRecorder`, so the
/// wrappers' spans and the kernels' spans share one timebase.
pub struct Tracer {
    clock: Arc<SpanRecorder>,
    spans: Vec<BenchSpan>,
    kernel: Vec<(u64, SpanEvent)>,
    kernel_solves: u64,
    dropped: u64,
}

/// Solves whose kernel spans are written to the trace file; later solves
/// still feed the metrics, but their thousands of spans are not kept.
const KERNEL_SOLVES_KEPT: u64 = 8;

impl Tracer {
    /// A tracer timed by `clock`.
    pub fn new(clock: Arc<SpanRecorder>) -> Tracer {
        Tracer {
            clock,
            spans: Vec::new(),
            kernel: Vec::new(),
            kernel_solves: 0,
            dropped: 0,
        }
    }

    /// The shared clock, nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Records one wrapper span.
    pub fn span(
        &mut self,
        name: &'static str,
        solve: u64,
        track: u32,
        t_start_ns: u64,
        t_end_ns: u64,
    ) {
        self.spans.push(BenchSpan {
            name,
            solve,
            track,
            t_start_ns,
            t_end_ns,
        });
    }

    /// Takes the kernel spans recorded since the last call (the recorder is
    /// cleared), files them under `solve`, and returns them.
    pub fn drain_kernel(&mut self, recorder: &SpanRecorder, solve: u64) -> Vec<SpanEvent> {
        let events = recorder.snapshot();
        self.dropped += recorder.dropped();
        recorder.clear();
        if self.kernel_solves < KERNEL_SOLVES_KEPT && !events.is_empty() {
            self.kernel_solves += 1;
            self.kernel.extend(events.iter().map(|e| (solve, *e)));
        }
        events
    }

    /// Kernel spans lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The Chrome trace-event JSON of every kept span: process 1 holds the
    /// wrapper spans (one thread per track, nesting by time containment),
    /// process 0 the kernel spans (one thread per worker).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"sts-core kernels\"}},\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"benchmark layer calls\"}}",
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
                 \"tid\":{},\"args\":{{\"solve\":{}}}}}",
                s.name,
                micros(s.t_start_ns),
                micros(s.t_end_ns.saturating_sub(s.t_start_ns)),
                s.track,
                s.solve
            );
        }
        for (solve, e) in &self.kernel {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\
                 \"tid\":{},\"args\":{{\"solve\":{},\"pack\":{}}}}}",
                e.phase.as_str(),
                micros(e.t_start_ns),
                micros(e.t_end_ns.saturating_sub(e.t_start_ns)),
                e.worker,
                solve,
                e.pack
            );
        }
        out.push(']');
        out
    }
}

/// Nanoseconds as the trace format's microseconds, nanosecond precision.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_trace::Phase;

    #[test]
    fn chrome_json_parses_and_keeps_solve_ids() {
        let rec = Arc::new(SpanRecorder::new(16));
        rec.enable();
        let mut tracer = Tracer::new(Arc::clone(&rec));
        tracer.span("krylov.solve", 1, 0, 1_000, 9_000);
        tracer.span("krylov.precond", 1, 0, 2_000, 3_500);
        rec.record(1, 2, Phase::Gather, 2_100, 2_900);
        let kernel = tracer.drain_kernel(&rec, 1);
        assert_eq!(kernel.len(), 1);
        assert!(rec.is_empty());
        let json = tracer.chrome_json();
        let v = serde_json::from_str(&json).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 5);
        let gather = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("gather"))
            .unwrap();
        assert_eq!(
            gather.get("args").unwrap().get("solve").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(micros(1_234_567), "1234.567");
    }
}
