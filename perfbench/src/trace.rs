//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! planner's public functions: name, start, end, parent span and request
//! id. They stay in memory while the workload runs and are written as JSON
//! (through `dip_models::json`) when it ends. Self time — a span's duration
//! minus the part of it that its children cover — is derived afterwards.

use crate::speed::{Speedometer, Timing};
use dip_models::json::JsonValue;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `ordering.search_ordering`.
    pub name: String,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// How often [`Tracer::timed`] re-measures the machine's speed.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Records nested spans on one thread. Disabled tracers record nothing and
/// only run the closures, so the same code path serves both modes. Both
/// kinds time requests through [`Tracer::timed`], which also samples the
/// machine's speed between requests.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    speed: Speedometer,
    last_probe: Instant,
    kernel_ms: f64,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every [`Tracer::span`] a plain call.
    pub fn new(enabled: bool) -> Self {
        let mut tracer = Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            speed: Speedometer::new(),
            last_probe: Instant::now(),
            kernel_ms: f64::NAN,
        };
        tracer.probe();
        tracer
    }

    /// Times the reference kernel now; returns its time in ms.
    pub fn probe(&mut self) -> f64 {
        self.kernel_ms = self.speed.burst_ms();
        self.last_probe = Instant::now();
        self.kernel_ms
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `request`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Like [`Tracer::span`], and also returns the call's wall time,
    /// measured the same way whether or not spans are recorded, with the
    /// latest kernel time. The kernel runs after the call, at most every
    /// [`PROBE_EVERY`], so that no request waits more than that for one.
    pub fn timed<T>(
        &mut self,
        name: &str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Timing) {
        let start = Instant::now();
        let out = self.span(name, request, f);
        let wall_s = start.elapsed().as_secs_f64();
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.probe();
        }
        let timing = Timing {
            wall_s,
            kernel_ms: self.kernel_ms,
        };
        (out, timing)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Per span name: calls, total ns and total self ns, sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += self_ns;
    }
    out
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, request}`.
pub fn spans_to_json(spans: &[Span]) -> JsonValue {
    JsonValue::Array(
        spans
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(s.name.clone())),
                    ("start_ns".into(), JsonValue::Number(s.start_ns as f64)),
                    ("end_ns".into(), JsonValue::Number(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                    ),
                    ("request".into(), JsonValue::Number(s.request as f64)),
                ])
            })
            .collect(),
    )
}

/// Parses [`spans_to_json`] output back into spans.
pub fn spans_from_json(value: &JsonValue) -> Result<Vec<Span>, String> {
    let items = value.as_array().ok_or("spans: expected an array")?;
    let int = |v: &JsonValue, key: &str| -> Result<u64, String> {
        let x = v
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("span: missing number `{key}`"))?;
        if x < 0.0 || x.fract() != 0.0 || x > 2f64.powi(53) {
            return Err(format!("span: `{key}` is not an exact integer"));
        }
        Ok(x as u64)
    };
    items
        .iter()
        .map(|v| {
            let parent = match v.get("parent") {
                Some(JsonValue::Null) | None => None,
                Some(_) => Some(int(v, "parent")? as usize),
            };
            Ok(Span {
                name: v
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("span: missing `name`")?
                    .to_string(),
                start_ns: int(v, "start_ns")?,
                end_ns: int(v, "end_ns")?,
                parent,
                request: int(v, "request")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) ⊃ a [10, 40) ⊃ a1 [15, 25); root ⊃ b [50, 90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_handles_overlapping_and_overhanging_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Union of children inside [0, 100): [10, 80) + [90, 100) = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_summary_adds_up() {
        let mut tracer = Tracer::new(true);
        tracer.span("root", 3, |t| {
            t.span("child", 3, |_| std::hint::black_box(1 + 1));
            t.span("child", 3, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.request == 3));
        let summary = summarize(spans);
        assert_eq!(summary["child"].0, 2);
        let (_, root_total, root_self) = summary["root"];
        assert_eq!(root_self + summary["child"].1, root_total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("root", 0, |_| 5), 5);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_json() {
        let spans = vec![
            span("session.plan", 0, 123_456_789_012, None),
            span("ordering.search_ordering", 17, 99, Some(0)),
        ];
        let text = spans_to_json(&spans).to_json();
        let parsed = dip_models::json::parse(&text).unwrap();
        assert_eq!(spans_from_json(&parsed).unwrap(), spans);
    }
}
