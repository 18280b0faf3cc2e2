//! Harness-side spans for the traced run: one span around every call into
//! a layer, kept in memory and written at exit as Chrome trace-event JSON
//! (the shape `pcq-analyze run --trace` emits, loadable in Perfetto).
//! Spans *inside* the program are a later change.

use std::time::{Duration, Instant};

use crate::json::quote;

/// Index of a span in its [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    workload: &'static str,
    /// Which pass over the probes the span belongs to: spans of one pass
    /// share the identifier.
    pass: usize,
}

/// Records nested spans on one thread against a common origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    workload: &'static str,
    pass: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            pass: 0,
        }
    }

    /// Tags the spans that follow with their workload and pass.
    pub fn begin_pass(&mut self, workload: &'static str, pass: usize) {
        self.workload = workload;
        self.pass = pass;
    }

    /// Runs `body` inside a span named `name`, child of whichever span is
    /// open; `body` gets the recorder back so it can open children.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Recorder) -> T) -> (T, SpanId) {
        let id = SpanId(self.spans.len());
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            workload: self.workload,
            pass: self.pass,
        });
        self.open.push(id);
        let value = body(self);
        self.open.pop();
        self.spans[id.0].end = self.origin.elapsed();
        (value, id)
    }

    /// Runs `body` in a leaf span and returns its value and the span's
    /// time in seconds — the common case of timing one call into a layer.
    /// `body` cannot open children, so the duration *is* the self time.
    pub fn time<T>(&mut self, name: &str, body: impl FnOnce() -> T) -> (T, f64) {
        let (value, id) = self.span(name, |_| body());
        (value, self.duration(id).as_secs_f64())
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        self.spans[id.0].end - self.spans[id.0].start
    }

    /// A span's duration minus the part of it its direct children cover:
    /// the time spent in the span's own layer.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        self.duration(id).saturating_sub(children)
    }

    /// The recorded spans as a Chrome trace-event document: a header
    /// line, one event per line, a footer line ([`merge_traces`] relies on
    /// that layout).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
                format!(
                    "{{\"name\": {}, \"cat\": \"benchmark\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 0, \"tid\": 0, \"args\": {{\"id\": {id}, \
                     \"parent\": {parent}, \"workload\": {}, \"pass\": {}}}}}",
                    quote(&s.name),
                    s.start.as_secs_f64() * 1e6,
                    (s.end - s.start).as_secs_f64() * 1e6,
                    quote(s.workload),
                    s.pass,
                )
            })
            .collect();
        format!("{TRACE_HEADER}\n{}\n{TRACE_FOOTER}\n", events.join(",\n"))
    }
}

const TRACE_HEADER: &str = "{\"traceEvents\": [";
const TRACE_FOOTER: &str = "], \"displayTimeUnit\": \"ms\"}";

/// Joins documents written by [`Recorder::chrome_trace`] into one. Each
/// came from a process of its own, so their clocks all start at zero; the
/// events of the `n`-th document move to `pid` n to get a lane each.
pub fn merge_traces(documents: &[String]) -> String {
    let events: Vec<String> = documents
        .iter()
        .enumerate()
        .flat_map(|(lane, document)| {
            document
                .lines()
                .filter(|line| line.starts_with("{\"name\""))
                .map(move |line| {
                    line.trim_end_matches(',')
                        .replace("\"pid\": 0,", &format!("\"pid\": {lane},"))
                })
        })
        .collect();
    format!("{TRACE_HEADER}\n{}\n{TRACE_FOOTER}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn busy(duration: Duration) {
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut rec = Recorder::new();
        let mut inner = None;
        let mut leaf = None;
        let ((), outer) = rec.span("outer", |rec| {
            busy(Duration::from_millis(4));
            let ((), id) = rec.span("inner", |rec| {
                busy(Duration::from_millis(6));
                leaf = Some(rec.span("leaf", |_| busy(Duration::from_millis(8))).1);
            });
            inner = Some(id);
        });
        let (inner, leaf) = (inner.unwrap(), leaf.unwrap());
        // outer = 4 own + inner(6 own + leaf 8): only inner is subtracted.
        assert_eq!(
            rec.self_time(outer),
            rec.duration(outer) - rec.duration(inner)
        );
        assert_eq!(
            rec.self_time(inner),
            rec.duration(inner) - rec.duration(leaf)
        );
        assert_eq!(rec.self_time(leaf), rec.duration(leaf));
        assert!(rec.self_time(outer) >= Duration::from_millis(4));
        assert!(rec.self_time(outer) < Duration::from_millis(10));
        assert!(rec.duration(outer) >= Duration::from_millis(18));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parent_links() {
        let mut rec = Recorder::new();
        rec.begin_pass("w\"1", 2);
        rec.span("a", |rec| {
            rec.time("b", || ());
        });
        let doc = Json::parse(&rec.chrome_trace()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("args.parent"), Some(&Json::Null));
        assert_eq!(events[1].get("args.parent"), Some(&Json::Number(0.0)));
        assert_eq!(events[1].get("name"), Some(&Json::String("b".to_string())));
        assert_eq!(
            events[1].get("args.workload"),
            Some(&Json::String("w\"1".to_string()))
        );
        assert_eq!(events[1].get("args.pass"), Some(&Json::Number(2.0)));
    }

    #[test]
    fn merged_traces_keep_every_event_on_a_lane_per_document() {
        let document = |names: &[&str]| {
            let mut rec = Recorder::new();
            for name in names {
                rec.time(name, || ());
            }
            rec.chrome_trace()
        };
        let merged = merge_traces(&[document(&["a", "b"]), document(&[]), document(&["c"])]);
        let doc = Json::parse(&merged).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let lanes: Vec<_> = events
            .iter()
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap(),
                    e.get("pid").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(lanes, [("a", 0.0), ("b", 0.0), ("c", 2.0)]);
    }
}
