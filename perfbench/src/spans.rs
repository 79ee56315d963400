//! In-memory spans for the traced run: one span per benchmark call into
//! a layer, with a name, start, end, parent, and a run id shared by the
//! spans of one simulation run. Written out as Chrome trace JSON when
//! the traced run ends; self time is a span's duration minus the part
//! of it its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span (times in ns since the recorder started).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `runner.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Simulation run the span belongs to (0: not one run).
    pub run: u64,
    /// Benchmark thread that recorded it.
    pub tid: u32,
}

const POISONED: &str = "a benchmark thread panicked while recording a span";

/// Thread-safe span recorder.
pub struct Spans {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id, to pass as
    /// the parent of nested spans.
    pub fn record<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        tid: u32,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut s = self.spans.lock().expect(POISONED);
            s.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run,
                tid,
            });
            s.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect(POISONED)[id].end_ns = end;
        out
    }

    /// All spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect(POISONED).clone()
    }
}

/// Self time per span name in ms: each span's duration minus the union
/// of its direct children's intervals, summed by name.
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Chrome trace JSON (complete events, µs) of the spans.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"run\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.run,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 30, 60, Some(0)),
            span("b", 15, 20, Some(1)),
        ];
        let t = self_ms(&spans);
        // Children of root cover 10..60, so root keeps 50 ns.
        assert!((t["root"] - 50e-6).abs() < 1e-12);
        // The first a loses b's 5 ns; the second keeps all 30.
        assert!((t["a"] - 55e-6).abs() < 1e-12);
        assert!((t["b"] - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let s = Spans::default();
        s.record("outer", None, 0, 0, |id| {
            s.record("inner", Some(id), 7, 0, |_| ());
        });
        let spans = s.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_json(&spans);
        let v = serde_json::from_str(&json).expect("chrome json parses");
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }
}
