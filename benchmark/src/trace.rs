//! Spans of the replay: kept in memory while it runs, summed per
//! request afterwards, written out as JSON lines at the end.

use crate::json::Json;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Where the adapter reports the spans it times around calls into the
/// repository.
pub trait SpanSink {
    fn span(&mut self, name: &str, start: Instant, end: Instant);
}

/// Requests whose spans are written to the trace file; later ones are
/// still measured.
const WRITTEN_REQUESTS: u64 = 2000;

struct Span {
    /// Index of the request's root span; a root is its own parent.
    parent: u32,
    request: u64,
    name: u16,
    start_ns: u64,
    end_ns: u64,
}

pub struct Trace {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    /// Root span of the request being traced.
    root: Option<u32>,
}

/// The traced requests in microseconds. The parts are means, so that
/// they add up to the mean request and a workload of cheap and dear
/// requests (cache hits and misses) is charged for both.
pub struct TraceSummary {
    pub requests: usize,
    pub request_mean_us: f64,
    pub source_poll_us: f64,
    /// Sum of the request's `step` spans: the work.
    pub flow_us: f64,
    pub drain_us: f64,
    /// Child spans' total over the requests' wall time: what share of a
    /// request the spans account for.
    pub span_sum_share: f64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            names: vec!["request".into()],
            spans: Vec::new(),
            root: None,
        }
    }

    fn name_index(&mut self, name: &str) -> u16 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u16
            }
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Opens the root span of request `request`; spans reported until
    /// [`Trace::end_request`] are its children.
    pub fn begin_request(&mut self, request: u64, start: Instant) {
        let index = self.spans.len() as u32;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            parent: index,
            request,
            name: 0,
            start_ns,
            end_ns: start_ns,
        });
        self.root = Some(index);
    }

    pub fn end_request(&mut self, end: Instant) {
        if let Some(root) = self.root.take() {
            self.spans[root as usize].end_ns = self.ns(end);
        }
    }

    pub fn summarize(&self) -> TraceSummary {
        let source_poll = self.names.iter().position(|n| n == "source_poll");
        let drain = self.names.iter().position(|n| n == "drain");
        let send = self.names.iter().position(|n| n == "send");
        let (mut requests, mut wall_total, mut child_total) = (0usize, 0u64, 0u64);
        let mut totals = [0u64; 3];
        let mut i = 0;
        while i < self.spans.len() {
            let root = &self.spans[i];
            let mut j = i + 1;
            while j < self.spans.len() && self.spans[j].parent == i as u32 {
                let s = &self.spans[j];
                let d = s.end_ns - s.start_ns;
                child_total += d;
                let name = Some(s.name as usize);
                if name == source_poll {
                    totals[0] += d;
                } else if name == drain {
                    totals[2] += d;
                } else if name != send {
                    totals[1] += d;
                }
                j += 1;
            }
            wall_total += root.end_ns - root.start_ns;
            requests += 1;
            i = j;
        }
        let mean_us = |total_ns: u64| total_ns as f64 / 1e3 / requests.max(1) as f64;
        TraceSummary {
            requests,
            request_mean_us: mean_us(wall_total),
            source_poll_us: mean_us(totals[0]),
            flow_us: mean_us(totals[1]),
            drain_us: mean_us(totals[2]),
            span_sum_share: child_total as f64 / wall_total.max(1) as f64,
        }
    }

    /// Writes `header` and then one span per line: `id`, `parent` (the
    /// request's root span; a root names itself), `request`, `name`,
    /// `start_ns` and `end_ns` since the trace began.
    pub fn write_jsonl(&self, path: &Path, header: Json) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header.render())?;
        for (id, s) in self.spans.iter().enumerate() {
            if s.request >= WRITTEN_REQUESTS {
                break;
            }
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("request", Json::Num(s.request as f64)),
                ("name", Json::str(self.names[s.name as usize].as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

impl SpanSink for Trace {
    fn span(&mut self, name: &str, start: Instant, end: Instant) {
        let Some(root) = self.root else {
            return;
        };
        let name = self.name_index(name);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let request = self.spans[root as usize].request;
        self.spans.push(Span {
            parent: root,
            request,
            name,
            start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_sum_per_request_and_self_time_is_the_rest() {
        let mut t = Trace::new();
        let t0 = t.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        for r in 0..3u64 {
            let base = r * 1000;
            t.begin_request(r, at(base));
            t.span("send", at(base), at(base + 10));
            t.span("source_poll", at(base + 10), at(base + 40));
            t.span("ReadRequest", at(base + 40), at(base + 60));
            t.span("step", at(base + 60), at(base + 61));
            t.span("Write+1", at(base + 61), at(base + 70));
            t.span("drain", at(base + 70), at(base + 95));
            t.end_request(at(base + 100));
        }
        // Outside any request: dropped.
        t.span("step", at(5000), at(5001));
        let s = t.summarize();
        assert_eq!(s.requests, 3);
        assert_eq!(s.request_mean_us, 100.0);
        assert_eq!(s.source_poll_us, 30.0);
        assert_eq!(s.flow_us, 30.0);
        assert_eq!(s.drain_us, 25.0);
        assert!((s.span_sum_share - 0.95).abs() < 1e-9);
    }

    #[test]
    fn trace_file_has_a_header_and_one_span_per_line() {
        let mut t = Trace::new();
        let t0 = t.epoch;
        t.begin_request(0, t0);
        t.span("drain", t0, t0 + Duration::from_nanos(500));
        t.end_request(t0 + Duration::from_nanos(700));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path, Json::obj([("workload", Json::str("x"))]))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("workload").and_then(Json::as_str), Some("x"));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("request"));
        assert_eq!(lines[1].get("end_ns").and_then(Json::as_f64), Some(700.0));
        assert_eq!(lines[2].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[2].get("name").and_then(Json::as_str), Some("drain"));
    }
}
