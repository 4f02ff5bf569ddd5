//! In-memory spans around the harness's calls into each layer, written to
//! `bench/out/trace.json` when a traced run ends.
//!
//! Spans are recorded from this package's own files; spans inside the
//! program are a later change. A run has one tracer, on its main thread.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `trace.json` holds at most this many spans in full (the per-name totals
/// beside them always cover every span recorded).
const MAX_WRITTEN_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that caused this one, 0 for none.
    pub parent: u32,
    /// Spans of one request (or one mining candidate) share this, 0 for none.
    pub request: u32,
}

/// Per-name totals: how often, how long, and how long outside child spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of a run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds since the epoch, for [`Tracer::record`].
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Makes room for `more` spans, so recording them does not reallocate.
    pub fn reserve(&mut self, more: usize) {
        self.spans.reserve(more);
    }

    /// Starts a span and returns its id (for `parent` and [`Tracer::close`]).
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    /// Adds a finished span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u32,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// A layer's self time is its spans' duration minus the part their child
    /// spans cover (children of one parent do not overlap here: the tracer
    /// is single-threaded).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes `{"spans_recorded", "spans_written", "totals": {name: {count,
    /// total_ns, self_ns}}, "spans": [[id, name, start_ns, end_ns, parent,
    /// request], …]}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(MAX_WRITTEN_SPANS);
        write!(
            w,
            "{{\"spans_recorded\":{},\"spans_written\":{written},\"totals\":{{",
            self.spans.len()
        )?;
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        write!(w, "}},\n\"spans\":[")?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\n[{},\"{}\",{},{},{},{}]",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut a = Tracer::new(Instant::now());
        a.spans.push(Span {
            name: "request",
            start_ns: 0,
            end_ns: 100,
            parent: 0,
            request: 1,
        });
        a.spans.push(Span {
            name: "send",
            start_ns: 10,
            end_ns: 30,
            parent: 1,
            request: 1,
        });
        a.spans.push(Span {
            name: "wait",
            start_ns: 30,
            end_ns: 90,
            parent: 1,
            request: 1,
        });
        a.spans.push(Span {
            name: "request",
            start_ns: 100,
            end_ns: 150,
            parent: 0,
            request: 2,
        });
        a.spans.push(Span {
            name: "send",
            start_ns: 100,
            end_ns: 150,
            parent: 4,
            request: 2,
        });
        let t = a.totals();
        assert_eq!(
            t["request"],
            NameTotal {
                count: 2,
                total_ns: 150,
                self_ns: 20
            }
        );
        assert_eq!(
            t["send"],
            NameTotal {
                count: 2,
                total_ns: 70,
                self_ns: 70
            }
        );
        assert_eq!(t["wait"].count, 1);
    }

    #[test]
    fn written_trace_parses_back() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.open("outer", 0, 7);
        t.time("inner", outer, 7, || std::hint::black_box(1 + 1));
        t.close(outer);
        let path =
            std::env::temp_dir().join(format!("tc-chain-bench-trace-{}.json", std::process::id()));
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = tc_util::json::parse(&text).unwrap();
        assert_eq!(v.get("spans_recorded").and_then(|n| n.as_num()), Some(2.0));
        let spans = v.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans[1].as_arr().unwrap()[4].as_num(), Some(1.0));
        assert!(v.get("totals").and_then(|t| t.get("inner")).is_some());
    }
}
