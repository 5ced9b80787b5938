//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The crates carry no spans of their own yet, so the tracer sits outside
//! them: a span is opened before a public function is called and closed
//! when it returns. Spans stay in memory until the run ends and are then
//! written as one JSON object per line (`out/trace-<workload>.jsonl`).

use crate::stats::best_of;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes the span that caused it; `op` is the
/// script position all spans of one operation share.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `kstroll.all_targets`.
    pub name: &'static str,
    /// Traced round the span belongs to (0-based).
    pub round: u32,
    /// Script position of the op the span belongs to, if any.
    pub op: Option<u32>,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds from the tracer's origin to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the span's end.
    pub end_ns: u64,
}

/// An in-memory span recorder for one driver thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`. Driver threads of one
    /// run share the origin so their spans line up after [`Tracer::absorb`].
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: true,
            origin,
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: [`Tracer::span`] only calls through.
    /// Untraced rounds run with this one, so both kinds of round share
    /// their code.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer for another driver thread of the same run and round.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            round: self.round,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Marks the start of traced round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f` inside a span. Spans opened by `f` through the tracer it is
    /// handed become children of this one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            round: self.round,
            op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = self.origin.elapsed();
        let result = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        result
    }

    /// Records a span whose ends the caller timed itself (a phase that
    /// starts and ends on other threads).
    pub fn record(&mut self, name: &'static str, op: Option<u32>, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            round: self.round,
            op,
            parent: self.open.last().copied(),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
    }

    /// Appends the spans of a forked tracer, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans, in opening order per thread.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds spent in spans called `name`, per op: within a round
    /// the durations of one op's spans add up (a layer called once per
    /// source is one number per op), across rounds the minimum is kept.
    /// `ops` is the script length; ops without such a span read 0.
    pub fn op_ms(&self, name: &str, ops: usize) -> Vec<f64> {
        let rounds = self.spans.iter().map(|s| s.round + 1).max().unwrap_or(0);
        let mut per_round = vec![vec![0.0; ops]; rounds as usize];
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(op) = s.op {
                per_round[s.round as usize][op as usize] += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
        if per_round.is_empty() {
            return vec![0.0; ops];
        }
        best_of(per_round.iter().map(Vec::as_slice))
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any failure creating, writing or flushing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"round\":{},\"op\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.round,
                opt(s.op),
                opt(s.parent),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_absorb_rebases_them() {
        let mut t = Tracer::new(Instant::now());
        t.span("round", None, |t| {
            t.span("op", Some(0), |t| t.span("layer", Some(0), |_| ()));
            t.span("op", Some(1), |_| ());
        });
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut other = t.fork();
        other.span("round", None, |o| o.span("op", Some(2), |_| ()));
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, None);
        assert_eq!(t.spans()[5].parent, Some(4));
    }

    #[test]
    fn op_ms_sums_within_a_round_and_keeps_the_best_round() {
        let span = |round, op, start_ns, end_ns| Span {
            name: "layer",
            round,
            op: Some(op),
            parent: None,
            start_ns,
            end_ns,
        };
        let t = Tracer {
            on: true,
            origin: Instant::now(),
            round: 1,
            open: Vec::new(),
            spans: vec![
                span(0, 0, 0, 2_000_000),
                span(0, 0, 5_000_000, 6_000_000), // second call of op 0: 2 + 1 = 3 ms
                span(0, 1, 0, 4_000_000),
                span(1, 0, 0, 5_000_000),
                span(1, 1, 0, 1_000_000),
            ],
        };
        assert_eq!(t.op_ms("layer", 3), vec![3.0, 1.0, 0.0]);
        assert_eq!(t.op_ms("absent", 2), vec![0.0, 0.0]);
    }
}
