//! Span recorder for the traced run. Every call the benchmark makes into
//! a layer can be wrapped in [`Tracer::time`]; with tracing on it keeps,
//! per span name, the call count, the nanoseconds inside the call, and
//! the heap allocations the call made. Everything stays in memory until
//! the run prints it. With tracing off, `time` is a plain call.
//!
//! Phases ([`Tracer::begin`]/[`Tracer::end`]) are timed in both modes:
//! their wall time is what the end-to-end metrics are made of. With
//! tracing on, a phase also records how much of its wall time the
//! outermost spans inside it covered.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

/// Wall time of a phase and the part of it spent inside outermost spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCover {
    pub wall_ns: u64,
    pub covered_ns: u64,
}

pub struct Tracer {
    on: bool,
    depth: u32,
    /// Running total of outermost-span nanoseconds.
    covered: u64,
    /// Span names in first-seen order; looked up by the address of the
    /// name literal first, which keeps a traced call cheap.
    spans: Vec<(&'static str, Span)>,
    phases: BTreeMap<&'static str, PhaseCover>,
}

/// A span opened by [`Tracer::start`]; empty when tracing is off.
pub struct OpenSpan(Option<(Instant, u64)>);

/// An open phase, returned by [`Tracer::begin`].
pub struct PhaseStart {
    at: Instant,
    covered: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            depth: 0,
            covered: 0,
            spans: Vec::new(),
            phases: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` as one call into the layer `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.start();
        let r = f();
        self.stop(open, name);
        r
    }

    /// Open a span by hand, for a call whose callee calls back into code
    /// that records spans of its own (a simulator loop and its handler).
    #[inline]
    pub fn start(&mut self) -> OpenSpan {
        if !self.on {
            return OpenSpan(None);
        }
        self.depth += 1;
        let a0 = alloc::count();
        OpenSpan(Some((Instant::now(), a0)))
    }

    #[inline]
    pub fn stop(&mut self, open: OpenSpan, name: &'static str) {
        let Some((t0, a0)) = open.0 else {
            return;
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::count() - a0;
        self.depth -= 1;
        if self.depth == 0 {
            self.covered += ns;
        }
        let i = match self
            .spans
            .iter()
            .position(|(k, _)| std::ptr::eq(k.as_ptr(), name.as_ptr()) && k.len() == name.len())
        {
            Some(i) => i,
            None => self.slot(name),
        };
        let s = &mut self.spans[i].1;
        s.calls += 1;
        s.ns += ns;
        s.allocs += allocs;
    }

    /// Index of the span called `name`, added if new (the same name may
    /// live at several addresses).
    #[cold]
    fn slot(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.spans.iter().position(|(k, _)| *k == name) {
            return i;
        }
        self.spans.push((name, Span::default()));
        self.spans.len() - 1
    }

    pub fn begin(&self) -> PhaseStart {
        PhaseStart {
            at: Instant::now(),
            covered: self.covered,
        }
    }

    /// Close a phase; returns its wall time in seconds.
    pub fn end(&mut self, start: PhaseStart, name: &'static str) -> f64 {
        let wall = start.at.elapsed();
        if self.on {
            let p = self.phases.entry(name).or_default();
            p.wall_ns += wall.as_nanos() as u64;
            p.covered_ns += self.covered - start.covered;
        }
        wall.as_secs_f64()
    }

    pub fn span(&self, name: &str) -> Span {
        let mut t = Span::default();
        for (k, s) in &self.spans {
            if *k == name {
                t.calls += s.calls;
                t.ns += s.ns;
                t.allocs += s.allocs;
            }
        }
        t
    }

    /// Sum of every span whose name starts with `prefix`.
    pub fn sum(&self, prefix: &str) -> Span {
        let mut t = Span::default();
        for (k, s) in &self.spans {
            if k.starts_with(prefix) {
                t.calls += s.calls;
                t.ns += s.ns;
                t.allocs += s.allocs;
            }
        }
        t
    }

    pub fn spans(&self) -> &[(&'static str, Span)] {
        &self.spans
    }

    pub fn phases(&self) -> &BTreeMap<&'static str, PhaseCover> {
        &self.phases
    }

    /// What one traced call adds to the span around it beyond the callee's
    /// own time: the clock reads, allocation-counter reads and bookkeeping.
    /// Measured on a no-op callee; used to take nested-span cost out of a
    /// parent span's self time.
    pub fn call_overhead_ns() -> f64 {
        let mut probe = Tracer::new(true);
        const N: u32 = 20_000;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..N {
                probe.time("probe", || std::hint::black_box(()));
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(N));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_do_not_count_twice_toward_cover() {
        let mut t = Tracer::new(true);
        let p = t.begin();
        t.time("outer", || ());
        let wall = t.end(p, "phase");
        assert!(wall >= 0.0);
        let outer = t.span("outer");
        assert_eq!(outer.calls, 1);
        assert_eq!(t.phases()["phase"].covered_ns, outer.ns);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 7), 7);
        assert!(t.spans().is_empty());
        let p = t.begin();
        t.end(p, "phase");
        assert!(t.phases().is_empty());
    }
}
