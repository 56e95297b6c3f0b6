//! In-memory spans around every call the harness makes into a layer.
//!
//! A span carries both clocks: host wall nanoseconds and simulated
//! microseconds. Spans nest by call structure (the recorder keeps a
//! stack), so a span's *self* time is its duration minus the part its
//! direct children cover, and the self times of a tree add up to the
//! root's duration exactly. With the recorder off, `call` runs the
//! closure and nothing else: end-to-end metrics are measured that way.

use std::collections::BTreeMap;

use hl_sim::time::SimTime;
use hl_sim::Clock;

use crate::clock::HostClock;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `lfs.write`.
    pub name: &'static str,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// Harness-assigned operation id (all spans of one op share it).
    pub op: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start: SimTime,
    pub sim_end: SimTime,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
    pub fn sim_us(&self) -> SimTime {
        self.sim_end - self.sim_start
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    /// Host time including children.
    pub host_ns: u64,
    /// Host time excluding children.
    pub host_self_ns: u64,
    /// Simulated time including children.
    pub sim_us: u64,
    /// Simulated time excluding children.
    pub sim_self_us: u64,
}

pub struct Recorder<'c> {
    host: &'c HostClock,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl<'c> Recorder<'c> {
    pub fn new(host: &'c HostClock, on: bool) -> Recorder<'c> {
        Recorder {
            host,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (or bare, with the recorder
    /// off). `sim` is the simulated clock `f` advances.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        op: u64,
        sim: &Clock,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.enter(name, op, sim.now());
        let out = f();
        self.exit(id, sim.now());
        out
    }

    /// Opens a span the caller closes with [`Recorder::exit`]; for spans
    /// that enclose other harness code (the root of a phase).
    pub fn enter(&mut self, name: &'static str, op: u64, sim_now: SimTime) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.host.wall_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            host_start_ns: now,
            host_end_ns: now,
            sim_start: sim_now,
            sim_end: sim_now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize, sim_now: SimTime) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].host_end_ns = self.host.wall_ns();
        self.spans[id].sim_end = sim_now;
    }

    /// Hands the recorded spans over and starts afresh.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span is still open");
        std::mem::take(&mut self.spans)
    }
}

/// `(host self ns, simulated self µs)` of every span: its duration minus
/// what its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut own: Vec<(u64, u64)> = spans.iter().map(|s| (s.host_ns(), s.sim_us())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p].0 -= s.host_ns();
            own[p].1 -= s.sim_us();
        }
    }
    own
}

/// Totals per span name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, (host_self, sim_self)) in spans.iter().zip(own) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.host_ns += s.host_ns();
        a.host_self_ns += host_self;
        a.sim_us += s.sim_us();
        a.sim_self_us += sim_self;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, host: (u64, u64), sim: (u64, u64)) -> Span {
        Span {
            name,
            parent,
            op: 0,
            host_start_ns: host.0,
            host_end_ns: host.1,
            sim_start: sim.0,
            sim_end: sim.1,
        }
    }

    /// root 0..100 ├ a 10..40 ├ b 50..90 │ └ c 60..70
    fn tree() -> Vec<Span> {
        vec![
            span("root", None, (0, 100), (0, 1000)),
            span("a", Some(0), (10, 40), (0, 300)),
            span("b", Some(0), (50, 90), (300, 1000)),
            span("c", Some(2), (60, 70), (400, 500)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let own = self_times(&tree());
        assert_eq!(own, vec![(30, 0), (30, 300), (30, 600), (10, 100)]);
        // The grandchild is charged to its parent only, so self times add
        // up to the root's duration on both clocks.
        assert_eq!(own.iter().map(|o| o.0).sum::<u64>(), 100);
        assert_eq!(own.iter().map(|o| o.1).sum::<u64>(), 1000);
    }

    #[test]
    fn aggregate_groups_by_name() {
        let mut spans = tree();
        spans.push(span("a", Some(0), (90, 95), (1000, 1000)));
        let agg = aggregate(&spans);
        assert_eq!(agg["a"].calls, 2);
        assert_eq!(agg["a"].host_ns, 35);
        assert_eq!(agg["a"].host_self_ns, 35);
        assert_eq!(agg["root"].host_self_ns, 25);
        assert_eq!(agg["b"].sim_us, 700);
        assert_eq!(agg["b"].sim_self_us, 600);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_is_inert_when_off() {
        let host = HostClock::new();
        let sim = Clock::new();
        let mut rec = Recorder::new(&host, true);
        let root = rec.enter("root", 7, sim.now());
        let got = rec.call("leaf", 7, &sim, || {
            sim.advance_by(5);
            42
        });
        rec.exit(root, sim.now());
        assert_eq!(got, 42);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].sim_us(), 5);
        assert!(spans[0].host_start_ns <= spans[1].host_start_ns);
        assert!(spans[1].host_end_ns <= spans[0].host_end_ns);

        let mut off = Recorder::new(&host, false);
        let id = off.enter("root", 0, 0);
        assert_eq!(off.call("leaf", 0, &sim, || 1), 1);
        off.exit(id, 0);
        assert!(off.take().is_empty());
    }
}
