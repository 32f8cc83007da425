//! The harness's own span recorder.
//!
//! Every call the harness makes into a product layer goes through
//! [`Recorder::timed`], which always returns the call's wall time (so the
//! end-to-end numbers of an untraced run need nothing else) and, when
//! tracing is on, also keeps a span in memory. Spans are written out once,
//! at exit. A layer's wall time is its span's *self time*: duration minus
//! the part of that interval its child spans cover.

use pardict_pram::Cost;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Non-zero; 0 means "no parent".
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub iteration: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ledger cost of the call, when the harness could meter it.
    pub work: u64,
    pub depth: u64,
    /// One count made at the same boundary (hits, bytes, blocks…).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a timed call reports beside its result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Note {
    pub cost: Cost,
    pub count: u64,
}

impl From<Cost> for Note {
    fn from(cost: Cost) -> Self {
        Self { cost, count: 0 }
    }
}

/// Forks number their spans from `lane << FORK_SHIFT`, so a parent can
/// absorb them without renumbering.
const FORK_SHIFT: u32 = 24;

/// In-memory span store for one thread of the harness.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
    /// Parent id given to roots opened here (non-zero in a fork).
    root_parent: u32,
    next_id: u32,
    /// Stamped on every span opened from now on.
    pub iteration: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            root_parent: 0,
            next_id: 1,
            iteration: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f`; returns its result and wall milliseconds. With tracing on,
    /// the call becomes a span nested under whatever span is open.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        self.timed_note(name, |rec| (f(rec), Note::default()))
    }

    /// [`Recorder::timed`] for calls that also yield a ledger cost or count.
    pub fn timed_note<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> (R, Note),
    ) -> (R, f64) {
        if !self.on {
            let t0 = Instant::now();
            let (r, _) = f(self);
            return (r, t0.elapsed().as_secs_f64() * 1e3);
        }
        let parent = self
            .open
            .last()
            .map_or(self.root_parent, |&i| self.spans[i].id);
        let idx = self.spans.len();
        self.spans.push(Span {
            id: self.next_id,
            parent,
            name,
            iteration: self.iteration,
            start_ns: self.now_ns(),
            end_ns: 0,
            work: 0,
            depth: 0,
            count: 0,
        });
        self.next_id += 1;
        self.open.push(idx);
        let (r, note) = f(self);
        self.open.pop();
        let end = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.work = note.cost.work;
        s.depth = note.cost.depth;
        s.count = note.count;
        let ms = s.duration_ns() as f64 / 1e6;
        (r, ms)
    }

    /// A recorder for another thread: same clock origin and on/off state,
    /// its roots parented under this recorder's innermost open span. `lane`
    /// (1-based) keeps ids disjoint between sibling forks.
    pub fn fork(&self, lane: u32) -> Recorder {
        Recorder {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            root_parent: self.open.last().map_or(0, |&i| self.spans[i].id),
            next_id: (lane << FORK_SHIFT) + 1,
            iteration: self.iteration,
        }
    }

    /// Take a fork's finished spans back.
    pub fn absorb(&mut self, fork: Recorder) {
        debug_assert!(fork.open.is_empty(), "absorbing a fork with open spans");
        self.spans.extend(fork.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds, keyed by span id: duration
/// minus the union of its children's intervals (clipped to the span, so
/// children running on other threads in parallel are not double-counted).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut kids: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u32, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if a < b {
                kids.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(iv) = kids.get_mut(&s.id) {
                iv.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in iv.iter() {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Self times in milliseconds of every span called `name`, in span order.
pub fn self_ms_of(spans: &[Span], selfs: &HashMap<u32, u64>, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect()
}

/// One JSON object per span, in start order.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::new();
    for s in order {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"iteration\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"work\":{},\"depth\":{},\"count\":{}}}",
            s.id,
            s.parent,
            workload,
            s.iteration,
            s.name,
            s.start_ns,
            s.end_ns,
            s.work,
            s.depth,
            s.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            iteration: 0,
            start_ns,
            end_ns,
            work: 0,
            depth: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 15, 25),
            span(4, 1, 50, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 40);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 40);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two client threads under one window span, overlapping in time.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90)];
        assert_eq!(self_times(&spans)[&1], 100 - 80);
    }

    #[test]
    fn attribution_closes_on_a_recorded_tree() {
        let mut rec = Recorder::new(true);
        rec.timed("root", |rec| {
            rec.timed("a", |rec| {
                rec.timed("a1", |_| std::hint::black_box((0..2000u64).sum::<u64>()));
                rec.timed("a2", |_| std::hint::black_box((0..2000u64).sum::<u64>()));
            });
            rec.timed("b", |_| std::hint::black_box((0..2000u64).sum::<u64>()));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.parent, 0);
        // Σ self times over the tree = the root's duration, exactly.
        let total: u64 = self_times(spans).values().sum();
        assert_eq!(total, root.duration_ns());
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let (v, ms) = rec.timed("x", |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn forks_nest_under_the_open_span_with_disjoint_ids() {
        let mut rec = Recorder::new(true);
        rec.timed("window", |rec| {
            let mut forks: Vec<Recorder> = (1..=2).map(|lane| rec.fork(lane)).collect();
            for f in &mut forks {
                f.timed("op", |_| ());
            }
            for f in forks {
                rec.absorb(f);
            }
        });
        let spans = rec.spans();
        let window = spans.iter().find(|s| s.name == "window").unwrap().id;
        let ops: Vec<&Span> = spans.iter().filter(|s| s.name == "op").collect();
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|s| s.parent == window));
        assert_ne!(ops[0].id, ops[1].id);
        let line = to_jsonl("w", spans);
        assert_eq!(line.lines().count(), 3);
        assert!(line.starts_with("{\"id\":1,\"parent\":0,\"workload\":\"w\""));
    }
}
