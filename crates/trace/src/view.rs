//! Text viewer for exported traces (`pardict trace <file>`) and the
//! span-tree invariant checks shared by the test suites.

use crate::export::OwnedSpan;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Check the cost invariant: for every span with nonzero attributed work,
/// the summed costs of its children must fit inside it (span costs are
/// inclusive). Purely structural spans (zero cost) are exempt — they
/// group children without accounting for them.
///
/// # Errors
/// Names the first parent whose children over-claim work or depth.
pub fn check_costs(spans: &[OwnedSpan]) -> Result<(), String> {
    // Sums in u128: any number of u64 costs adds up exactly.
    let mut children: HashMap<(u64, u64), (u128, u128)> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            let e = children.entry((s.trace, s.parent)).or_insert((0, 0));
            e.0 += u128::from(s.work);
            e.1 += u128::from(s.depth);
        }
    }
    for s in spans {
        if s.work == 0 && s.depth == 0 {
            continue;
        }
        if let Some(&(w, d)) = children.get(&(s.trace, s.span)) {
            if w > u128::from(s.work) || d > u128::from(s.depth) {
                return Err(format!(
                    "span {:016x}/{} ({}) claims work={} depth={} but its children sum to \
                     work={w} depth={d}",
                    s.span, s.index, s.name, s.work, s.depth
                ));
            }
        }
    }
    Ok(())
}

/// Check the interval invariant: every child span must nest inside its
/// parent's `[start, end]` interval (when the parent is present in the
/// export — sampling can drop ancestors of remotely-recorded spans, and
/// ring overflow can drop anything).
///
/// # Errors
/// Names the first child that leaks outside its parent's interval.
pub fn check_nesting(spans: &[OwnedSpan]) -> Result<(), String> {
    let by_id: HashMap<(u64, u64), &OwnedSpan> =
        spans.iter().map(|s| ((s.trace, s.span), s)).collect();
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        if let Some(p) = by_id.get(&(s.trace, s.parent)) {
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "span {:016x} ({}) [{}..{}] leaks outside parent {:016x} ({}) [{}..{}]",
                    s.span, s.name, s.start, s.end, s.parent, p.name, p.start, p.end
                ));
            }
        }
    }
    Ok(())
}

struct Agg {
    count: usize,
    work: u128,
    depth: u128,
    elapsed: u128,
}

fn aggregate<'a>(
    spans: &'a [OwnedSpan],
    key: impl Fn(&'a OwnedSpan) -> Option<&'a str>,
) -> BTreeMap<&'a str, Agg> {
    let mut out: BTreeMap<&str, Agg> = BTreeMap::new();
    for s in spans {
        let Some(k) = key(s) else { continue };
        let e = out.entry(k).or_insert(Agg {
            count: 0,
            work: 0,
            depth: 0,
            elapsed: 0,
        });
        e.count += 1;
        e.work += u128::from(s.work);
        e.depth += u128::from(s.depth);
        e.elapsed += u128::from(s.end - s.start);
    }
    out
}

/// Render the full report: summary, per-stage and per-lane breakdowns,
/// the slowest-N top-level spans, and a span-tree of the slowest trace.
#[must_use]
pub fn render_report(spans: &[OwnedSpan], slowest: usize) -> String {
    let mut out = String::new();
    let ids: HashSet<(u64, u64)> = spans.iter().map(|s| (s.trace, s.span)).collect();
    let traces: HashSet<u64> = spans.iter().map(|s| s.trace).collect();
    // "Top-level" = parent absent from the export: true roots, plus spans
    // whose ancestors were sampled away or dropped. Their costs are
    // disjoint, so totals sum over exactly these.
    let tops: Vec<&OwnedSpan> = spans
        .iter()
        .filter(|s| !ids.contains(&(s.trace, s.parent)))
        .collect();
    let total_work: u128 = tops.iter().map(|s| u128::from(s.work)).sum();
    let total_depth: u128 = tops.iter().map(|s| u128::from(s.depth)).sum();
    let _ = writeln!(
        out,
        "trace export: {} spans, {} traces, {} top-level; total work {} depth {}",
        spans.len(),
        traces.len(),
        tops.len(),
        total_work,
        total_depth
    );
    let cost_line = match check_costs(spans) {
        Ok(()) => "cost invariant: ok (children sum within every costed parent)".to_string(),
        Err(e) => format!("cost invariant: VIOLATED — {e}"),
    };
    let _ = writeln!(out, "{cost_line}");

    let _ = writeln!(out, "\nper-stage:");
    let _ = writeln!(
        out,
        "  {:<16} {:>7} {:>12} {:>8} {:>10}",
        "stage", "spans", "work", "depth", "elapsed"
    );
    for (name, a) in aggregate(spans, |s| Some(s.name.as_str())) {
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>12} {:>8} {:>10}",
            name, a.count, a.work, a.depth, a.elapsed
        );
    }

    let lanes = aggregate(spans, |s| (!s.lane.is_empty()).then_some(s.lane.as_str()));
    if !lanes.is_empty() {
        let _ = writeln!(out, "\nper-lane:");
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>12} {:>8} {:>10}",
            "lane", "spans", "work", "depth", "elapsed"
        );
        for (lane, a) in lanes {
            let _ = writeln!(
                out,
                "  {:<16} {:>7} {:>12} {:>8} {:>10}",
                lane, a.count, a.work, a.depth, a.elapsed
            );
        }
    }

    let mut by_elapsed: Vec<&OwnedSpan> = tops.clone();
    by_elapsed.sort_by_key(|s| (std::cmp::Reverse(s.end - s.start), s.trace, s.span));
    let n = slowest.min(by_elapsed.len());
    let _ = writeln!(out, "\nslowest {n} top-level spans:");
    for s in &by_elapsed[..n] {
        let _ = writeln!(
            out,
            "  {:>10} ticks  {:<12} trace={:016x} work={} depth={} lane={}",
            s.end - s.start,
            s.name,
            s.trace,
            s.work,
            s.depth,
            if s.lane.is_empty() { "-" } else { &s.lane }
        );
    }

    if let Some(slowest_top) = by_elapsed.first() {
        let _ = writeln!(out, "\nspan tree (trace {:016x}):", slowest_top.trace);
        render_tree(&mut out, spans, slowest_top.trace);
    }
    out
}

/// Indentation stops growing past this many levels; deeper lines carry
/// their depth instead, so a deep chain renders in linear space.
const MAX_INDENT: usize = 32;

/// Depth-first, children in `(start, span)` order, from an explicit stack:
/// a well-formed export may nest deeper than the thread's stack. Each
/// span is rendered at most once, even under duplicate ids.
fn render_tree(out: &mut String, spans: &[OwnedSpan], trace: u64) {
    let mut in_trace: Vec<&OwnedSpan> = spans.iter().filter(|s| s.trace == trace).collect();
    in_trace.sort_by_key(|s| (s.start, s.span));
    let ids: HashSet<u64> = in_trace.iter().map(|s| s.span).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for (i, s) in in_trace.iter().enumerate() {
        if ids.contains(&s.parent) {
            children.entry(s.parent).or_default().push(i);
        } else {
            stack.push((i, 0));
        }
    }
    stack.reverse();
    let mut seen = vec![false; in_trace.len()];
    while let Some((i, depth)) = stack.pop() {
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        let s = in_trace[i];
        let pad = "  ".repeat(depth.min(MAX_INDENT) + 1);
        let deep = if depth > MAX_INDENT {
            format!("<{depth}> ")
        } else {
            String::new()
        };
        let lane = if s.lane.is_empty() {
            String::new()
        } else {
            format!(" lane={}", s.lane)
        };
        let _ = writeln!(
            out,
            "{pad}{deep}{}#{} [{}..{}] work={} depth={}{lane}",
            s.name, s.index, s.start, s.end, s.work, s.depth
        );
        if let Some(kids) = children.get(&s.span) {
            stack.extend(kids.iter().rev().map(|&k| (k, depth + 1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u64,
        parent: u64,
        name: &str,
        start: u64,
        end: u64,
        work: u64,
    ) -> OwnedSpan {
        OwnedSpan {
            trace,
            span: id,
            parent,
            name: name.to_string(),
            lane: String::new(),
            index: 0,
            start,
            end,
            work,
            depth: work,
        }
    }

    #[test]
    fn cost_invariant_catches_overclaiming_children() {
        let ok = vec![
            span(1, 10, 0, "request", 0, 10, 100),
            span(1, 11, 10, "exec", 1, 9, 60),
            span(1, 12, 10, "exec", 1, 9, 40),
        ];
        assert!(check_costs(&ok).is_ok());
        let bad = vec![
            span(1, 10, 0, "request", 0, 10, 100),
            span(1, 11, 10, "exec", 1, 9, 80),
            span(1, 12, 10, "exec", 1, 9, 40),
        ];
        assert!(check_costs(&bad).is_err());
        // Zero-cost structural parents are exempt.
        let structural = vec![
            span(1, 10, 0, "route", 0, 10, 0),
            span(1, 11, 10, "exec", 1, 9, 80),
        ];
        assert!(check_costs(&structural).is_ok());
    }

    #[test]
    fn nesting_invariant_catches_interval_leaks() {
        let ok = vec![
            span(1, 10, 0, "request", 0, 10, 1),
            span(1, 11, 10, "exec", 2, 8, 1),
        ];
        assert!(check_nesting(&ok).is_ok());
        let bad = vec![
            span(1, 10, 0, "request", 0, 10, 1),
            span(1, 11, 10, "exec", 2, 12, 1),
        ];
        assert!(check_nesting(&bad).is_err());
    }

    #[test]
    fn report_renders_sections_and_tree() {
        let spans = vec![
            span(1, 10, 0, "request", 0, 10, 100),
            span(1, 11, 10, "exec", 1, 9, 100),
            span(2, 20, 0, "request", 0, 4, 7),
        ];
        let report = render_report(&spans, 5);
        assert!(report.contains("3 spans, 2 traces"));
        assert!(report.contains("per-stage:"));
        assert!(report.contains("slowest 2 top-level spans:"));
        assert!(report.contains("span tree"));
        assert!(report.contains("exec#0 [1..9]"));
        assert!(report.contains("cost invariant: ok"));
    }

    /// A well-formed export nested far deeper than any thread stack
    /// renders every span exactly once, a self-parented duplicate id does
    /// not loop, and costs at u64::MAX neither panic nor wrap in the
    /// totals or the cost check.
    #[test]
    fn deep_chains_and_extreme_costs_render() {
        let n = 100_000u64;
        let chain: Vec<OwnedSpan> = (1..=n)
            .map(|id| span(1, id, id - 1, "link", id, 2 * n - id, n - id))
            .collect();
        let report = render_report(&chain, 1);
        let tree = &report[report.find("span tree").unwrap()..];
        assert_eq!(tree.matches("link#0").count(), n as usize);
        assert!(tree.contains(&format!("<{}> link#0 [{n}..{n}]", n - 1)));
        assert!(report.contains("cost invariant: ok"));
        // A duplicate id that names itself as parent still renders once.
        let looped = vec![
            span(4, 7, 0, "first", 0, 9, 0),
            span(4, 7, 7, "again", 1, 8, 0),
        ];
        let report = render_report(&looped, 1);
        assert_eq!(report.matches("again#0").count(), 1);

        let max = u64::MAX;
        let spans = vec![
            span(2, 1, 0, "request", 0, max, max),
            span(2, 2, 1, "exec", 0, max, max),
            span(2, 3, 1, "exec", 0, max, max),
            span(3, 4, 0, "request", 0, max, max),
        ];
        let report = render_report(&spans, 5);
        let twice = 2 * u128::from(max);
        assert!(report.contains(&format!("total work {twice} depth {twice}")));
        assert!(report.contains("cost invariant: VIOLATED"));
        assert!(check_costs(&spans[1..]).is_ok());
    }
}
