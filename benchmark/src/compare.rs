//! Reading result files back: `names`, `summary` and `compare`.
//!
//! A result file is what `--out` appends to: one JSON object per run,
//! `{"workload", "seed", "trace", "end_to_end", "layer", "result"}`, where
//! `result` is the last line the run printed.

use crate::catalogue::{is_exact, Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;

/// One run, read back.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The result line's metrics: end-to-end untraced, per-layer traced.
    pub metrics: BTreeMap<String, f64>,
    /// End-to-end values, which a traced run measures too.
    pub end_to_end: BTreeMap<String, f64>,
}

impl Row {
    pub fn parse(line: &str) -> Result<Row, String> {
        let doc = json::parse(line)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key:?}"));
        let result = field("result")?;
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number {key:?}"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in result.get("metrics").ok_or("missing metrics")?.entries() {
            metrics.insert(name.clone(), num(m, "value")?);
        }
        let trace = num(&doc, "trace")? != 0.0;
        let mut end_to_end = BTreeMap::new();
        match doc.get("end_to_end") {
            Some(extra) => {
                for (name, v) in extra.entries() {
                    end_to_end.insert(name.clone(), v.as_f64().ok_or("bad end_to_end value")?);
                }
            }
            None if !trace => end_to_end = metrics.clone(),
            None => {}
        }
        Ok(Row {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            seed: num(&doc, "seed")? as u64,
            trace,
            correct: result
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("missing correct")?,
            attempted: num(result, "attempted")? as u64,
            failed: num(result, "failed")? as u64,
            metrics,
            end_to_end,
        })
    }
}

fn read(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Row::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn read_all(paths: &[String]) -> Result<Vec<Vec<Row>>, String> {
    if paths.is_empty() {
        return Err("no result files given".into());
    }
    paths.iter().map(|p| read(p)).collect()
}

fn or_fail(r: Result<bool, String>) -> i32 {
    match r {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("pardict-benchmark: {why}");
            2
        }
    }
}

/// Values of one (workload, end-to-end metric) over the runs of `rows`.
fn values(rows: &[Row], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.end_to_end.get(metric).copied())
        .collect()
}

/// Every workload ran, untraced with every end-to-end metric and traced
/// with every per-layer metric, and every run was correct.
pub fn names(paths: &[String]) -> i32 {
    or_fail(read_all(paths).map(|sets| {
        let rows: Vec<Row> = sets.into_iter().flatten().collect();
        let mut ok = true;
        for w in WORKLOADS {
            for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let mine: Vec<&Row> = rows
                    .iter()
                    .filter(|r| r.workload == w && r.trace == trace)
                    .collect();
                if mine.is_empty() {
                    println!("missing: no run of {w} with trace={}", trace as u8);
                    ok = false;
                }
                for r in mine {
                    for d in defs {
                        if !r.metrics.contains_key(d.name) {
                            println!(
                                "missing: {w} trace={} did not print {}",
                                trace as u8, d.name
                            );
                            ok = false;
                        }
                    }
                    if !r.correct || r.failed > 0 {
                        println!("incorrect: {w} seed={} failed={}", r.seed, r.failed);
                        ok = false;
                    }
                }
            }
        }
        if ok {
            println!(
                "names ok: {} workloads x ({} end-to-end + {} per-layer) metrics printed",
                WORKLOADS.len(),
                END_TO_END.len(),
                PER_LAYER.len()
            );
        }
        ok
    }))
}

/// Each file is one set of runs. Prints the distribution of every
/// end-to-end metric over the sets; fails when a spread exceeds the
/// metric's bound or an exact (ledger / count) metric differs between sets.
pub fn summary(paths: &[String]) -> i32 {
    or_fail(read_all(paths).map(|sets| {
        let all: Vec<Row> = sets.iter().flatten().cloned().collect();
        let mut ok = true;
        println!(
            "{:<16} {:<12} {:>3} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8} {:>6}  verdict",
            "workload", "metric", "n", "min", "q1", "median", "q3", "max", "spread", "bound"
        );
        for w in WORKLOADS {
            for d in &END_TO_END {
                let v = values(&all, w, false, d.name);
                if v.len() < 2 {
                    println!("{w:<16} {:<12} {:>3}  (needs two sets)", d.name, v.len());
                    ok = false;
                    continue;
                }
                let [q1, q2, q3] = stats::quartiles(&v);
                let spread = stats::spread(&v);
                let (min, max) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                // `setup_s` answers to the second rule only (its median must
                // repeat); the spread rule exempts it.
                let verdict = if spread > d.bound && d.name != "setup_s" {
                    ok = false;
                    "UNSTEADY"
                } else if spread > d.bound / 3.0 {
                    "ok (above a third of the bound)"
                } else {
                    "ok"
                };
                println!(
                    "{w:<16} {:<12} {:>3} {min:>11.4} {q1:>11.4} {q2:>11.4} {q3:>11.4} \
                     {max:>11.4} {:>7.2}% {:>5.0}%  {verdict}",
                    d.name,
                    v.len(),
                    spread * 100.0,
                    d.bound * 100.0
                );
            }
        }
        let mut differing = 0;
        for w in WORKLOADS {
            for d in PER_LAYER.iter().filter(|d| is_exact(d)) {
                // Same seed in every set, so an exact metric has one value.
                let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for r in all.iter().filter(|r| r.workload == w && r.trace) {
                    if let Some(&v) = r.metrics.get(d.name) {
                        by_seed.entry(r.seed).or_default().push(v);
                    }
                }
                for (seed, v) in by_seed {
                    if v.iter().any(|&x| x != v[0]) {
                        println!("NOT EXACT: {w} {} seed={seed}: {v:?}", d.name);
                        differing += 1;
                    }
                }
            }
        }
        println!(
            "exact metrics (ledger work/depth, counts, ratio_pct): {differing} differ between sets"
        );
        let bad = all.iter().filter(|r| !r.correct || r.failed > 0).count();
        println!("runs: {} total, {bad} incorrect", all.len());
        ok && differing == 0 && bad == 0
    }))
}

/// The harness's own tracing overhead: each end-to-end metric from the
/// untraced runs of `full` beside the same metric from the traced runs of
/// `traced` (whose window is half as long, so expect more noise there).
pub fn overhead(full: &str, traced: &str) -> i32 {
    or_fail(
        read(full)
            .and_then(|a| Ok((a, read(traced)?)))
            .map(|(a, b)| {
                println!(
                    "{:<16} {:<12} {:>12} {:>12} {:>9}",
                    "workload", "metric", "untraced", "traced", "worse by"
                );
                for w in WORKLOADS {
                    for d in END_TO_END.iter().filter(|d| d.name != "setup_s") {
                        let (va, vb) = (values(&a, w, false, d.name), values(&b, w, true, d.name));
                        if va.is_empty() || vb.is_empty() {
                            continue;
                        }
                        let (ma, mb) = (stats::median(&va), stats::median(&vb));
                        println!(
                            "{w:<16} {:<12} {ma:>12.4} {mb:>12.4} {:>+8.2}%",
                            d.name,
                            worsening(d, ma, mb) * 100.0
                        );
                    }
                }
                true
            }),
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The rule of choosing-metrics §6.5: the change's median may not be worse
/// than the parent's by more than the bound; where either side's own spread
/// is wider than the bound the row is unresolved, unless every run of the
/// change reads better than every run of the parent.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
    if (spread(a) > def.bound || spread(b) > def.bound) && !all_better {
        Verdict::Unresolved
    } else if worsening(def, stats::median(a), stats::median(b)) > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One row per (workload, end-to-end metric): both medians, the change, the
/// bound, and the verdict. Fails on any regressed row.
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    or_fail(
        read(path_a)
            .and_then(|a| Ok((a, read(path_b)?)))
            .map(|(a, b)| {
                let mut regressed = 0;
                println!(
                    "{:<16} {:<12} {:>3} {:>12} {:>3} {:>12} {:>9} {:>6}  verdict",
                    "workload", "metric", "nA", "median A", "nB", "median B", "worse by", "bound"
                );
                for w in WORKLOADS {
                    for d in &END_TO_END {
                        let (va, vb) = (values(&a, w, false, d.name), values(&b, w, false, d.name));
                        if va.is_empty() || vb.is_empty() {
                            println!("{w:<16} {:<12}  (missing on one side)", d.name);
                            regressed += 1;
                            continue;
                        }
                        let (ma, mb) = (stats::median(&va), stats::median(&vb));
                        let verdict = judge(d, &va, &vb);
                        regressed += usize::from(verdict == Verdict::Regressed);
                        println!(
                    "{w:<16} {:<12} {:>3} {ma:>12.4} {:>3} {mb:>12.4} {:>+8.2}% {:>5.0}%  {}",
                    d.name,
                    va.len(),
                    vb.len(),
                    worsening(d, ma, mb) * 100.0,
                    d.bound * 100.0,
                    match verdict {
                        Verdict::Ok => "ok",
                        Verdict::Regressed => "regressed",
                        Verdict::Unresolved => "unresolved",
                    }
                );
                    }
                }
                let failed = |rows: &[Row]| rows.iter().map(|r| r.failed).sum::<u64>();
                println!("failed operations: A {} B {}", failed(&a), failed(&b));
                regressed == 0 && failed(&b) <= failed(&a)
            }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Num(266.0)),
            ("failed".into(), Json::Num(0.0)),
            (
                "metrics".into(),
                Json::Obj(vec![(
                    "p50_ms".into(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(92.013_377)),
                        ("unit".into(), Json::Str("ms".into())),
                    ]),
                )]),
            ),
        ]);
        let line = format!(
            "{{\"workload\":\"serve-mixed\",\"seed\":7,\"trace\":0,\"result\":{}}}",
            result.render()
        );
        let row = Row::parse(&line).unwrap();
        assert_eq!(row.workload, "serve-mixed");
        assert_eq!((row.seed, row.trace, row.correct), (7, false, true));
        assert_eq!((row.attempted, row.failed), (266, 0));
        assert_eq!(row.metrics["p50_ms"], 92.013_377);
        // An untraced row without the extras: its metrics are end-to-end.
        assert_eq!(row.end_to_end, row.metrics);
        assert!(Row::parse("{\"workload\":\"x\"}").is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = &END_TO_END[2]; // p50_ms, lower is better, 25 %
        assert_eq!((lower.name, lower.bound), ("p50_ms", 0.25));
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |by: f64| steady.map(|x| x * by);
        assert_eq!(judge(lower, &steady, &shifted(1.05)), Verdict::Ok);
        assert_eq!(judge(lower, &steady, &shifted(1.15)), Verdict::Ok);
        assert_eq!(judge(lower, &steady, &shifted(1.3)), Verdict::Regressed);
        assert_eq!(judge(lower, &steady, &shifted(0.5)), Verdict::Ok);
        // Spread wider than the bound: unresolved, not "unchanged"…
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(lower, &noisy, &steady), Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent.
        assert_eq!(judge(lower, &noisy, &shifted(0.5)), Verdict::Ok);

        let higher = &END_TO_END[1]; // req_per_s, higher is better
        assert_eq!(higher.name, "req_per_s");
        assert_eq!(judge(higher, &steady, &shifted(0.7)), Verdict::Regressed);
        assert_eq!(judge(higher, &steady, &shifted(1.5)), Verdict::Ok);
        assert_eq!(judge(higher, &[100.0], &[95.0]), Verdict::Ok);
    }
}
