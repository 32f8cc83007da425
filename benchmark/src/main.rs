//! The pardict benchmark.
//!
//! `pardict-benchmark --workload W --seed N --seconds S --trace 0|1` runs
//! one workload in this process, checks its outputs, prints every metric by
//! name with unit and sample count, and ends with one JSON result line.
//! `manifest`, `compare`, `summary` and `names` are the helpers `run.sh`
//! builds its modes from. See README.md.

mod catalogue;
mod compare;
mod gen;
mod json;
mod span;
mod stats;
mod workloads;

use catalogue::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;
use workloads::{Args, Report};

const USAGE: &str = "usage:
  pardict-benchmark --workload <name> --seed <n> --trace <0|1> [--seconds <s>] [--out <file>]
  pardict-benchmark manifest                      print BENCHMARK.json
  pardict-benchmark names <results.jsonl>...      check every listed metric was printed
  pardict-benchmark summary <results.jsonl>...    min/median/max and quartiles per metric
  pardict-benchmark compare <a.jsonl> <b.jsonl>   one row per (workload, end-to-end metric)
  pardict-benchmark overhead <full.jsonl> <trace.jsonl>   untraced beside traced end-to-end";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", manifest());
            0
        }
        Some("names") => compare::names(&argv[1..]),
        Some("summary") => compare::summary(&argv[1..]),
        Some("compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]),
        Some("overhead") if argv.len() == 3 => compare::overhead(&argv[1], &argv[2]),
        _ => match parse_run_args(&argv) {
            Ok(args) => run(&args),
            Err(why) => {
                eprintln!("pardict-benchmark: {why}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut trace) = (None, None, None);
    let mut seconds = f64::from(catalogue::RUN_SECONDS);
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => out = Some(std::path::PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn run(args: &Args) -> i32 {
    let harts = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "# {} seed={} seconds={} trace={} harts={harts}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match workloads::run(args) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("pardict-benchmark: {why}");
            return 1;
        }
    };
    if args.trace {
        let path = workloads::out_dir().join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = std::fs::write(&path, span::to_jsonl(&args.workload, &report.spans)) {
            eprintln!("pardict-benchmark: {}: {e}", path.display());
            return 1;
        }
    }
    let w = &report.window;
    let e2e = end_to_end(&report);
    for (def, (value, n)) in END_TO_END.iter().zip(&e2e) {
        println!("{:<44} {:>16.4} {:<8} n={n}", def.name, value, def.unit);
    }
    for def in &PER_LAYER {
        if let Some(value) = report.layer.0.get(def.name) {
            println!("{:<44} {:>16.4} {:<8}", def.name, value, def.unit);
        }
    }
    let correct = w.failed == 0 && w.attempted > 0;
    println!(
        "attempted={} failed={} correct={correct}",
        w.attempted, w.failed
    );

    // The traced run reports the per-layer list (0 where this workload has
    // no such span), the untraced run the end-to-end list.
    let metric = |def: &MetricDef, value: f64| {
        (
            def.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(def.unit.into())),
            ]),
        )
    };
    let metrics = if args.trace {
        PER_LAYER
            .iter()
            .map(|d| metric(d, report.layer.0.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(d, &(v, _))| metric(d, v))
            .collect()
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(w.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(w.failed.min(w.attempted) as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    if let Some(path) = &args.out {
        // A result-file row: the result line plus what identifies the run,
        // and the end-to-end values even when the run was traced (the
        // difference between the two is the harness's tracing overhead).
        let plain = |kv: Vec<(&str, f64)>| {
            Json::Obj(
                kv.into_iter()
                    .map(|(k, v)| (k.into(), Json::Num(v)))
                    .collect(),
            )
        };
        let row = Json::Obj(vec![
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("seconds".into(), Json::Num(args.seconds)),
            ("trace".into(), Json::Num(f64::from(args.trace as u8))),
            ("harts".into(), Json::Num(harts as f64)),
            (
                "end_to_end".into(),
                plain(
                    END_TO_END
                        .iter()
                        .zip(&e2e)
                        .map(|(d, &(v, _))| (d.name, v))
                        .collect(),
                ),
            ),
            (
                "layer".into(),
                plain(report.layer.0.iter().map(|(&k, &v)| (k, v)).collect()),
            ),
            ("result".into(), result.clone()),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, (row.render() + "\n").as_bytes()));
        if let Err(e) = appended {
            eprintln!("pardict-benchmark: {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", result.render());
    i32::from(!correct)
}

/// The end-to-end values of a run, in catalogue order, with sample counts.
fn end_to_end(report: &Report) -> Vec<(f64, usize)> {
    let w = &report.window;
    END_TO_END
        .iter()
        .map(|def| match def.name {
            "setup_s" => (stats::median(&w.setup_s), w.setup_s.len()),
            "req_per_s" => (w.req_per_s, w.attempted as usize),
            "p50_ms" => (stats::median(&w.primary_ms), w.primary_ms.len()),
            "alt_p50_ms" => (stats::median(&w.contrast_ms), w.contrast_ms.len()),
            other => unreachable!("{other} has no definition"),
        })
        .collect()
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift.
fn manifest() -> String {
    let why = [
        "Cold-publishes fresh 4000-pattern DNA and lowercase dictionaries with WAL fsync: \
         preprocessing does all the work, matching none; the two alphabets take different \
         colored-ancestor code paths.",
        "Engine match calls on dense and sparse 1 MiB texts against a prebuilt dictionary: \
         query-time work only, which a preprocessing change must not move; hit rate varies.",
        "compress_stream, then decompress, grep and range-grep of a 256 KiB two-kind corpus: \
         file to PDZS container to hits; LZ1 factorisation dominates, decode and stitch \
         follow.",
        "Two blocking TCP clients in a closed loop of short matches, greps, compresses and \
         fsynced delta writes: wire codec, server and syscalls dominate, core does little.",
        "One client through a router over two backends, 70% routed matches and 30% \
         scatter-gathered container greps: an extra hop, re-slicing, merge, slowest shard.",
    ];
    let metric = |d: &MetricDef, bounded: bool| {
        let mut kv = vec![
            ("name".to_string(), Json::Str(d.name.into())),
            ("unit".to_string(), Json::Str(d.unit.into())),
            ("better".to_string(), Json::Str(d.better.as_str().into())),
        ];
        if bounded {
            kv.push(("bound".to_string(), Json::Num(d.bound)));
        }
        Json::Obj(kv)
    };
    let list = |items: Vec<Json>| {
        let body: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .zip(why)
        .map(|(name, why)| {
            Json::Obj(vec![
                ("name".into(), Json::Str((*name).into())),
                ("why".into(), Json::Str(why.into())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        Json::Arr(
            [
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--"
            ]
            .iter()
            .map(|s| Json::Str((*s).into()))
            .collect()
        )
        .render(),
        catalogue::RUN_SECONDS,
        list(workloads),
        list(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        assert_eq!(
            manifest().trim(),
            include_str!("../../BENCHMARK.json").trim(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn run_flags_parse_and_reject() {
        let ok = |s: &str| parse_run_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = ok("--workload archive --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("archive", 7, true));
        assert!(ok("--workload nope --seed 7 --seconds 12 --trace 0").is_err());
        assert!(ok("--workload archive --seed 7 --seconds 12").is_err());
        let a = ok("--workload archive --seed 7 --trace 0 --out x.jsonl").unwrap();
        assert_eq!(a.seconds, f64::from(catalogue::RUN_SECONDS));
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("x.jsonl")));
        assert!(ok("--workload archive --seed 7 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload archive --seed x --seconds 1 --trace 0").is_err());
        assert!(ok("--workload archive --seed 7 --seconds 1 --trace 2").is_err());
    }
}
