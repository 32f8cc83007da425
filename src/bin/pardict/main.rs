//! `pardict` — command-line front end for the library.
//!
//! ```text
//! pardict match   --dict words.txt text.bin      longest pattern per position
//! pardict grep    --dict words.txt text.bin      all occurrences, one per line
//! pardict grep    PAT... --in data.pdzs          search a compressed container
//! pardict compress   in.bin -o out.plz           parallel LZ1 → token stream
//! pardict compress --stream in.bin -o out.pdzs   chunked parallel → container
//! pardict decompress out.plz -o back.bin         inverse (auto-detects both)
//! pardict cat     --range A..B in.pdzs           random-access container slice
//! pardict parse   --dict words.txt text.bin      §5 optimal static parse stats
//! pardict delta   base.bin new.bin -o out.pdz    differential compression
//! pardict patch   base.bin out.pdz -o new.bin    apply a delta
//! pardict stats   in.bin                         ledger work/depth summary
//! pardict serve   --addr 127.0.0.1:7878          concurrent serving engine
//! pardict serve   --data-dir DIR                 …with crash-safe persistence
//! pardict serve   --data-dir DIR --recover-only  recover, report, and exit
//! pardict serve   --selftest                     in-process serving selftest
//! pardict cluster --backends A,B,C               sharded router front end
//! pardict cluster --selftest                     3-backend failover selftest
//! pardict cluster --smoke                        process-level smoke (SIGKILL)
//! pardict store   --smoke                        kill-and-recover smoke
//! pardict chaos   --seed N --rounds K            fault-injection verification
//! pardict trace   spans.jsonl                    render a trace export
//! ```
//!
//! Dictionary files contain one pattern per line (empty lines ignored).
//! Whole-buffer inputs must be NUL-free (byte 0 is the library's
//! sentinel); the streaming container stores NUL-bearing blocks verbatim,
//! so `compress --stream` accepts arbitrary bytes. Inputs larger than one
//! block stream automatically; `--whole` forces the single-buffer parse
//! (capped at `PARDICT_MAX_WHOLE` bytes, default 64 MiB).

mod smoke;

use pardict::prelude::*;
use std::io::Write;
use std::process::ExitCode;

/// Whole-buffer inputs above this many bytes are refused with a pointer
/// to `--stream` instead of being slurped into one parse. Overridable via
/// `PARDICT_MAX_WHOLE` for tests and unusual machines.
fn max_whole_bytes() -> u64 {
    std::env::var("PARDICT_MAX_WHOLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 26)
}

/// Refuses a whole-buffer parse of `len` bytes, which `what` names, above
/// [`max_whole_bytes`].
fn check_whole(what: &str, len: u64) -> Result<(), String> {
    if len > max_whole_bytes() {
        return Err(format!(
            "{what} is {len} bytes — too large for a single whole-buffer parse \
             (cap {} bytes; set PARDICT_MAX_WHOLE to override)",
            max_whole_bytes()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pardict: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "match" => cmd_match(rest),
        "grep" => cmd_grep(rest),
        "compress" => cmd_compress(rest),
        "decompress" => cmd_decompress(rest),
        "cat" => cmd_cat(rest),
        "parse" => cmd_parse(rest),
        "delta" => cmd_delta(rest),
        "patch" => cmd_patch(rest),
        "stats" => cmd_stats(rest),
        "serve" => cmd_serve(rest),
        "cluster" => cmd_cluster(rest),
        "store" => cmd_store(rest),
        "chaos" => cmd_chaos(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: pardict <match|grep|compress|decompress|cat|parse|delta|patch|stats|serve|cluster|store|chaos|trace> \
     [--dict FILE] [-o FILE] [INPUT...]\n\
     grep:     pardict grep (--dict FILE IN | PATTERN... --in IN) \
     [--count|--offsets] [--strict]\n\
     \x20         IN may be raw bytes or a .pdzs container (auto-detected)\n\
     compress: pardict compress [--stream|--whole] [--block-size N] IN [-o OUT]\n\
     cat:      pardict cat --range A..B CONTAINER [-o OUT]\n\
     serve: pardict serve [--addr HOST:PORT] [--dict FILE [--name NAME]] [--workers N]\n\
     \x20       pardict serve --data-dir DIR [...]   persist publishes, recover on boot\n\
     \x20       pardict serve --data-dir DIR --recover-only   print the recovery \
     report and exit (1 if data was dropped)\n\
     \x20       pardict serve --selftest [--requests N] [--workers N]\n\
     \x20       pardict serve --selftest --trace-out FILE [--trace-seed N] \
     [--trace-sample N]   deterministic traced run, JSONL export\n\
     cluster: pardict cluster --backends A,B,C [--addr HOST:PORT]   sharded router\n\
     \x20         pardict cluster --selftest [--requests N] [--seed S]\n\
     \x20         pardict cluster --smoke [--requests N] [--seed S]   spawns 3 \
     backends, SIGKILLs one mid-run\n\
     store: pardict store --smoke [--delta] [--dicts N] [--seed S]   spawns a \
     --data-dir backend, SIGKILLs it mid-publish (or mid-delta with --delta), \
     restarts, verifies every acknowledged dict\n\
     chaos: pardict chaos [--seed N] [--rounds K] [--no-wire] [--no-storage]   \
     deterministic fault-injection report (exit 1 on violations)\n\
     trace: pardict trace FILE.jsonl [--slowest N]   summarize a span export \
     (exit 1 on malformed input)"
        .to_string()
}

/// Parsed flags: (positional args, --dict path, -o path).
type ParsedArgs<'a> = (Vec<&'a str>, Option<String>, Option<String>);

/// Split flags: returns (positional, dict path, output path).
fn split_args(args: &[String]) -> Result<ParsedArgs<'_>, String> {
    let mut pos = Vec::new();
    let mut dict = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dict" => {
                dict = Some(it.next().ok_or("--dict needs a path")?.clone());
            }
            "-o" | "--output" => {
                out = Some(it.next().ok_or("-o needs a path")?.clone());
            }
            other => pos.push(other),
        }
    }
    Ok((pos, dict, out))
}

fn read_input(pos: &[&str]) -> Result<Vec<u8>, String> {
    let path = pos.first().ok_or("missing input file")?;
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(data)
}

fn read_dict(path: Option<String>) -> Result<Vec<Vec<u8>>, String> {
    let path = path.ok_or("this command needs --dict FILE")?;
    let data = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let patterns: Vec<Vec<u8>> = data
        .split(|&c| c == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l).to_vec())
        .collect();
    if patterns.is_empty() {
        return Err(format!("{path}: no patterns"));
    }
    if patterns.iter().any(|p| p.contains(&0)) {
        return Err("patterns must be NUL-free".into());
    }
    Ok(patterns)
}

fn write_output(out: Option<String>, data: &[u8]) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(&path, data).map_err(|e| format!("writing {path}: {e}")),
        None => std::io::stdout()
            .write_all(data)
            .map_err(|e| format!("stdout: {e}")),
    }
}

/// `-o FILE` or stdout as a streaming sink, for the container commands
/// that never hold a whole file.
fn open_output(out: &Option<String>) -> Result<Box<dyn Write>, String> {
    Ok(match out {
        Some(dest) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(dest).map_err(|e| format!("creating {dest}: {e}"))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    })
}

/// True when the file at `path` starts with the PDZS container magic —
/// the one auto-detect shared by `grep`, `decompress`, and `cat`.
fn sniff_container(path: &str) -> Result<bool, String> {
    use std::io::Read as _;
    let mut head = [0u8; 4];
    let mut f = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let n = f
        .read(&mut head)
        .map_err(|e| format!("reading {path}: {e}"))?;
    Ok(pardict::stream::is_container(&head[..n]))
}

/// The exit-1 report of a lenient container read: good blocks were
/// already written, the corrupt ones are named.
fn skipped_blocks(path: &str, issues: &[pardict::stream::BlockIssue]) -> Result<(), String> {
    if issues.is_empty() {
        return Ok(());
    }
    let list: Vec<String> = issues.iter().map(ToString::to_string).collect();
    Err(format!(
        "{path}: {} corrupt block(s) skipped: {}",
        issues.len(),
        list.join("; ")
    ))
}

fn check_text(text: &[u8]) -> Result<(), String> {
    if text.contains(&0) {
        return Err("input contains NUL bytes (reserved for the sentinel)".into());
    }
    Ok(())
}

fn cmd_match(args: &[String]) -> Result<(), String> {
    let (pos, dict, out) = split_args(args)?;
    let patterns = read_dict(dict)?;
    let text = read_input(&pos)?;
    check_text(&text)?;
    let pram = Pram::par();
    let mut buf = Vec::new();
    let matcher = SegmentedMatcher::build(&pram, patterns.clone());
    let (matches, fell_back) = matcher.match_text_verified(&pram, &text);
    if fell_back {
        eprintln!("pardict: the §3.4 checker rejected a Monte Carlo pass; the automaton answered");
    }
    for (i, m) in matches.iter_hits() {
        writeln!(
            buf,
            "{i}\t{}\t{}",
            m.id,
            String::from_utf8_lossy(&patterns[m.id as usize])
        )
        .map_err(|e| format!("formatting output: {e}"))?;
    }
    write_output(out, &buf)
}

/// `pardict grep`: all occurrences, over raw bytes or a PDZS container
/// (auto-detected). Patterns come from `--dict FILE` (one per line, input
/// as a positional) or inline positionals with the input behind `--in`.
fn cmd_grep(args: &[String]) -> Result<(), String> {
    let mut pos: Vec<&str> = Vec::new();
    let mut dict_path: Option<String> = None;
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut count_only = false;
    let mut offsets_only = false;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dict" => dict_path = Some(it.next().ok_or("--dict needs a path")?.clone()),
            "--in" => input = Some(it.next().ok_or("--in needs a path")?.clone()),
            "-o" | "--output" => out = Some(it.next().ok_or("-o needs a path")?.clone()),
            "--count" => count_only = true,
            "--offsets" => offsets_only = true,
            "--strict" => strict = true,
            other => pos.push(other),
        }
    }
    if count_only && offsets_only {
        return Err("--count and --offsets are mutually exclusive".into());
    }
    let (patterns, path) = if let Some(dp) = dict_path {
        if input.is_some() && !pos.is_empty() {
            return Err("with --dict and --in, leave no positional arguments".into());
        }
        let path = match input {
            Some(p) => p,
            None => pos.first().ok_or("missing input file")?.to_string(),
        };
        (read_dict(Some(dp))?, path)
    } else {
        let path = input.ok_or(
            "grep needs --dict FILE with an input path, or inline PATTERNS with --in FILE",
        )?;
        if pos.is_empty() {
            return Err("grep needs at least one pattern (inline or via --dict)".into());
        }
        if pos.iter().any(|p| p.is_empty()) {
            return Err("patterns must be non-empty".into());
        }
        let patterns: Vec<Vec<u8>> = pos.iter().map(|p| p.as_bytes().to_vec()).collect();
        if patterns.iter().any(|p| p.contains(&0)) {
            return Err("patterns must be NUL-free".into());
        }
        (patterns, path)
    };

    let pram = Pram::par();
    let matcher = SegmentedMatcher::build(&pram, patterns.clone());
    let mut issues = Vec::new();
    let hits: Vec<(u64, u32, u32)> = if sniff_container(&path)? {
        let file = std::fs::File::open(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut rdr = StreamReader::open(std::io::BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        let mut cfg = GrepConfig::default();
        if strict {
            cfg = cfg.strict();
        }
        let summary =
            grep_container(&pram, &matcher, &mut rdr, &cfg).map_err(|e| format!("{path}: {e}"))?;
        issues = summary.issues;
        summary
            .hits
            .into_iter()
            .map(|h| (h.pos, h.id, h.len))
            .collect()
    } else {
        let text = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
        check_text(&text)?;
        matcher
            .find_all(&pram, &text)
            .into_iter()
            .map(|(p, m)| (p as u64, m.id, m.len))
            .collect()
    };

    let mut buf = Vec::new();
    if count_only {
        writeln!(buf, "{}", hits.len()).map_err(|e| format!("formatting output: {e}"))?;
    } else if offsets_only {
        for (p, _, _) in &hits {
            writeln!(buf, "{p}").map_err(|e| format!("formatting output: {e}"))?;
        }
    } else {
        for (p, id, _) in &hits {
            writeln!(
                buf,
                "{p}\t{id}\t{}",
                String::from_utf8_lossy(&patterns[*id as usize])
            )
            .map_err(|e| format!("formatting output: {e}"))?;
        }
    }
    write_output(out, &buf)?;
    skipped_blocks(&path, &issues)
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let mut pos: Vec<&str> = Vec::new();
    let mut out: Option<String> = None;
    let mut force_stream = false;
    let mut force_whole = false;
    let mut block_size = pardict::stream::DEFAULT_BLOCK_SIZE;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => out = Some(it.next().ok_or("-o needs a path")?.clone()),
            "--stream" => force_stream = true,
            "--whole" => force_whole = true,
            "--block-size" => block_size = flag_value(&mut it, "--block-size", "a byte count")?,
            other => pos.push(other),
        }
    }
    if force_stream && force_whole {
        return Err("--stream and --whole are mutually exclusive".into());
    }
    if block_size == 0 || block_size > pardict::stream::MAX_BLOCK_SIZE {
        return Err(format!(
            "--block-size must be in 1..={}",
            pardict::stream::MAX_BLOCK_SIZE
        ));
    }
    let path = *pos.first().ok_or("missing input file")?;
    let file_len = std::fs::metadata(path)
        .map_err(|e| format!("reading {path}: {e}"))?
        .len();

    // Inputs beyond one block (or beyond the whole-buffer cap) stream by
    // default: bounded memory, parallel blocks, and a random-access
    // container, at a small ratio cost.
    let use_stream = force_stream
        || (!force_whole && (file_len > block_size as u64 || file_len > max_whole_bytes()));
    let pram = Pram::par();

    if use_stream {
        let mut reader = std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?,
        );
        let cfg = pardict::stream::StreamConfig::with_block_size(block_size);
        let (_, summary) =
            pardict::stream::compress_stream(&pram, &mut reader, open_output(&out)?, &cfg)
                .map_err(|e| e.to_string())?;
        eprintln!(
            "pardict: streamed {} -> {} bytes ({:.1}%), {} blocks ({} stored), {} phrases",
            summary.raw_bytes,
            summary.container_bytes,
            100.0 * summary.container_bytes as f64 / summary.raw_bytes.max(1) as f64,
            summary.blocks,
            summary.stored_blocks,
            summary.phrases
        );
        return Ok(());
    }

    check_whole(path, file_len)
        .map_err(|e| format!("{e}. Use `pardict compress --stream` instead."))?;
    let text = read_input(&pos)?;
    check_text(&text)?;
    let tokens = delta_compress(&pram, &[], &text);
    let bytes = pardict::compress::encode_tokens(&tokens);
    eprintln!(
        "pardict: {} -> {} bytes ({:.1}%), {} phrases",
        text.len(),
        bytes.len(),
        100.0 * bytes.len() as f64 / text.len().max(1) as f64,
        tokens.len()
    );
    write_output(out, &bytes)
}

fn cmd_decompress(args: &[String]) -> Result<(), String> {
    let (pos, _, out) = split_args(args)?;
    let path = *pos.first().ok_or("missing input file")?;
    let pram = Pram::par();

    if sniff_container(path)? {
        let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut rdr = StreamReader::open(std::io::BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        // Stream wave by wave: like `compress --stream`, never more than
        // one wave of blocks resident, whatever the file size.
        let mut sink = open_output(&out)?;
        let issues = rdr
            .copy_to(&pram, &mut sink)
            .map_err(|e| format!("{path}: {e}"))?;
        sink.flush().map_err(|e| format!("writing output: {e}"))?;
        return skipped_blocks(path, &issues);
    }

    let data = read_input(&pos)?;
    let tokens = pardict::compress::decode_tokens(&data).map_err(|e| e.to_string())?;
    expanded_len(&tokens)?;
    // A token stream is a delta against the empty base; `decode_tokens`
    // has already refused every forward copy.
    write_output(out, &delta_decompress(&pram, &[], &tokens))
}

/// The decoded length of a bare token stream, refused above the
/// whole-buffer cap before anything is allocated for it.
fn expanded_len(tokens: &[Token]) -> Result<usize, String> {
    let n: u64 = tokens.iter().map(|t| t.expanded_len() as u64).sum();
    if n > max_whole_bytes() {
        return Err(format!(
            "token stream expands to {n} bytes, above the whole-buffer cap of {} \
             (set PARDICT_MAX_WHOLE to override)",
            max_whole_bytes()
        ));
    }
    Ok(n as usize)
}

fn cmd_cat(args: &[String]) -> Result<(), String> {
    let mut pos: Vec<&str> = Vec::new();
    let mut out: Option<String> = None;
    let mut range: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => out = Some(it.next().ok_or("-o needs a path")?.clone()),
            "--range" => range = Some(it.next().ok_or("--range needs A..B")?.clone()),
            other => pos.push(other),
        }
    }
    let range = range.ok_or("cat needs --range A..B (byte offsets into the decoded stream)")?;
    let (a, b) = range
        .split_once("..")
        .ok_or_else(|| format!("--range {range:?}: expected A..B"))?;
    let start: u64 = a.parse().map_err(|e| format!("--range start: {e}"))?;
    let end: u64 = b.parse().map_err(|e| format!("--range end: {e}"))?;
    let path = *pos.first().ok_or("missing container file")?;
    if !sniff_container(path)? {
        return Err(format!(
            "{path}: not a PDZS container (cat only works on `compress --stream` output)"
        ));
    }

    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut rdr =
        StreamReader::open(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let pram = Pram::par();
    let data = rdr
        .read_range(&pram, start, end)
        .map_err(|e| format!("{path}: {e}"))?;
    write_output(out, &data)
}

fn cmd_parse(args: &[String]) -> Result<(), String> {
    let (pos, dict, out) = split_args(args)?;
    let patterns = read_dict(dict)?;
    let text = read_input(&pos)?;
    check_text(&text)?;
    let pram = Pram::par();
    let matcher = SegmentedMatcher::build(&pram, patterns.clone());
    let (parse, greedy) = optimal_and_greedy_parse(&pram, &matcher, &text)
        .ok_or("text is not parseable with this dictionary (add single-symbol words?)")?;
    let mut buf = Vec::new();
    writeln!(
        buf,
        "optimal: {} phrases{}",
        parse.num_phrases(),
        match greedy {
            Some(g) => format!(" (greedy would use {})", g.num_phrases()),
            None => " (greedy dead-ends)".to_string(),
        }
    )
    .map_err(|e| format!("formatting output: {e}"))?;
    for ph in &parse.phrases {
        let p = &patterns[ph.pattern as usize];
        writeln!(
            buf,
            "{}\t{}",
            ph.start,
            String::from_utf8_lossy(&p[..ph.len])
        )
        .map_err(|e| format!("formatting output: {e}"))?;
    }
    write_output(out, &buf)
}

fn cmd_delta(args: &[String]) -> Result<(), String> {
    let (pos, _, out) = split_args(args)?;
    if pos.len() != 2 {
        return Err("delta needs BASE and NEW files".into());
    }
    // The delta parses `base · new` as one buffer.
    // (A missing file counts 0 here and fails on read below.)
    let size = |p: &str| std::fs::metadata(p).map_or(0, |m| m.len());
    let both = format!("{} + {}", pos[0], pos[1]);
    check_whole(&both, size(pos[0]) + size(pos[1]))?;
    let base = std::fs::read(pos[0]).map_err(|e| format!("{}: {e}", pos[0]))?;
    let new = std::fs::read(pos[1]).map_err(|e| format!("{}: {e}", pos[1]))?;
    check_text(&base)?;
    check_text(&new)?;
    let pram = Pram::par();
    let tokens = delta_compress(&pram, &base, &new);
    let bytes = pardict::compress::encode_tokens(&tokens);
    eprintln!(
        "pardict: delta of {} B against {} B base -> {} B ({} tokens)",
        new.len(),
        base.len(),
        bytes.len(),
        tokens.len()
    );
    write_output(out, &bytes)
}

fn cmd_patch(args: &[String]) -> Result<(), String> {
    let (pos, _, out) = split_args(args)?;
    if pos.len() != 2 {
        return Err("patch needs BASE and DELTA files".into());
    }
    let base = std::fs::read(pos[0]).map_err(|e| format!("{}: {e}", pos[0]))?;
    let data = std::fs::read(pos[1]).map_err(|e| format!("{}: {e}", pos[1]))?;
    let tokens =
        pardict::compress::decode_tokens_from(&data, base.len()).map_err(|e| e.to_string())?;
    expanded_len(&tokens)?;
    let pram = Pram::par();
    let new = delta_decompress(&pram, &base, &tokens);
    write_output(out, &new)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use pardict::service::{selftest, Engine, EngineConfig, Metrics, Registry, Server};
    use pardict::store::{Store, StoreConfig};
    use std::sync::Arc;

    let mut addr = "127.0.0.1:7878".to_string();
    let mut dict_path: Option<String> = None;
    let mut name = "default".to_string();
    let mut workers: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut run_selftest = false;
    let mut data_dir: Option<String> = None;
    let mut recover_only = false;
    let mut trace_out: Option<String> = None;
    let mut trace_seed: Option<u64> = None;
    let mut trace_sample: Option<u32> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--dict" => dict_path = Some(it.next().ok_or("--dict needs a path")?.clone()),
            "--name" => name = it.next().ok_or("--name needs a name")?.clone(),
            "--data-dir" => data_dir = Some(it.next().ok_or("--data-dir needs a path")?.clone()),
            "--recover-only" => recover_only = true,
            "--trace-out" => {
                trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--trace-seed" => {
                trace_seed = Some(flag_value::<Seed>(&mut it, "--trace-seed", "a number")?.0)
            }
            "--trace-sample" => {
                trace_sample = Some(flag_value(&mut it, "--trace-sample", "a count")?)
            }
            "--workers" => workers = Some(flag_value(&mut it, "--workers", "a count")?),
            "--requests" => requests = Some(flag_value(&mut it, "--requests", "a count")?),
            "--selftest" => run_selftest = true,
            other => return Err(format!("serve: unknown flag {other:?}\n{}", usage())),
        }
    }

    if run_selftest {
        // Traced selftest: the deterministic seeded phase, exported as
        // JSONL (byte-identical per seed — CI compares two runs).
        if let Some(path) = trace_out {
            let mut opts = selftest::TraceRunOptions::default();
            if let Some(r) = requests {
                opts.requests = r;
            }
            if let Some(s) = trace_seed {
                opts.seed = s;
            }
            if let Some(k) = trace_sample {
                opts.sample_one_in = k;
            }
            let (summary, jsonl) = selftest::trace_run(&opts)?;
            std::fs::write(&path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
            print!("{summary}");
            return Ok(());
        }
        let mut opts = selftest::SelftestOptions::default();
        if let Some(r) = requests {
            opts.requests = r;
        }
        if let Some(w) = workers {
            opts.workers = w;
        }
        let report = selftest::run(&opts)?;
        println!("{report}");
        return Ok(());
    }
    if trace_out.is_some() || trace_seed.is_some() || trace_sample.is_some() {
        return Err("serve: --trace-out/--trace-seed/--trace-sample need --selftest".into());
    }

    if recover_only {
        let dir = data_dir.ok_or("--recover-only needs --data-dir DIR")?;
        let store = Store::open(&dir, StoreConfig::default())
            .map_err(|e| format!("opening store {dir}: {e}"))?;
        for line in recovery_lines(store.recovery()) {
            println!("{line}");
        }
        if store.recovery().is_clean() {
            return Ok(());
        }
        return Err(format!(
            "{dir}: recovery dropped untrusted data (see report above)"
        ));
    }

    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    let mut cfg = EngineConfig::default();
    if let Some(w) = workers {
        cfg.workers = w.max(1);
    }
    let engine = Engine::new(cfg, Arc::clone(&registry), Arc::clone(&metrics));

    // Recover persisted dictionaries before anything publishes, then
    // attach the store so every accepted publish is durable before its
    // acknowledgement leaves the process.
    if let Some(dir) = data_dir {
        let store = Store::open(&dir, StoreConfig::default())
            .map_err(|e| format!("opening store {dir}: {e}"))?;
        let report = store.recovery().clone();
        for line in recovery_lines(&report) {
            eprintln!("pardict: {line}");
        }
        metrics
            .store_replayed
            .add(report.snapshot_dicts + report.wal_replayed);
        if let Some(t) = &report.torn {
            metrics.store_torn_dropped.add(t.dropped_bytes);
        }
        metrics.store_snapshot_age.add(store.since_snapshot());
        let restored: Vec<(String, u64, Vec<Vec<u8>>)> = store
            .dicts()
            .map(|(n, d)| (n.to_string(), d.version, d.patterns.clone()))
            .collect();
        for (dict_name, version, patterns) in restored {
            registry
                .restore(&dict_name, version, patterns)
                .map_err(|e| format!("restoring {dict_name}: {e}"))?;
        }
        registry.attach_store(store);
    }

    if let Some(path) = dict_path {
        let patterns = read_dict(Some(path))?;
        let count = patterns.len();
        let out = registry
            .publish(&name, patterns)
            .map_err(|e| format!("publishing {name}: {e}"))?;
        eprintln!(
            "pardict: serving dictionary {name:?} v{} ({count} patterns)",
            out.version
        );
    }

    let server = Server::start(engine, &*addr).map_err(|e| format!("binding {addr}: {e}"))?;
    // Machine-readable line for harnesses: with `--addr 127.0.0.1:0` the OS
    // picks the port, and this is how a parent process learns it.
    println!("LISTENING {}", server.addr());
    std::io::stdout().flush().ok();
    eprintln!(
        "pardict: listening on {} ({} workers); stop with ^C",
        server.addr(),
        server.engine().config().workers
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Render a [`RecoveryReport`](pardict::store::RecoveryReport) as the
/// CLI's stable machine-readable lines: a `RECOVERED` summary, then one
/// line per thing recovery refused to trust. Deterministic given the
/// directory's bytes — no paths, no timings.
fn recovery_lines(r: &pardict::store::RecoveryReport) -> Vec<String> {
    let mut out = vec![format!(
        "RECOVERED dicts {} snapshot {} wal-replayed {} wal-skipped {} generation {}",
        r.recovered_dicts, r.snapshot_dicts, r.wal_replayed, r.wal_skipped, r.wal_generation
    )];
    if let Some(t) = &r.torn {
        out.push(format!(
            "TORN-TAIL offset {} dropped {} bytes ({})",
            t.offset, t.dropped_bytes, t.reason
        ));
    }
    if let Some(issue) = &r.snapshot_issue {
        out.push(format!("SNAPSHOT-REJECTED {issue}"));
    }
    if r.stale_temp_removed {
        out.push("STALE-TEMP removed".to_string());
    }
    out
}

/// `pardict cluster`: run the sharded router front end, the in-process
/// failover selftest, or the process-level smoke (which SIGKILLs a real
/// child backend mid-run and requires degraded-but-correct responses).
fn cmd_cluster(args: &[String]) -> Result<(), String> {
    use pardict::cluster::{selftest, ClusterConfig, Router, RouterServer};
    use std::net::ToSocketAddrs;
    use std::sync::Arc;

    let mut backends: Option<String> = None;
    let mut addr = "127.0.0.1:7979".to_string();
    let mut run_selftest = false;
    let mut run_smoke = false;
    let mut requests: Option<usize> = None;
    let mut seed: Option<u64> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--backends" => {
                backends = Some(it.next().ok_or("--backends needs ADDR,ADDR,...")?.clone());
            }
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--selftest" => run_selftest = true,
            "--smoke" => run_smoke = true,
            "--requests" => requests = Some(flag_value(&mut it, "--requests", "a count")?),
            "--seed" => seed = Some(flag_value::<Seed>(&mut it, "--seed", "a number")?.0),
            other => return Err(format!("cluster: unknown flag {other:?}\n{}", usage())),
        }
    }

    if run_selftest {
        let mut opts = selftest::Options::default();
        if let Some(r) = requests {
            opts.requests = r;
        }
        if let Some(s) = seed {
            opts.seed = s;
        }
        let outcome = selftest::run(&opts)?;
        print!("{}", outcome.summary);
        eprint!("{}", outcome.metrics_report);
        return Ok(());
    }
    if run_smoke {
        return smoke::cluster_smoke(requests.unwrap_or(120), seed.unwrap_or(0xC105_7E12));
    }

    let Some(list) = backends else {
        return Err(format!(
            "cluster: need --backends A,B,C (or --selftest / --smoke)\n{}",
            usage()
        ));
    };
    let mut shard_addrs = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let resolved = name
            .to_socket_addrs()
            .map_err(|e| format!("resolving backend {name}: {e}"))?
            .next()
            .ok_or_else(|| format!("no address for backend {name}"))?;
        shard_addrs.push(resolved);
    }
    if shard_addrs.is_empty() {
        return Err("cluster: --backends list is empty".into());
    }

    let router = Arc::new(Router::new(&shard_addrs, ClusterConfig::default()));
    let front = RouterServer::start(Arc::clone(&router), &*addr)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("LISTENING {}", front.addr());
    std::io::stdout().flush().ok();
    eprintln!(
        "pardict: cluster router on {} over {} backends; stop with ^C",
        front.addr(),
        shard_addrs.len()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `pardict store`: the kill-and-recover smoke for the persistence
/// layer. Only `--smoke` is implemented — the store itself has no
/// standalone CLI surface beyond what `serve --data-dir` wires up.
fn cmd_store(args: &[String]) -> Result<(), String> {
    let mut run_smoke = false;
    let mut run_delta = false;
    let mut dicts: usize = 6;
    let mut seed: u64 = 0x0005_704E_5EED;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => run_smoke = true,
            "--delta" => run_delta = true,
            "--dicts" => dicts = flag_value(&mut it, "--dicts", "a count")?,
            "--seed" => seed = flag_value::<Seed>(&mut it, "--seed", "a number")?.0,
            other => return Err(format!("store: unknown flag {other:?}\n{}", usage())),
        }
    }
    if !run_smoke {
        return Err(format!(
            "store: need --smoke (persistence rides on `serve --data-dir`)\n{}",
            usage()
        ));
    }
    let dicts = dicts.clamp(2, 64);
    let kind = if run_delta { "delta" } else { "store" };
    let summary = smoke::with_scratch_dir(kind, seed, |dir| {
        if run_delta {
            smoke::delta_smoke(dir, dicts, seed)
        } else {
            smoke::store_smoke(dir, dicts, seed)
        }
    })?;
    print!("{summary}");
    Ok(())
}

/// `pardict chaos`: run the deterministic fault-injection suite and print
/// its report. The report is byte-identical for equal seeds, so a failure
/// in CI reproduces locally from the seed alone.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    use pardict::chaos::{run_chaos, ChaosConfig};
    let mut cfg = ChaosConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => cfg.seed = flag_value::<Seed>(&mut it, "--seed", "a number")?.0,
            "--rounds" => cfg.rounds = flag_value(&mut it, "--rounds", "a count")?,
            "--no-wire" => cfg.wire = false,
            "--no-storage" => cfg.storage = false,
            other => return Err(format!("chaos: unknown flag {other:?}\n{}", usage())),
        }
    }
    let report = run_chaos(&cfg);
    print!("{}", report.text);
    if report.violations > 0 {
        return Err(format!(
            "{} of {} chaos oracles violated — reproduce with \
             `pardict chaos --seed {} --rounds {}{}`",
            report.violations,
            report.checks,
            cfg.seed,
            cfg.rounds,
            if cfg.wire { "" } else { " --no-wire" }
        ));
    }
    Ok(())
}

/// `pardict trace FILE.jsonl`: parse a span export and print the viewer
/// report (totals, cost-invariant check, per-stage/per-lane breakdowns,
/// slowest requests, and the slowest trace's span tree). Malformed input
/// is a hard error — exit code 1 — so CI can gate on it.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    use pardict::trace::{export, view};
    let mut pos: Vec<&str> = Vec::new();
    let mut slowest: usize = 5;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--slowest" => slowest = flag_value(&mut it, "--slowest", "a count")?,
            other => pos.push(other),
        }
    }
    let path = *pos.first().ok_or("trace needs a FILE.jsonl export")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spans = export::parse_jsonl(&data).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", view::render_report(&spans, slowest));
    Ok(())
}

/// A seed flag's value: decimal or `0x`-prefixed hex.
struct Seed(u64);

impl std::str::FromStr for Seed {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        }
        .map(Seed)
    }
}

/// The value after `flag`, parsed: "`flag` needs `what`" when it is
/// missing, "`flag`: reason" when it does not parse.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    it.next()
        .ok_or_else(|| format!("{flag} needs {what}"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, _, _) = split_args(args)?;
    let text = read_input(&pos)?;
    check_text(&text)?;
    let n = text.len().max(1);
    let pram = Pram::par();
    let (tokens, c1) = pram.metered(|p| lz1_compress(p, &text, 0x13));
    let (_, c2) = pram.metered(|p| lz1_decompress(p, &tokens, 0x14));
    println!("input: {} bytes", text.len());
    println!(
        "LZ1 compress:   {:>12} work ({:>7.1}/char)  depth {:>6}  -> {} phrases",
        c1.work,
        c1.work as f64 / n as f64,
        c1.depth,
        tokens.len()
    );
    println!(
        "LZ1 decompress: {:>12} work ({:>7.1}/char)  depth {:>6}",
        c2.work,
        c2.work as f64 / n as f64,
        c2.depth
    );
    Ok(())
}
