//! The process-level smokes behind `pardict cluster --smoke` and
//! `pardict store --smoke [--delta]`: each spawns real `pardict serve`
//! children, SIGKILLs one mid-run, and checks every answer against an
//! in-process library oracle.

use pardict::prelude::*;

/// Spawn three real `pardict serve` child processes on ephemeral ports,
/// route a seeded mixed workload through a [`pardict::cluster::Router`]
/// while comparing every response against an in-process oracle engine,
/// SIGKILL one child at the halfway mark, and require the run to finish
/// degraded but correct with closed accounting.
pub(crate) fn cluster_smoke(requests: usize, seed: u64) -> Result<(), String> {
    use pardict::cluster::{selftest, ClusterConfig, Router};
    use pardict::service::{Engine, EngineConfig, Metrics, Registry};
    use pardict::workloads::random_dictionary;
    use std::sync::Arc;

    let requests = requests.max(8);
    let mut children = Vec::new();
    let mut shard_addrs = Vec::new();
    for id in 0..selftest::BACKENDS {
        let (child, addr) = spawn_backend(None).map_err(|e| format!("backend {id}: {e}"))?;
        children.push(child);
        shard_addrs.push(addr);
    }
    let (victim, kill_at) = selftest::kill_plan(requests, seed);
    eprintln!(
        "pardict: smoke backends up at {shard_addrs:?}; \
         killing backend {victim} at request {kill_at}"
    );

    // Oracle: the exact engine configuration the children run (default
    // config, two workers), so lane selection and payload bytes agree.
    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    let oracle = Engine::new(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        registry,
        metrics,
    );

    let router = Arc::new(Router::new(&shard_addrs, ClusterConfig::default()));
    let patterns = random_dictionary(seed, 24, 3, 10, Alphabet::dna());
    let result = selftest::publish_and_drive(&router, &oracle, &patterns, requests, seed, |v| {
        // SIGKILL: no graceful drain. Pooled router connections see a
        // reset; fresh dials are refused. Both must read as a dead
        // shard, never as a wrong answer.
        children[v].kill();
    });
    eprint!("{}", router.report());

    router.shutdown();
    oracle.shutdown();

    let summary = selftest::render_summary("smoke", requests, seed, &result?);
    print!("{summary}");
    Ok(())
}

/// A spawned `pardict serve` child. Dropping the guard SIGKILLs and reaps
/// the process, so no early return can leak one.
struct ServeChild(std::process::Child);

impl ServeChild {
    /// SIGKILL, no graceful drain, and reap. Idempotent.
    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawn this executable as `pardict serve` on an ephemeral port (two
/// workers, persisting to `data_dir` when given) and learn its address from
/// the `LISTENING` line.
fn spawn_backend(
    data_dir: Option<&std::path::Path>,
) -> Result<(ServeChild, std::net::SocketAddr), String> {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    if let Some(dir) = data_dir {
        cmd.arg("--data-dir").arg(dir);
    }
    let mut child = ServeChild(
        cmd.stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning backend: {e}"))?,
    );
    let stdout = child.0.stdout.take().expect("stdout was piped");
    let raw = BufReader::new(stdout)
        .lines()
        .find_map(|line| line.ok()?.strip_prefix("LISTENING ").map(str::to_owned))
        .ok_or("backend exited without printing LISTENING")?;
    let addr = raw
        .parse()
        .map_err(|e| format!("backend address {raw:?}: {e}"))?;
    Ok((child, addr))
}

/// Run `f` over a scratch directory under the system temp dir that is
/// removed afterwards, whatever `f` returned.
pub(crate) fn with_scratch_dir<T>(
    kind: &str,
    seed: u64,
    f: impl FnOnce(&std::path::Path) -> Result<T, String>,
) -> Result<T, String> {
    let dir = std::env::temp_dir().join(format!(
        "pardict-{kind}-smoke-{seed:016x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// One dictionary's match answer over the wire must equal the library
/// oracle's `(pos, len)` list.
fn check_match(
    client: &mut pardict::service::Client,
    name: &str,
    text: &[u8],
    expected: &[(u64, u32)],
) -> Result<(), String> {
    use pardict::service::wire::{tag, WireResponse};
    match client
        .op(tag::MATCH, name, text, 0)
        .map_err(|e| format!("{name}: match transport: {e}"))?
    {
        Ok(WireResponse::Hits { hits, .. }) => {
            let got: Vec<(u64, u32)> = hits.iter().map(|h| (h.pos, h.len)).collect();
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "{name}: {} hits, oracle says {}",
                    got.len(),
                    expected.len()
                ))
            }
        }
        Ok(other) => Err(format!("{name}: unexpected reply {other:?}")),
        Err(e) => Err(format!("{name}: match rejected: {e}")),
    }
}

/// A first publish of `name` must be acknowledged at version 1.
fn publish_fresh(
    client: &mut pardict::service::Client,
    name: &str,
    patterns: &[Vec<u8>],
) -> Result<(), String> {
    match client
        .publish(name, patterns.to_vec())
        .map_err(|e| format!("{name}: publish transport: {e}"))?
    {
        Ok((1, _)) => Ok(()),
        Ok((v, _)) => Err(format!("{name}: fresh publish at version {v}")),
        Err(e) => Err(format!("{name}: publish rejected: {e}")),
    }
}

/// The library oracle's `(pos, len)` hits. Exact-match output is
/// fingerprint-seed-independent, so this is authoritative for the
/// engine's match lane.
fn oracle_hits(patterns: &[Vec<u8>], text: &[u8]) -> Vec<(u64, u32)> {
    let dict = Dictionary::new(patterns.to_vec());
    dictionary_match(&Pram::seq(), &dict, text, 0xA5)
        .iter_hits()
        .map(|(p, m)| (p as u64, m.len))
        .collect()
}

/// The kill-and-recover invariant, live: publish half the dictionaries
/// to a `--data-dir` backend and collect their acknowledgements, fire
/// one more publish and SIGKILL the process before reading the reply,
/// restart it from the same directory, and require every *acknowledged*
/// dictionary to come back — right digests, right match answers against
/// an in-process library oracle — before publishing the rest. The
/// summary printed to stdout contains only seed-derived facts, so equal
/// seeds print equal bytes (the raced in-flight publish may or may not
/// land; it is verified for integrity either way but never printed).
pub(crate) fn store_smoke(
    data_dir: &std::path::Path,
    num_dicts: usize,
    seed: u64,
) -> Result<String, String> {
    use pardict::core::multiset_identity;
    use pardict::service::wire::{write_frame, WireRequest};
    use pardict::service::Client;
    use pardict::workloads::{random_dictionary, random_text};

    // Seed-derived (name, patterns, probe text, oracle hits) per dictionary.
    let specs: Vec<_> = (0..num_dicts)
        .map(|i| {
            let patterns = random_dictionary(seed ^ (i as u64), 12, 3, 8, Alphabet::dna());
            let text = random_text(seed.wrapping_add(i as u64), 800, Alphabet::dna());
            let expected = oracle_hits(&patterns, &text);
            (format!("dict{i}"), patterns, text, expected)
        })
        .collect();
    let acked = num_dicts / 2;

    // ---- phase 1: publish half, every one acknowledged ----
    {
        let (_backend, addr) = spawn_backend(Some(data_dir))?;
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for (name, patterns, _, _) in &specs[..acked] {
            publish_fresh(&mut client, name, patterns)?;
        }
        // The raced publish: write the request, never read the reply —
        // SIGKILL (the guard dropping) lands while, or right after, the
        // server handles it.
        let mut raw =
            std::net::TcpStream::connect(addr).map_err(|e| format!("raced connect: {e}"))?;
        let inflight = WireRequest::Publish {
            name: "inflight".into(),
            patterns: specs[0].1.clone(),
        };
        write_frame(&mut raw, &inflight.encode()).map_err(|e| format!("raced write: {e}"))?;
    }

    // ---- phase 2: restart from the same directory ----
    let (_backend, addr) = spawn_backend(Some(data_dir))?;
    let mut client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
    let digests = client.dicts().map_err(|e| format!("dicts: {e}"))?;
    for (name, patterns, _, _) in &specs[..acked] {
        let want = multiset_identity(patterns);
        match digests.iter().find(|(n, _, _)| n == name) {
            Some((_, 1, h)) if *h == want => {}
            Some((_, v, h)) => {
                return Err(format!(
                    "{name}: recovered as v{v} hash {h:#x}, wanted v1 hash {want:#x}"
                ))
            }
            None => return Err(format!("{name}: acknowledged but not recovered")),
        }
    }
    // The raced publish may or may not have landed; if it did, it
    // must be complete (all-or-nothing), never a torn half.
    if let Some((_, _, h)) = digests.iter().find(|(n, _, _)| n == "inflight") {
        let want = multiset_identity(&specs[0].1);
        if *h != want {
            return Err(format!(
                "inflight: recovered with hash {h:#x}, wanted {want:#x} — a torn publish leaked"
            ));
        }
    }
    for (name, _, text, expected) in &specs[..acked] {
        check_match(&mut client, name, text, expected)?;
    }
    // ---- phase 3: the recovered store keeps accepting publishes ----
    for (name, patterns, text, expected) in &specs[acked..] {
        publish_fresh(&mut client, name, patterns)?;
        check_match(&mut client, name, text, expected)?;
    }

    let total_hits: usize = specs.iter().map(|(_, _, _, e)| e.len()).sum();
    Ok(format!(
        "pardict-store smoke (seed {seed}, dicts {})\n\
         phase-1: {acked} dicts published and acknowledged, then SIGKILL mid-publish\n\
         phase-2: all {acked} acknowledged dicts recovered from the data dir \
         (digests and matches agree with the oracle)\n\
         phase-3: {} more dicts published after recovery; {} oracle hits verified\n\
         store-smoke: ok\n",
        specs.len(),
        specs.len() - acked,
        total_hits,
    ))
}

/// The delta kill-and-recover invariant, live: publish every dictionary
/// at v1, delta-publish each to v2 over the wire (EXT_DELTA path), fire
/// one more raced delta and SIGKILL the backend before reading the
/// reply, restart it from the same directory, and require every
/// *acknowledged* v2 — a WAL replay of `Publish` followed by `Delta`
/// records — to come back with the digest and match answers of the
/// folded pattern set. Like the plain store smoke, the summary prints
/// only seed-derived facts so equal seeds print equal bytes (the raced
/// delta may or may not land; it is checked for all-or-nothing
/// integrity either way but never printed).
pub(crate) fn delta_smoke(
    data_dir: &std::path::Path,
    num_dicts: usize,
    seed: u64,
) -> Result<String, String> {
    use pardict::core::{apply_delta_patterns, multiset_identity, DictDelta};
    use pardict::service::wire::{write_frame, WireRequest};
    use pardict::service::Client;
    use pardict::workloads::{random_dictionary, random_text};

    // Seed-derived (name, v1 patterns, delta, folded v2 patterns, probe
    // text, oracle hits against v2) per dictionary. `apply_delta_patterns`
    // is the same fold the registry and the WAL replay use, so the oracle
    // and the system can only disagree if one of them is wrong.
    let mut specs = Vec::with_capacity(num_dicts);
    for i in 0..num_dicts {
        let name = format!("dict{i}");
        let v1 = random_dictionary(seed ^ (i as u64), 12, 3, 8, Alphabet::dna());
        let delta = DictDelta {
            adds: random_dictionary(seed ^ 0xDE17A ^ (i as u64), 3, 3, 8, Alphabet::dna()),
            removes: vec![v1[0].clone()],
        };
        let v2 = apply_delta_patterns(&v1, &delta)
            .map_err(|e| format!("{name}: scripted delta invalid: {e}"))?;
        let text = random_text(seed.wrapping_add(i as u64), 800, Alphabet::dna());
        let expected = oracle_hits(&v2, &text);
        specs.push((name, v1, delta, v2, text, expected));
    }

    // ---- phase 1: publish v1, delta to v2, all acknowledged ----
    {
        let (_backend, addr) = spawn_backend(Some(data_dir))?;
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for (name, v1, delta, _, _, _) in &specs {
            publish_fresh(&mut client, name, v1)?;
            match client
                .publish_delta(name, 1, delta, None)
                .map_err(|e| format!("{name}: delta transport: {e}"))?
            {
                Ok((2, _)) => {}
                Ok((v, _)) => return Err(format!("{name}: delta landed at version {v}")),
                Err(e) => return Err(format!("{name}: delta rejected: {e}")),
            }
        }
        // The raced delta: write the request, never read the reply —
        // SIGKILL (the guard dropping) lands while, or right after, the
        // server handles it. The added pattern is outside the DNA
        // alphabet, so whether it lands or not, the probe-text match
        // answers are unchanged.
        let mut raw =
            std::net::TcpStream::connect(addr).map_err(|e| format!("raced connect: {e}"))?;
        let inflight = WireRequest::PubDelta {
            name: specs[0].0.clone(),
            parent_version: 2,
            adds: vec![b"xyzzy".to_vec()],
            removes: Vec::new(),
        };
        write_frame(&mut raw, &inflight.encode()).map_err(|e| format!("raced write: {e}"))?;
    }

    // ---- phase 2: restart from the same directory ----
    let (_backend, addr) = spawn_backend(Some(data_dir))?;
    let mut client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
    let digests = client.dicts().map_err(|e| format!("dicts: {e}"))?;
    for (name, _, _, v2, _, _) in &specs {
        let want = multiset_identity(v2);
        let raced = if name == &specs[0].0 {
            // The raced delta may have landed: v3 with the extra
            // pattern folded in is the only other legal state.
            let mut with = v2.clone();
            with.push(b"xyzzy".to_vec());
            Some(multiset_identity(&with))
        } else {
            None
        };
        match digests.iter().find(|(n, _, _)| n == name) {
            Some((_, 2, h)) if *h == want => {}
            Some((_, 3, h)) if raced == Some(*h) => {}
            Some((_, v, h)) => {
                return Err(format!(
                    "{name}: recovered as v{v} hash {h:#x}, wanted v2 hash {want:#x} — \
                     a torn delta leaked"
                ))
            }
            None => return Err(format!("{name}: acknowledged but not recovered")),
        }
    }
    for (name, _, _, _, text, expected) in &specs {
        check_match(&mut client, name, text, expected)?;
    }
    // ---- phase 3: the recovered store keeps accepting deltas ----
    // One more wire delta against the recovered v2 (again alphabet-
    // disjoint from the probe text, so the oracle hits still hold).
    let (name, _, _, _, text, expected) = &specs[1];
    let delta = DictDelta {
        adds: vec![b"zzyzx".to_vec()],
        removes: Vec::new(),
    };
    match client
        .publish_delta(name, 2, &delta, None)
        .map_err(|e| format!("{name}: post-recovery delta transport: {e}"))?
    {
        Ok((3, _)) => {}
        Ok((v, _)) => return Err(format!("{name}: post-recovery delta at version {v}")),
        Err(e) => return Err(format!("{name}: post-recovery delta rejected: {e}")),
    }
    check_match(&mut client, name, text, expected)?;

    let total_hits: usize = specs.iter().map(|(_, _, _, _, _, e)| e.len()).sum();
    Ok(format!(
        "pardict-store delta smoke (seed {seed}, dicts {})\n\
         phase-1: {} dicts published at v1 and delta-published to v2, then SIGKILL mid-delta\n\
         phase-2: all {} acknowledged deltas recovered from the data dir \
         (digests and matches agree with the folded oracle)\n\
         phase-3: post-recovery delta accepted at v3; {total_hits} oracle hits verified\n\
         delta-smoke: ok\n",
        specs.len(),
        specs.len(),
        specs.len(),
    ))
}
