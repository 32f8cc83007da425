//! End-to-end tests of the `pardict` CLI binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pardict"))
}

fn write_tmp(name: &str, data: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pardict-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(data).unwrap();
    path
}

#[test]
fn match_lists_longest_hits() {
    let dict = write_tmp("d1.txt", b"he\nshe\nhers\n");
    let text = write_tmp("t1.bin", b"ushers");
    let out = bin()
        .args(["match", "--dict"])
        .arg(&dict)
        .arg(&text)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1\t1\tshe"), "{stdout}");
    assert!(stdout.contains("2\t2\thers"), "{stdout}");
    // Longest-only: "he" at 2 must NOT be listed by `match`.
    assert!(!stdout.contains("\the\n"), "{stdout}");
}

#[test]
fn grep_lists_all_hits() {
    let dict = write_tmp("d2.txt", b"he\nshe\nhers\n");
    let text = write_tmp("t2.bin", b"ushers");
    let out = bin()
        .args(["grep", "--dict"])
        .arg(&dict)
        .arg(&text)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("2\t0\the"),
        "grep must include shorter hits: {stdout}"
    );
    assert!(stdout.contains("2\t2\thers"), "{stdout}");
}

#[test]
fn compress_decompress_roundtrip() {
    let data = b"a rose is a rose is a rose, said the rose".repeat(20);
    let input = write_tmp("t3.bin", &data);
    let packed = std::env::temp_dir().join("pardict-cli-tests/t3.plz");
    let unpacked = std::env::temp_dir().join("pardict-cli-tests/t3.out");

    let out = bin()
        .args(["compress"])
        .arg(&input)
        .args(["-o"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::metadata(&packed).unwrap().len() < data.len() as u64);

    let out = bin()
        .args(["decompress"])
        .arg(&packed)
        .args(["-o"])
        .arg(&unpacked)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(std::fs::read(&unpacked).unwrap(), data);
}

#[test]
fn decompress_rejects_garbage() {
    let garbage = write_tmp("t4.plz", &[9, 9, 9]);
    let out = bin().args(["decompress"]).arg(&garbage).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("tag"), "{err}");
}

#[test]
fn parse_reports_optimal_vs_greedy() {
    let dict = write_tmp("d5.txt", b"aab\nabbb\nb\n");
    let text = write_tmp("t5.bin", b"aabbb");
    let out = bin()
        .args(["parse", "--dict"])
        .arg(&dict)
        .arg(&text)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("optimal: 2 phrases"), "{stdout}");
    assert!(stdout.contains("greedy would use 3"), "{stdout}");
}

#[test]
fn delta_and_patch_roundtrip() {
    let base_data = b"version one of the document with shared content".repeat(30);
    let mut new_data = base_data.clone();
    new_data.extend_from_slice(b" plus an appendix");
    let base = write_tmp("t6.base", &base_data);
    let new = write_tmp("t6.new", &new_data);
    let delta = std::env::temp_dir().join("pardict-cli-tests/t6.pdz");
    let restored = std::env::temp_dir().join("pardict-cli-tests/t6.out");

    let out = bin()
        .args(["delta"])
        .arg(&base)
        .arg(&new)
        .args(["-o"])
        .arg(&delta)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        std::fs::metadata(&delta).unwrap().len() < 100,
        "delta should be tiny"
    );
    let out = bin()
        .args(["patch"])
        .arg(&base)
        .arg(&delta)
        .args(["-o"])
        .arg(&restored)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(std::fs::read(&restored).unwrap(), new_data);
}

#[test]
fn stream_compress_roundtrip_and_cat_range() {
    let data = b"round and round the garden like a teddy bear ".repeat(80); // ~3.7 KB
    let input = write_tmp("t7.bin", &data);
    let packed = std::env::temp_dir().join("pardict-cli-tests/t7.pdzs");
    let unpacked = std::env::temp_dir().join("pardict-cli-tests/t7.out");
    let sliced = std::env::temp_dir().join("pardict-cli-tests/t7.slice");

    let out = bin()
        .args(["compress", "--stream", "--block-size", "512"])
        .arg(&input)
        .args(["-o"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let container = std::fs::read(&packed).unwrap();
    assert_eq!(&container[..4], b"PDZS", "missing container magic");
    assert!(container.len() < data.len(), "repetitive data must shrink");
    assert!(String::from_utf8_lossy(&out.stderr).contains("blocks"));

    // decompress auto-detects the container by its magic.
    let out = bin()
        .args(["decompress"])
        .arg(&packed)
        .args(["-o"])
        .arg(&unpacked)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&unpacked).unwrap(), data);

    // cat --range serves exactly the requested slice.
    let out = bin()
        .args(["cat", "--range", "700..1500"])
        .arg(&packed)
        .args(["-o"])
        .arg(&sliced)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&sliced).unwrap(), &data[700..1500]);

    // Out-of-bounds ranges are a clear error, not a panic.
    let out = bin()
        .args(["cat", "--range", "0..999999999"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of bounds"));
}

#[test]
fn multi_block_input_streams_automatically() {
    // 200 KB > the 64 KiB default block size: must stream without --stream.
    let data = b"the quick brown fox jumps over the lazy dog. ".repeat(4600);
    let input = write_tmp("t8.bin", &data);
    let packed = std::env::temp_dir().join("pardict-cli-tests/t8.pdzs");
    let unpacked = std::env::temp_dir().join("pardict-cli-tests/t8.out");

    let out = bin()
        .args(["compress"])
        .arg(&input)
        .args(["-o"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("streamed"),
        "large input should take the streaming path: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(&std::fs::read(&packed).unwrap()[..4], b"PDZS");

    let out = bin()
        .args(["decompress"])
        .arg(&packed)
        .args(["-o"])
        .arg(&unpacked)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(std::fs::read(&unpacked).unwrap(), data);
}

#[test]
fn corrupt_container_fails_naming_the_block() {
    let data = b"twinkle twinkle little star how I wonder what you are ".repeat(60);
    let input = write_tmp("t9.bin", &data);
    let packed = std::env::temp_dir().join("pardict-cli-tests/t9.pdzs");

    let out = bin()
        .args(["compress", "--stream", "--block-size", "256"])
        .arg(&input)
        .args(["-o"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Flip a byte in the middle of the block section.
    let mut container = std::fs::read(&packed).unwrap();
    let mid = container.len() / 2;
    container[mid] ^= 0x20;
    let corrupted = write_tmp("t9.corrupt.pdzs", &container);

    let out = bin().args(["decompress"]).arg(&corrupted).output().unwrap();
    assert!(!out.status.success(), "corruption must fail the exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("block"), "error must name the block: {err}");
}

#[test]
fn oversized_whole_buffer_is_refused_with_guidance() {
    let data = b"this input exceeds the tiny whole-buffer cap set below".repeat(4);
    let input = write_tmp("t10.bin", &data);

    let out = bin()
        .args(["compress", "--whole"])
        .arg(&input)
        .env("PARDICT_MAX_WHOLE", "16")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--stream"),
        "error must point at --stream: {err}"
    );
    assert!(err.contains("PARDICT_MAX_WHOLE"), "{err}");

    // Without --whole the same input just streams (the cap only guards
    // the single-buffer parse).
    let out = bin()
        .args(["compress"])
        .arg(&input)
        .env("PARDICT_MAX_WHOLE", "16")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A delta parses `base · new` as one buffer, so it is refused when the
/// two files together exceed the whole-buffer cap, before either is read;
/// a pair under the cap round-trips through `patch` under the same cap.
#[test]
fn oversized_delta_is_refused_and_a_capped_one_patches_back() {
    let base = write_tmp("t10b.base", b"0123456789");
    let new = write_tmp("t10b.new", &b"abcdefghij".repeat(4));
    let out = bin()
        .arg("delta")
        .arg(&base)
        .arg(&new)
        .env("PARDICT_MAX_WHOLE", "16")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("PARDICT_MAX_WHOLE"), "{err}");

    let new = write_tmp("t10b.small", b"0123abab");
    let delta = std::env::temp_dir().join("pardict-cli-tests/t10b.pdz");
    let out = bin()
        .arg("delta")
        .arg(&base)
        .arg(&new)
        .arg("-o")
        .arg(&delta)
        .env("PARDICT_MAX_WHOLE", "18")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .arg("patch")
        .arg(&base)
        .arg(&delta)
        .env("PARDICT_MAX_WHOLE", "18")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, b"0123abab");
}

#[test]
fn grep_container_matches_raw_grep() {
    let data = b"she sells seashells by the seashore; the shells she sells ".repeat(40);
    let input = write_tmp("t11.bin", &data);
    let packed = std::env::temp_dir().join("pardict-cli-tests/t11.pdzs");

    let out = bin()
        .args(["compress", "--stream", "--block-size", "128"])
        .arg(&input)
        .args(["-o"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Inline patterns, container input behind --in.
    let zipped = bin()
        .args(["grep", "she", "shell", "--in"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(
        zipped.status.success(),
        "{}",
        String::from_utf8_lossy(&zipped.stderr)
    );
    // Same patterns over the raw bytes must give byte-identical output.
    let raw = bin()
        .args(["grep", "she", "shell", "--in"])
        .arg(&input)
        .output()
        .unwrap();
    assert!(raw.status.success());
    assert_eq!(zipped.stdout, raw.stdout, "container vs raw grep disagree");
    assert!(!zipped.stdout.is_empty());

    // --count prints one number; --offsets one position per line.
    let count = bin()
        .args(["grep", "she", "--count", "--in"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(count.status.success());
    let n: usize = String::from_utf8_lossy(&count.stdout)
        .trim()
        .parse()
        .unwrap();
    assert!(n > 0);
    let offsets = bin()
        .args(["grep", "she", "--offsets", "--in"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(offsets.status.success());
    assert_eq!(String::from_utf8_lossy(&offsets.stdout).lines().count(), n);
}

#[test]
fn grep_corrupt_container_names_block_and_keeps_other_hits() {
    let data = b"abcabcabc-needle-xyzxyzxyz ".repeat(100); // 2.7 KB
    let input = write_tmp("t12.bin", &data);
    let packed = std::env::temp_dir().join("pardict-cli-tests/t12.pdzs");

    let out = bin()
        .args(["compress", "--stream", "--block-size", "256"])
        .arg(&input)
        .args(["-o"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(out.status.success());

    let clean = bin()
        .args(["grep", "needle", "--offsets", "--in"])
        .arg(&packed)
        .output()
        .unwrap();
    assert!(clean.status.success());
    let clean_offsets: Vec<String> = String::from_utf8_lossy(&clean.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert!(clean_offsets.len() > 50);

    // Flip a byte in the middle of the block section.
    let mut container = std::fs::read(&packed).unwrap();
    let mid = container.len() / 2;
    container[mid] ^= 0x40;
    let corrupted = write_tmp("t12.corrupt.pdzs", &container);

    let out = bin()
        .args(["grep", "needle", "--offsets", "--in"])
        .arg(&corrupted)
        .output()
        .unwrap();
    assert!(!out.status.success(), "corruption must fail the exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("block"), "error must name the block: {err}");
    // Matches outside the corrupt block survive: a nonempty strict subset.
    let got: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert!(
        !got.is_empty(),
        "hits outside the corrupt block must survive"
    );
    assert!(got.len() < clean_offsets.len());
    assert!(got.iter().all(|o| clean_offsets.contains(o)));

    // --strict refuses the container outright.
    let out = bin()
        .args(["grep", "needle", "--strict", "--in"])
        .arg(&corrupted)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("block"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

// ---- exit-code contract matrix ----
//
// The CLI's exit status is part of its interface: scripts and CI gate on
// it. One place pins the whole contract — success is 0; *any* detected
// damage is nonzero even when the command still produced best-effort
// output (survivor bytes, partial hit lists); usage errors and missing
// files are nonzero; `chaos` maps a violated oracle to nonzero.

/// Build a small container on disk and corrupt one payload byte in a
/// middle block, returning (clean path, corrupted path).
fn corrupted_container() -> (std::path::PathBuf, std::path::PathBuf) {
    use pardict::stream::layout::ContainerLayout;
    let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
        .repeat(40)
        .to_vec();
    let input = write_tmp("ec-in.bin", &data);
    let clean = std::env::temp_dir().join("pardict-cli-tests/ec.pdzs");
    let out = bin()
        .args(["compress", "--stream", "--block-size", "256"])
        .arg(&input)
        .args(["-o"])
        .arg(&clean)
        .output()
        .unwrap();
    assert!(out.status.success());
    let mut bytes = std::fs::read(&clean).unwrap();
    let layout = ContainerLayout::parse(&bytes).unwrap();
    assert!(layout.num_blocks() >= 3, "need a middle block to corrupt");
    let span = layout.records[1].payload.clone();
    bytes[span.start + span.len() / 2] ^= 0x40;
    let corrupt = write_tmp("ec-corrupt.pdzs", &bytes);
    (clean, corrupt)
}

#[test]
fn exit_code_contract_matrix() {
    let (clean, corrupt) = corrupted_container();
    let dict = write_tmp("ec-dict.txt", b"fox\nlazy\n");
    let code = |out: &std::process::Output| out.status.code().unwrap();

    // Success: clean container, clean operations -> 0.
    let out = bin()
        .args(["grep", "--dict"])
        .arg(&dict)
        .arg(&clean)
        .output()
        .unwrap();
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));

    // Corrupt container, lenient decompress: survivors are written but
    // the skipped block must surface as a nonzero exit.
    let survivors = std::env::temp_dir().join("pardict-cli-tests/ec-survivors.bin");
    let out = bin()
        .args(["decompress"])
        .arg(&corrupt)
        .args(["-o"])
        .arg(&survivors)
        .output()
        .unwrap();
    assert_eq!(code(&out), 1, "damage must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt block"), "{stderr}");
    let recovered = std::fs::read(&survivors).unwrap();
    assert!(
        !recovered.is_empty() && recovered.len() < 40 * 45,
        "survivors must be written (got {} bytes)",
        recovered.len()
    );

    // Corrupt container, lenient grep: hits from healthy blocks plus a
    // nonzero exit naming the skipped block.
    let out = bin()
        .args(["grep", "--dict"])
        .arg(&dict)
        .arg(&corrupt)
        .output()
        .unwrap();
    assert_eq!(code(&out), 1);
    assert!(!out.stdout.is_empty(), "healthy-block hits must be printed");

    // Corrupt container, strict grep: fail fast, nonzero.
    let out = bin()
        .args(["grep", "--strict", "--dict"])
        .arg(&dict)
        .arg(&corrupt)
        .output()
        .unwrap();
    assert_eq!(code(&out), 1);

    // Bad flags: unknown command, conflicting flags, unknown chaos flag.
    assert_eq!(code(&bin().args(["frobnicate"]).output().unwrap()), 1);
    let out = bin()
        .args(["grep", "--count", "--offsets", "--dict"])
        .arg(&dict)
        .arg(&clean)
        .output()
        .unwrap();
    assert_eq!(code(&out), 1);
    assert_eq!(code(&bin().args(["chaos", "--what"]).output().unwrap()), 1);

    // Missing files.
    let out = bin()
        .args(["decompress", "/nonexistent/no-such-file.pdzs"])
        .output()
        .unwrap();
    assert_eq!(code(&out), 1);
    let out = bin()
        .args(["grep", "--dict", "/nonexistent/dict.txt"])
        .arg(&clean)
        .output()
        .unwrap();
    assert_eq!(code(&out), 1);

    // Help is a success, not an error.
    assert_eq!(code(&bin().args(["--help"]).output().unwrap()), 0);
}

/// `pardict chaos` exits 0 on a healthy stack and prints a report that is
/// byte-identical across runs of the same seed.
#[test]
fn chaos_subcommand_is_deterministic_and_exits_zero() {
    let run = || {
        bin()
            .args(["chaos", "--seed", "0xBADC0DE", "--rounds", "1", "--no-wire"])
            .output()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.status.code().unwrap(),
        0,
        "{}",
        String::from_utf8_lossy(&a.stdout)
    );
    assert_eq!(a.stdout, b.stdout, "chaos report must be byte-identical");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("pardict-chaos report (seed 195936478, rounds 1)"));
    assert!(text.contains("verdict:"));
    assert!(text.contains("0 violated"));
}

/// Storage rows of the exit-code matrix: `serve --data-dir` must refuse
/// unusable paths with a nonzero exit, and `--recover-only` must map
/// clean recovery to exit 0 and dropped-data recovery to exit 1 with the
/// report on stdout.
#[test]
fn storage_exit_code_matrix() {
    use pardict::store::{Store, StoreConfig, WAL_FILE};
    let code = |out: &std::process::Output| out.status.code().unwrap();

    // --data-dir pointing at a regular file: environmental, exit 1.
    let file = write_tmp("ec-store-file", b"not a directory");
    let out = bin()
        .args(["serve", "--data-dir"])
        .arg(&file)
        .args(["--recover-only"])
        .output()
        .unwrap();
    assert_eq!(code(&out), 1, "a regular file is not a data dir");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a directory"), "{err}");

    // --data-dir with a missing value: usage error, exit 1.
    assert_eq!(
        code(&bin().args(["serve", "--data-dir"]).output().unwrap()),
        1
    );

    // A data dir that cannot be created (parent is a file): exit 1.
    let out = bin()
        .args(["serve", "--data-dir"])
        .arg(file.join("child"))
        .args(["--recover-only"])
        .output()
        .unwrap();
    assert_eq!(code(&out), 1, "uncreatable data dir must fail");

    // Craft a directory whose WAL ends in a torn record: recovery drops
    // the tail, reports it on stdout, and --recover-only exits 1 so
    // operators notice data went missing.
    let dir = std::env::temp_dir().join("pardict-cli-tests/ec-store-torn");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        sync: false,
        ..StoreConfig::default()
    };
    {
        let mut store = Store::open(&dir, cfg).unwrap();
        store
            .log_publish("alpha", 1, &[b"he".to_vec(), b"she".to_vec()])
            .unwrap();
        store.log_publish("beta", 1, &[b"hers".to_vec()]).unwrap();
    }
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::File::options()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    let out = bin()
        .args(["serve", "--data-dir"])
        .arg(&dir)
        .args(["--recover-only"])
        .output()
        .unwrap();
    assert_eq!(code(&out), 1, "dropped tail must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TORN-TAIL"), "{stdout}");
    assert!(
        stdout.contains("RECOVERED dicts 1 snapshot 0 wal-replayed 1"),
        "the intact first record must survive: {stdout}"
    );

    // Recovery truncated the untrusted tail, so a second pass over the
    // same directory is clean: exit 0, RECOVERED line, no TORN-TAIL.
    let out = bin()
        .args(["serve", "--data-dir"])
        .arg(&dir)
        .args(["--recover-only"])
        .output()
        .unwrap();
    assert_eq!(
        code(&out),
        0,
        "repaired dir must recover cleanly: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RECOVERED dicts 1"), "{stdout}");
    assert!(!stdout.contains("TORN-TAIL"), "{stdout}");
}
