#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, and the test suite.
# Must not require network access — all dependencies resolve inside the
# workspace (see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== one owner"
# Decisions that used to have several owners keep exactly one: the byte
# cursor and its pre-allocation policy (core::bytes), the selftests'
# mixed-op roll table (pardict_workloads::mixed_ops), the container block
# loops (exec::run_waves, called only by compress_stream, the one compress
# loop, and StreamReader::decode_waves, the one decode loop that
# read_range, copy_to and grep are sinks of), the hart count (pram::harts),
# FNV-1a (pram), the span type (trace::Span) and the shipped LZ1 emitter
# (compress::delta_compress, exact and seed-free).
if grep -rn "struct Cursor" crates --include='*.rs' | grep -v '^crates/core/src/bytes.rs:'; then
  echo "ci.sh: a private byte cursor outside crates/core/src/bytes.rs" >&2
  exit 1
fi
if grep -rn "min(1024)" crates/store/src; then
  echo "ci.sh: a second pre-allocation policy in crates/store/src" >&2
  exit 1
fi
if grep -n "% 100" $(find crates -name selftest.rs); then
  echo "ci.sh: a roll table in a selftest.rs (use pardict_workloads::mixed_ops)" >&2
  exit 1
fi
if grep -rnE "struct StreamCompressor|fn decode_slot" crates --include='*.rs'; then
  echo "ci.sh: a private block loop again (route it through exec::run_waves)" >&2
  exit 1
fi
if grep -rnE "run_waves(::<[^(]*>)?\(" crates src tests examples --include='*.rs' |
    grep -vE '^crates/(stream|exec)/src/'; then
  echo "ci.sh: run_waves called outside crates/stream/src (use StreamReader::decode_waves)" >&2
  exit 1
fi
if grep -rnE "fetch_wave|FetchedBlock" crates src tests examples --include='*.rs' |
    grep -v '^crates/stream/src/'; then
  echo "ci.sh: a fetch loop outside crates/stream/src (use StreamReader::decode_waves)" >&2
  exit 1
fi
# Waves have one schedule: each completes before the next is fetched.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /(^|[^a-z_])pipelined?[ ]*:[^:]|\.pipelined?([^a-z_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/exec/src/*.rs crates/search/src/*.rs crates/stream/src/*.rs; then
  echo "ci.sh: a pipelined schedule knob is back (waves run one barrier schedule)" >&2
  exit 1
fi
if grep -rnE "available_parallelism|current_num_threads" crates src tests examples |
    grep -v '^crates/pram/src/ctx.rs:'; then
  echo "ci.sh: a second hart count (use pardict_pram::harts)" >&2
  exit 1
fi
if grep -rniE "cbf2_?9ce4" crates --include='*.rs' | grep -v '^crates/pram/src/'; then
  echo "ci.sh: a second FNV-1a outside crates/pram/src (use pardict_pram::Fnv1a)" >&2
  exit 1
fi

# Spans have one type and one queue: pardict_trace::Span, inert for an
# untraced request, recorded into the tracer's mutex-guarded Vec. With the
# lock-free ring gone the workspace holds no unsafe code.
if grep -rnw unsafe --include='*.rs' crates src vendor tests examples; then
  echo "ci.sh: unsafe code in the workspace (the span queue is a Mutex<Vec>)" >&2
  exit 1
fi
if grep -rnE "SpanGuard|ScopedSpan|mod collector|exec::section" crates src tests examples --include='*.rs'; then
  echo "ci.sh: a second span type or span queue (use pardict_trace::Span and scoped_span)" >&2
  exit 1
fi
# Shipped parses have one emitter: delta_compress (exact, seed-free suffix
# arrays, the greedy walk, one decodes_back check, the all-literal
# fallback), for stream blocks, served Compress replies and the CLI alike.
# `pardict stats` reports the cost of Theorem 4.2's PRAM route and ships no
# parse, so it is the one caller of lz1_compress there.
if awk 'FNR == 1 { name = "" }
        /^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /^ *(pub(\(crate\))? )?fn / { name = $0 }
        /(lz1_compress|lz1_nlogn_baseline|lz77_[a-z_]*|longest_previous_factor[a-z_]*)\(/ &&
          name !~ /^fn cmd_stats\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/service/src/*.rs crates/stream/src/*.rs src/bin/pardict/*.rs; then
  echo "ci.sh: a shipped parse from another LZ1 emitter (use delta_compress with an empty base)" >&2
  exit 1
fi
if grep -rn "lz77_sequential" crates src tests examples --include='*.rs'; then
  echo "ci.sh: lz77_sequential is back (the shipped emitter is delta_compress)" >&2
  exit 1
fi
# That emitter is exact: neither it nor the block writer draws a seed or
# builds a fingerprint.
if grep -nE "SplitMix64|STREAM_SEED|PrefixHashes|lcp_parallel|random_base" \
    crates/stream/src/writer.rs crates/compress/src/delta.rs; then
  echo "ci.sh: a seed or fingerprint on the shipped LZ1 route (it reads SuffixArrays::build_exact)" >&2
  exit 1
fi
# It reads Lemma 4.1 only where a phrase starts: no whole match table and
# no separate greedy pass over one in delta.rs.
if grep -nE "previous_matches|greedy\(" crates/compress/src/delta.rs; then
  echo "ci.sh: delta_compress builds the whole match table (walk it with lz1::parse_from)" >&2
  exit 1
fi
# Lemma 4.1's per-position rule is written once, in lz1.rs: the seeded table
# tabulates it and the exact walk calls it at phrase starts.
where=$(awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /fn previous_match[(<]/ { print FILENAME ":" FNR ": " $0 }' $(find crates -name '*.rs' | sort))
if [ "$(printf '%s\n' "$where" | cut -d: -f1)" != crates/compress/src/lz1.rs ]; then
  printf '%s\n' "$where"
  echo "ci.sh: Lemma 4.1's rule (fn previous_match) must be defined once, in crates/compress/src/lz1.rs" >&2
  exit 1
fi
# Its suffix arrays have one builder each: the exact route sorts by SA-IS
# (sequential, linear), never by DC3, whose polylog depth only the seeded
# PRAM route reads; and only SuffixArrays::build_exact reaches SA-IS.
if awk '/^ *(pub )?fn build_exact\(/ { inside = 1 }
        inside { line = $0; gsub(/sais::suffix_array\(/, "", line)
                 if (line ~ /suffix_array\(/) { print FILENAME ":" FNR ": " $0; bad = 1 } }
        inside && /^    }$/ { inside = 0 }
        END { exit !bad }' crates/suffix/src/arrays.rs; then
  echo "ci.sh: SuffixArrays::build_exact calls DC3 (the exact route sorts by SA-IS)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /sais::/ && FILENAME !~ /\/(arrays|sais)\.rs$/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/suffix/src/*.rs; then
  echo "ci.sh: SA-IS called outside crates/suffix/src/{arrays,sais}.rs (use SuffixArrays::build_exact)" >&2
  exit 1
fi
# Its interval bounds are two ANSV stack passes: blocked-parallel ANSV
# belongs to the seeded builder alone, so nothing build_exact reaches in
# arrays.rs names ansv_par.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// || /^use / { next }
        /^ *(pub )?fn / { name = $0 }
        /ansv_par/ && name !~ /fn build\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/suffix/src/arrays.rs; then
  echo "ci.sh: ansv_par outside SuffixArrays::build (build_exact's bounds are ansv_seq stack passes)" >&2
  exit 1
fi

# A container's structure has one validator: StreamReader::open (footer
# checksum, entry chain, block sizes) plus the inline-header comparison
# raw_block makes. ContainerLayout is a view of what open checked, so no
# other file walks record headers.
if grep -rn "parse_record_tail" crates src tests examples --include='*.rs' |
    grep -vE '^crates/stream/src/(format|reader)\.rs:'; then
  echo "ci.sh: a record-header walk outside crates/stream/src/{format,reader}.rs (read the StreamReader index)" >&2
  exit 1
fi
# A parse leaves the process only if it decodes back, and one function,
# delta_compress (through the crate-private decodes_back), owns that check.
if grep -rn "lz1_decode(" crates/stream/src/writer.rs crates/service/src src/bin; then
  echo "ci.sh: a private decode-and-compare (delta_compress decodes every parse back)" >&2
  exit 1
fi

# Range minima have one owner: LinearRmq answers Lemma 2.3 and, over the
# LCP array, the suffix tree's Lemma 2.6 queries and leaf LCAs. An RMQ
# builds no tree.
if grep -rnE "cartesian_parents|Pm1Rmq|TreeLca|tree_lca" crates src tests examples; then
  echo "ci.sh: a second range-minimum structure (use pardict_rmq::LinearRmq)" >&2
  exit 1
fi
if grep -rnwE "Forest|EulerTour" crates/rmq/src; then
  echo "ci.sh: crates/rmq/src builds a tree (an RMQ is a block decomposition)" >&2
  exit 1
fi

# Dictionary preprocessing reads its answers off suffix-array order: the
# tree's equal-LCP representatives are one range minimum, Step 2A's
# root-path maxima two scans. Neither ranks a list, and ANSV is strict.
if grep -rn "list_rank" crates/suffix/src crates/core/src; then
  echo "ci.sh: list ranking in suffix-tree or core preprocessing (read SA order)" >&2
  exit 1
fi
if grep -rnE "rootfix|Strictness" crates src tests examples; then
  echo "ci.sh: rootfix or ANSV strictness is back (scan in SA order; ANSV is strict)" >&2
  exit 1
fi

# The separator build costs what it is charged: BFS parents live in one
# array, not a hash map keyed by node per piece, and a node's children come
# in edge-symbol order from the suffix tree's edge runs, not a sort or a
# merge of its own.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /HashMap|sort_unstable_by_key|merge_by_leaf_lo/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/core/src/dsm/centroid.rs; then
  echo "ci.sh: a HashMap, a sort or a child merge in the separator build (one parent array; children from SuffixTree::edges)" >&2
  exit 1
fi
# The suffix tree hashes nothing: children and Weiner links are sorted
# (code, node) runs in one CSR each, filled once by the build.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /HashMap|sym_key/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/suffix/src/tree.rs; then
  echo "ci.sh: a HashMap in the suffix tree (children and Weiner links are sorted runs)" >&2
  exit 1
fi

# LZ1 reads the suffix array: Lemma 4.1's match table is one previous-factor
# routine over LCP intervals, so compression builds no suffix tree and runs
# no marked-ancestor pass.
if grep -rnE "SuffixTree::build|NearestMarkedAncestor" crates/compress/src; then
  echo "ci.sh: a suffix tree or marked-ancestor pass in crates/compress/src (LZ1 reads the suffix array)" >&2
  exit 1
fi

# Blocks run the sequential halves; the PRAM routes are the reproduction.
# A stream block's parallelism is across blocks, so it emits with the greedy
# walk and decodes phrase by phrase: Theorems 4.2 and 4.3 are its oracles.
if grep -rnE "lz1_compress\(|lz1_decompress\(|EulerTour" crates/stream/src; then
  echo "ci.sh: a PRAM LZ1 route in crates/stream/src (blocks run the sequential halves)" >&2
  exit 1
fi

# Parallel rounds have one fork-join and one threshold: every Par round,
# scan and super-step leaves the calling thread through the one
# thread::scope in crates/pram/src/ctx.rs, once it has PAR_THRESHOLD units.
# The vendored rayon crate is a placeholder nothing imports.
if grep -rnE "rayon::|use rayon" crates src tests examples --include='*.rs'; then
  echo "ci.sh: a rayon import (pram forks its own rounds)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /thread::scope/ { n++; where = where FILENAME ":" FNR "\n" }
        END { if (n > 1) { printf "%s", where; exit 0 } exit 1 }' crates/pram/src/*.rs; then
  echo "ci.sh: a second thread::scope in crates/pram/src (fork through ctx.rs's helper)" >&2
  exit 1
fi
if grep -rnE "PAR_BLOCKS|SPAWN_THRESHOLD" crates src tests examples vendor --include='*.rs'; then
  echo "ci.sh: a second inline threshold (pram's PAR_THRESHOLD is the one)" >&2
  exit 1
fi

# Fork-join has one owner per layer too: core forks nothing itself, and a
# multi-segment query reaches its segments only through the one fan-out
# and merge (SegmentedMatcher::fold_or over Pram::superstep).
if grep -rn "thread::scope" crates/core/src; then
  echo "ci.sh: a private fork-join in crates/core/src (use Pram::superstep)" >&2
  exit 1
fi
# The same for container waves: a wave's slots are one Pram::superstep and
# run on the context it hands them. exec keeps one scoped-thread site of
# its own, the unbounded I/O scatter (fan_out); the stream and search
# slots build no context of their own.
if grep -rn "fn run_slots" crates src tests examples; then
  echo "ci.sh: a per-slot fork-join is back (waves run through Pram::superstep)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /Pram::(seq|par)\(\)|Pram::new\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/stream/src/*.rs crates/search/src/*.rs; then
  echo "ci.sh: a stream or search slot builds its own Pram (run on the one it is handed)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *(pub )?fn / { name = $0 }
        /thread::scope/ { if (name !~ /fn fan_out[<(]/ || seen[name]++) { print FILENAME ":" FNR ": " name; bad = 1 } }
        END { exit !bad }' crates/exec/src/*.rs; then
  echo "ci.sh: a fork-join in crates/exec/src outside fan_out (use Pram::superstep)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^ *(pub )?fn / { name = $0 }
        /for .* in &self\.slots|self\.slots\.iter\(\)/ { loops[name] = 1 }
        /\.matcher\(\)/ { calls[name] = 1 }
        END { for (f in loops) if (f in calls && f !~ /fn fold_or/) { print f; bad = 1 }
              exit !bad }' crates/core/src/segmented.rs; then
  echo "ci.sh: a per-slot query loop in segmented.rs outside fold_or" >&2
  exit 1
fi
# Builds are as independent across segments as queries: the segments a
# build cannot reuse are one Pram::superstep, so no per-slot build loop.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^ *\/\// { next }
        /^ *(pub )?fn / { name = $0 }
        /Segment::build\(/ { builds[name] = FNR }
        /superstep\(/ { steps[name] = 1 }
        END { for (f in builds) if (!(f in steps)) { print FILENAME ":" builds[f] ": " f; bad = 1 }
              exit !bad }' crates/core/src/segmented.rs; then
  echo "ci.sh: Segment::build outside a Pram::superstep in segmented.rs (build the misses side by side)" >&2
  exit 1
fi
# Every exact answer has one owner: the automaton over the whole list,
# built once per version in SegmentedMatcher::build_with_reuse. find_all is
# its one scan, already in canonical order, so it never sorts, and it is
# the only occurrence list: Theorem 3.1's matcher answers M[i] and the §5
# M array, never every occurrence.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^ *\/\// { next }
        /^ *(pub )?fn / { name = $0 }
        /AhoCorasick::build\(/ && name !~ /fn build_with_reuse\(/ { print FILENAME ":" FNR ": " name; bad = 1 }
        END { exit !bad }' crates/core/src/segmented.rs; then
  echo "ci.sh: an automaton built outside SegmentedMatcher::build_with_reuse in segmented.rs (one automaton per version)" >&2
  exit 1
fi
if awk '/^    pub fn find_all\(/ { inside = 1; start = FNR; body = "" }
        inside && !/^ *\/\// { line = $0; gsub(/[ \t]/, "", line); body = body line }
        inside && /^    }$/ { inside = 0
                              if (body ~ /\.sort/) { print FILENAME ":" start ": " body; bad = 1 } }
        END { exit !bad }' crates/core/src/segmented.rs; then
  echo "ci.sh: SegmentedMatcher::find_all sorts (the automaton's scan is already in canonical order)" >&2
  exit 1
fi
# So no second occurrence route comes back: no find_all on DictMatcher, no
# duplicate-chain table in Step 2 to feed one, and grep takes the served
# SegmentedMatcher. And no second §5 input: a served Parse reads the
# version's automaton, so no PatternScan trait, no Ranked answer type for
# the fold, and no Step 2A pattern_prefixes call in the service or the CLI.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        FILENAME ~ /matcher\.rs$/ && /fn find_all/ ||
        FILENAME ~ /step2\.rs$/ && /all_patterns_at|dup_next/ ||
        /PatternScan|trait Ranked/ ||
        FILENAME ~ /^(crates\/service\/src|src\/bin)\// && /pattern_prefixes\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $(find crates/*/src src -name '*.rs' | sort); then
  echo "ci.sh: a second occurrence route or §5 input (occurrence lists and a served Parse read the version's automaton)" >&2
  exit 1
fi
# Automaton rows have one layout: core::ac's byte classes, one flat row of
# k + 1 transitions per state. A dense 256-entry row is 1 KiB a state.
if grep -nE '\[u32; *256\]' crates/core/src/ac.rs; then
  echo "ci.sh: a dense [u32; 256] goto row in crates/core/src/ac.rs (index rows by byte class)" >&2
  exit 1
fi

# Served dictionaries build on exact arrays, at two sites: a segment
# (Segment::build) and the whole-dictionary matcher (whole_matcher) call
# DictMatcher::build_exact, which is the one caller of
# SuffixTree::build_exact. The seeded builds (DC3 and the fingerprint LCP)
# stay Theorem 3.1's reproduction, and no serving layer calls them.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        FNR == 1 { impl = ""; name = "" }
        /^ *\/\// { next }
        /^impl / { impl = $0 }
        /^ *(pub(\([a-z]+\))? )?fn / { name = $0 }
        /DictMatcher::build_exact\(/ &&
          !(FILENAME == "crates/core/src/segmented.rs" &&
            ((impl ~ /^impl Segment / && name ~ /fn build\(/) ||
             (impl ~ /^impl SegmentedMatcher / && name ~ /fn whole_matcher\(/))) {
          print FILENAME ":" FNR ": " $0; bad = 1 }
        /SuffixTree::build_exact\(/ &&
          !(FILENAME == "crates/core/src/matcher.rs" && impl ~ /^impl DictMatcher / &&
            name ~ /fn build_exact\(/) {
          print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $(find crates src -path '*/tests' -prune -o -name '*.rs' -print | sort); then
  echo "ci.sh: an exact build outside its owner (Segment::build and whole_matcher call DictMatcher::build_exact, the one caller of SuffixTree::build_exact)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /(DictMatcher|SuffixTree)::build\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $(find crates/service/src crates/cluster/src crates/store/src -name '*.rs' | sort); then
  echo "ci.sh: a serving layer builds on the seeded route (served dictionaries build through SegmentedMatcher on exact arrays)" >&2
  exit 1
fi

# Segments are the unit of change, one matcher the unit of query; only the
# registry picks which answers: a served Match reaches the per-segment pass
# or the whole-dictionary matcher through Preprocessed::match_verified.
if grep -rnE "match_text_verified|DictMatcher::build|whole_matcher" crates/service/src |
    grep -v '^crates/service/src/registry.rs:'; then
  echo "ci.sh: a served match picks its matcher outside crates/service/src/registry.rs" >&2
  exit 1
fi

# A dictionary version has one write path: a publish, a restore and a delta
# compute the final pattern list once (a delta folds it in one pass) and
# build it at one site, Registry::build, which reads the version's identity
# and build cost off the built SegmentedMatcher; nothing chains an identity
# beside it.
if grep -rn "chain_identity" crates src tests examples --include='*.rs'; then
  echo "ci.sh: chain_identity is back (read the identity off the built SegmentedMatcher)" >&2
  exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /Pram::par\(\)/ { n++; where = where FILENAME ":" FNR ": " $0 "\n" }
        END { if (n != 1) { printf "%s", where; exit 0 } exit 1 }' crates/service/src/registry.rs; then
  echo "ci.sh: registry.rs builds at other than one Pram::par() site (build versions in Registry::build)" >&2
  exit 1
fi

# An occurrence has one type, one order and one merge: pardict_core::Hit,
# whose Ord is the canonical order (position, then decreasing length, then
# id), and append_in_order, which merges consecutive pieces' lists at their
# boundaries. grep's blocks and the router's scatter ranges are such pieces,
# so the router's gather sorts no hits.
for def in 'struct (Grep)?Hit[ {<;]' 'fn append_in_order[(<]'; do
  where=$(awk -v re="$def" '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        $0 ~ re { print FILENAME ":" FNR ": " $0 }' $(find crates -name '*.rs' | sort))
  if [ "$(printf '%s\n' "$where" | cut -d: -f1)" != crates/core/src/dict.rs ]; then
    printf '%s\n' "$where"
    echo "ci.sh: '$def' must be defined once, in crates/core/src/dict.rs (use pardict_core::{Hit, append_in_order})" >&2
    exit 1
  fi
done
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /(^|[^a-z_])(h|hits)\.sort/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/cluster/src/router.rs; then
  echo "ci.sh: the router sorts hits (its ranges merge with pardict_core::append_in_order)" >&2
  exit 1
fi
# Settings with one value are constants: a shard is excluded at its first
# transport failure, and a client always reconnects once.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /fail_threshold|consec_failures|reconnect:/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/cluster/src/*.rs crates/service/src/*.rs; then
  echo "ci.sh: a failure threshold or a reconnect switch is back (both are fixed policy)" >&2
  exit 1
fi
# The suffix tree exports no test-only API: tests read a node's children
# off SuffixTree::forest and a child's edge symbol off SuffixTree::edges.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /edge_first_code|fn children\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/suffix/src/*.rs; then
  echo "ci.sh: edge_first_code or SuffixTree::children is back in crates/suffix/src (test-only API)" >&2
  exit 1
fi

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q"
# --workspace: at the root, a bare `cargo test` runs only the root
# package and skips every unit test inside crates/*.
cargo test --workspace -q

echo "== tables smoke"
# The experiment regenerator is no test's dependency; run it so it cannot
# rot uncompiled or panic unnoticed.
cargo run --release -q -p pardict-bench --bin tables -- all --quick > /dev/null

echo "== benchmark package check"
# benchmark/ is a workspace of its own that the steps above never see: its
# fmt, clippy and unit tests compile every workload against crates/*, so a
# crate API change that would break the ruler fails here.
benchmark/run.sh check

echo "== stream container smoke"
# End-to-end over the release binary: multi-block streaming round-trip,
# random-access slice, and corruption detection with a nonzero exit.
PARDICT=target/release/pardict
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
seq 1 200000 > "$SMOKE/input.bin"   # ~1.3 MB, NUL-free, ~20 blocks

"$PARDICT" compress --stream "$SMOKE/input.bin" -o "$SMOKE/packed.pdzs"
"$PARDICT" decompress "$SMOKE/packed.pdzs" -o "$SMOKE/roundtrip.bin"
cmp "$SMOKE/input.bin" "$SMOKE/roundtrip.bin"

# cat --range must equal the same slice of the original.
"$PARDICT" cat --range 100000..164096 "$SMOKE/packed.pdzs" -o "$SMOKE/slice.bin"
dd if="$SMOKE/input.bin" of="$SMOKE/slice.want" bs=1 skip=100000 count=64096 status=none
cmp "$SMOKE/slice.bin" "$SMOKE/slice.want"

# Corrupt one byte in the middle (guaranteed change: increment mod 256)
# and require a nonzero exit that names the damaged block.
cp "$SMOKE/packed.pdzs" "$SMOKE/corrupt.pdzs"
SIZE=$(wc -c < "$SMOKE/packed.pdzs")
MID=$((SIZE / 2))
BYTE=$(dd if="$SMOKE/corrupt.pdzs" bs=1 skip="$MID" count=1 status=none | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $(( (BYTE + 1) % 256 )))" |
  dd of="$SMOKE/corrupt.pdzs" bs=1 seek="$MID" count=1 conv=notrunc status=none
if "$PARDICT" decompress "$SMOKE/corrupt.pdzs" -o /dev/null 2> "$SMOKE/err.txt"; then
  echo "ci.sh: corrupted container decompressed cleanly" >&2
  exit 1
fi
grep -qi "block" "$SMOKE/err.txt"

echo "== compressed-domain grep smoke"
# grep over the container must equal byte-offset grep over the raw bytes
# ("12345" has no self-overlap, so `grep -bo` lists every occurrence).
"$PARDICT" grep 12345 --offsets --in "$SMOKE/packed.pdzs" > "$SMOKE/grep.zip.txt"
grep -bo 12345 "$SMOKE/input.bin" | cut -d: -f1 > "$SMOKE/grep.raw.txt"
cmp "$SMOKE/grep.zip.txt" "$SMOKE/grep.raw.txt"
test -s "$SMOKE/grep.zip.txt"

# Same one-byte corruption: nonzero exit naming the damaged block, while
# matches from the intact blocks survive as a subset of the clean offsets.
if "$PARDICT" grep 12345 --offsets --in "$SMOKE/corrupt.pdzs" \
    > "$SMOKE/grep.cor.txt" 2> "$SMOKE/grep.err.txt"; then
  echo "ci.sh: corrupted container grepped cleanly" >&2
  exit 1
fi
grep -qi "block" "$SMOKE/grep.err.txt"
test -s "$SMOKE/grep.cor.txt"
test -z "$(comm -23 <(sort "$SMOKE/grep.cor.txt") <(sort "$SMOKE/grep.raw.txt"))"

echo "== chaos fault-injection smoke"
# Scripted faults + wire chaos + ledger audit, all from one seed. A
# violation exits nonzero and the report reproduces byte-for-byte from
# the seed below.
CHAOS_SEED=2026
CHAOS_ROUNDS=3
if ! "$PARDICT" chaos --seed "$CHAOS_SEED" --rounds "$CHAOS_ROUNDS" \
    > "$SMOKE/chaos.txt" 2> "$SMOKE/chaos.err.txt"; then
  echo "ci.sh: chaos oracles violated — reproduce with:" >&2
  echo "  $PARDICT chaos --seed $CHAOS_SEED --rounds $CHAOS_ROUNDS" >&2
  cat "$SMOKE/chaos.txt" "$SMOKE/chaos.err.txt" >&2
  exit 1
fi
grep -q ", 0 violated" "$SMOKE/chaos.txt"
# Determinism contract: same seed, byte-identical report.
"$PARDICT" chaos --seed "$CHAOS_SEED" --rounds "$CHAOS_ROUNDS" > "$SMOKE/chaos2.txt"
if ! cmp -s "$SMOKE/chaos.txt" "$SMOKE/chaos2.txt"; then
  echo "ci.sh: chaos report not byte-identical for seed $CHAOS_SEED" >&2
  diff "$SMOKE/chaos.txt" "$SMOKE/chaos2.txt" >&2 || true
  exit 1
fi

echo "== cluster smoke"
# In-process failover selftest: 3 backends, seeded mixed workload vs a
# single-node oracle, one backend killed mid-run. Must exit 0 with a
# degraded-but-correct summary, byte-identical across runs of one seed
# and to the committed golden copy (so a refactor of the workload
# generator or the failover checks cannot change a draw silently).
CLUSTER_SEED=2026
"$PARDICT" cluster --selftest --requests 60 --seed "$CLUSTER_SEED" \
  > "$SMOKE/cluster.txt" 2> /dev/null
cmp "$SMOKE/cluster.txt" "tests/golden/cluster_selftest_$CLUSTER_SEED.txt"
grep -q "degraded responses" "$SMOKE/cluster.txt"
"$PARDICT" cluster --selftest --requests 60 --seed "$CLUSTER_SEED" \
  > "$SMOKE/cluster2.txt" 2> /dev/null
if ! cmp -s "$SMOKE/cluster.txt" "$SMOKE/cluster2.txt"; then
  echo "ci.sh: cluster selftest not byte-identical for seed $CLUSTER_SEED" >&2
  diff "$SMOKE/cluster.txt" "$SMOKE/cluster2.txt" >&2 || true
  exit 1
fi

# Process-level: the router spawns 3 real `pardict serve` children on
# ephemeral ports, routes a mixed workload against an in-process oracle,
# SIGKILLs one child at the halfway mark, and must still exit 0 with the
# degraded flag raised and every answer equal to the oracle's.
"$PARDICT" cluster --smoke --requests 60 --seed 7 \
  > "$SMOKE/cluster.smoke.txt" 2> /dev/null
grep -q "cluster smoke ok" "$SMOKE/cluster.smoke.txt"
grep -q "degraded responses" "$SMOKE/cluster.smoke.txt"

echo "== store crash-recovery smoke"
# Kill-and-recover over the release binary: a `serve --data-dir` child
# acknowledges half the dictionaries, gets SIGKILLed mid-publish, and is
# restarted from the same directory; every acknowledged dictionary must
# come back with the right digests and the right match answers. The
# summary is byte-identical across runs of one seed and to the committed
# golden copy, so a refactor of the smoke driver cannot change it silently.
STORE_SEED=2026
"$PARDICT" store --smoke --dicts 6 --seed "$STORE_SEED" \
  > "$SMOKE/store.txt" 2> /dev/null
cmp "$SMOKE/store.txt" "tests/golden/store_smoke_$STORE_SEED.txt"
"$PARDICT" store --smoke --dicts 6 --seed "$STORE_SEED" \
  > "$SMOKE/store2.txt" 2> /dev/null
if ! cmp -s "$SMOKE/store.txt" "$SMOKE/store2.txt"; then
  echo "ci.sh: store smoke not byte-identical for seed $STORE_SEED" >&2
  diff "$SMOKE/store.txt" "$SMOKE/store2.txt" >&2 || true
  exit 1
fi

echo "== delta publish smoke"
# The incremental-update twin of the store smoke: publish v1, delta to
# v2 over the wire, SIGKILL mid-delta, restart, and require every
# acknowledged delta to recover to the folded pattern set (digests and
# match answers against the library oracle), then accept another delta.
DELTA_SEED=2027
"$PARDICT" store --smoke --delta --dicts 6 --seed "$DELTA_SEED" \
  > "$SMOKE/delta.txt" 2> /dev/null
cmp "$SMOKE/delta.txt" "tests/golden/delta_smoke_$DELTA_SEED.txt"
"$PARDICT" store --smoke --delta --dicts 6 --seed "$DELTA_SEED" \
  > "$SMOKE/delta2.txt" 2> /dev/null
if ! cmp -s "$SMOKE/delta.txt" "$SMOKE/delta2.txt"; then
  echo "ci.sh: delta smoke not byte-identical for seed $DELTA_SEED" >&2
  diff "$SMOKE/delta.txt" "$SMOKE/delta2.txt" >&2 || true
  exit 1
fi

echo "== trace smoke"
# Seeded traced selftest: export must be byte-identical across two runs
# of one seed, the viewer must render it (exit 0), and a malformed file
# must exit 1.
TRACE_SEED=0x7ACE
"$PARDICT" serve --selftest --requests 24 --trace-seed "$TRACE_SEED" \
  --trace-out "$SMOKE/trace.jsonl" > "$SMOKE/trace.txt" 2> /dev/null
# The summary line (span count, root work) is pinned to a golden copy too.
cmp "$SMOKE/trace.txt" tests/golden/trace_selftest_7ace.txt
"$PARDICT" serve --selftest --requests 24 --trace-seed "$TRACE_SEED" \
  --trace-out "$SMOKE/trace2.jsonl" > /dev/null 2> /dev/null
if ! cmp -s "$SMOKE/trace.jsonl" "$SMOKE/trace2.jsonl"; then
  echo "ci.sh: trace export not byte-identical for seed $TRACE_SEED" >&2
  diff "$SMOKE/trace.jsonl" "$SMOKE/trace2.jsonl" >&2 || true
  exit 1
fi
"$PARDICT" trace "$SMOKE/trace.jsonl" > "$SMOKE/trace.view.txt"
grep -q "spans" "$SMOKE/trace.view.txt"
echo 'not json' > "$SMOKE/trace.bad.jsonl"
if "$PARDICT" trace "$SMOKE/trace.bad.jsonl" > /dev/null 2> /dev/null; then
  echo "ci.sh: malformed trace file viewed cleanly" >&2
  exit 1
fi

echo "== soak smoke slice"
# The un-ignored *_smoke twins of every soak, in release mode (the full
# #[ignore]d suites run via scripts/soak.sh on their own budget).
cargo test -q --release --test soak

echo "ci.sh: all green"
