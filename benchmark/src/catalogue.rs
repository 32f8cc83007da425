//! The benchmark's vocabulary: workload names and every metric name with
//! its unit and direction. `BENCHMARK.json` repeats these; a unit test keeps
//! the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// 0 for per-layer metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
pub const RUN_SECONDS: u32 = 15;

pub const WORKLOADS: [&str; 5] = [
    "dict-build",
    "match-scan",
    "archive",
    "serve-mixed",
    "cluster-scatter",
];

/// Reported by every untraced run of every workload. Each workload has a
/// *primary* and a *contrast* operation (README.md, "Workloads"); `p50_ms`
/// and `alt_p50_ms` are their median latencies. The bounds are what this
/// sandbox can resolve in one run (README.md, "Bounds").
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("req_per_s", "1/s", Better::Higher, 0.25),
    e2e("p50_ms", "ms", Better::Lower, 0.25),
    e2e("alt_p50_ms", "ms", Better::Lower, 0.25),
];

/// Reported by every traced run; a metric the workload does not measure
/// reads 0 there. `<span>.wall_ms|wall_us|work|depth` entries are filled
/// from the harness spans of that name (median self time / ledger cost);
/// the rest are set by name from the workload's probes.
pub const PER_LAYER: [MetricDef; 125] = [
    // ---- single-workload user metrics (see README.md, "Why five") ----
    hi("build_kb_s", "KB/s"),
    hi("match_mb_s", "MB/s"),
    hi("compress_mb_s", "MB/s"),
    hi("decompress_mb_s", "MB/s"),
    hi("grep_mb_s", "MB/s"),
    lo("range_grep_ms", "ms"),
    lo("ratio_pct", "%"),
    lo("p95_ms", "ms"),
    lo("write_p50_ms", "ms"),
    lo("failed_frac", "fraction"),
    lo("peak_rss_mb", "MB"),
    // ---- dict-build ----
    lo("suffix.tree_build.wall_ms", "ms"),
    lo("suffix.tree_build.work", "count"),
    lo("suffix.tree_build.depth", "count"),
    lo("core.dsm_build.dna.wall_ms", "ms"),
    lo("core.dsm_build.lower.wall_ms", "ms"),
    lo("core.separator_tree.work", "count"),
    lo("ancestors.colored.dna.work", "count"),
    lo("ancestors.colored.dna.depth", "count"),
    lo("ancestors.colored.lower.work", "count"),
    lo("ancestors.colored_naive_build.wall_ms", "ms"),
    lo("ancestors.colored_veb_build.wall_ms", "ms"),
    lo("core.dict_build.wall_ms", "ms"),
    lo("core.dict_build.work", "count"),
    lo("core.dict_build.depth", "count"),
    lo("core.step2_build.work", "count"),
    lo("core.step2_build.wall_ms", "ms"),
    lo("core.ac_build.wall_ms", "ms"),
    lo("core.segmented_build.wall_ms", "ms"),
    lo("core.apply_delta_1.wall_ms", "ms"),
    lo("service.registry_publish_cold.wall_ms", "ms"),
    lo("service.registry_publish_cold.lower.wall_ms", "ms"),
    lo("service.registry_publish_cached.wall_us", "us"),
    lo("store.log_publish.wall_ms", "ms"),
    lo("store.wal_bytes_per_dict_byte", "ratio"),
    lo("store.recover.wall_ms", "ms"),
    lo("store.compact.wall_ms", "ms"),
    lo("pram.par_over_seq.build", "ratio"),
    // ---- match-scan ----
    lo("core.substring_match.wall_ms", "ms"),
    lo("core.substring_match.work", "count"),
    lo("core.substring_match.depth", "count"),
    lo("core.match_text.dense.wall_ms", "ms"),
    lo("core.match_text.dense.work", "count"),
    lo("core.match_text.sparse.wall_ms", "ms"),
    lo("core.match_text.sparse.work", "count"),
    lo("core.step2_lookup.wall_ms", "ms"),
    lo("core.find_all.wall_ms", "ms"),
    hi("core.find_all.hits", "count"),
    lo("core.check.wall_ms", "ms"),
    lo("core.check.work", "count"),
    lo("core.ac_match.wall_ms", "ms"),
    lo("service.engine_match.wall_ms", "ms"),
    lo("service.engine_match.sparse.wall_ms", "ms"),
    lo("service.engine_match.queued_us", "us"),
    lo("service.engine_match.exec_ms", "ms"),
    lo("pram.par_over_seq.match", "ratio"),
    // ---- archive ----
    lo("compress.lz1_block.wall_ms", "ms"),
    lo("compress.lz1_block.work", "count"),
    lo("compress.lz1_block.depth", "count"),
    lo("compress.lz1_block.words.wall_ms", "ms"),
    lo("suffix.tree_build.block.wall_ms", "ms"),
    lo("suffix.tree_build.block.work", "count"),
    lo("compress.lpf_from_tree.wall_ms", "ms"),
    lo("compress.lpf_from_tree.work", "count"),
    lo("compress.encode_tokens.wall_us", "us"),
    lo("compress.decode_tokens.wall_us", "us"),
    lo("compress.lz1_decompress_block.wall_ms", "ms"),
    lo("compress.lz1_decompress_block.work", "count"),
    lo("compress.phrases", "count"),
    lo("stream.compress_stream.wall_ms", "ms"),
    lo("stream.compress_stream.work", "count"),
    lo("stream.compress_stream.depth", "count"),
    lo("stream.wave_overhead_ms", "ms"),
    lo("stream.open.wall_us", "us"),
    lo("stream.decode_block.wall_ms", "ms"),
    lo("stream.decode_block.work", "count"),
    lo("stream.read_all.wall_ms", "ms"),
    lo("stream.read_range_4k.wall_ms", "ms"),
    lo("stream.container_bytes", "count"),
    lo("stream.stored_blocks", "count"),
    lo("search.grep_container.wall_ms", "ms"),
    lo("search.grep_container.work", "count"),
    lo("search.grep_container.depth", "count"),
    lo("search.grep_range_4k.wall_ms", "ms"),
    lo("search.grep_range_4k.blocks_searched", "count"),
    lo("search.decode_ms", "ms"),
    lo("search.match_ms", "ms"),
    lo("search.stitch_ms", "ms"),
    hi("exec.pipeline_gain", "ratio"),
    lo("pram.par_over_seq.compress", "ratio"),
    // ---- serve-mixed ----
    lo("service.wire_encode_req.wall_us", "us"),
    lo("service.wire_decode_req.wall_us", "us"),
    lo("service.wire_encode_resp.wall_us", "us"),
    lo("service.wire_decode_resp.wall_us", "us"),
    lo("service.wire_bytes_per_req", "count"),
    lo("service.ping_rtt.p50_ms", "ms"),
    lo("service.engine_direct.p50_ms", "ms"),
    lo("service.engine_direct.p95_ms", "ms"),
    lo("service.engine_queued.p50_us", "us"),
    lo("service.engine_exec.p50_us", "us"),
    hi("service.engine_batch_mean", "count"),
    lo("service.lane_seq_frac", "fraction"),
    lo("service.transport_share", "fraction"),
    lo("service.tcp_match_small.p50_ms", "ms"),
    lo("service.tcp_match_4k.p50_ms", "ms"),
    lo("service.tcp_grep.p50_ms", "ms"),
    lo("service.tcp_compress.p50_ms", "ms"),
    lo("service.registry_publish_delta.wall_ms", "ms"),
    lo("store.log_delta.wall_ms", "ms"),
    lo("service.rejected", "count"),
    lo("trace.overhead_pct", "%"),
    lo("trace.spans_per_req", "count"),
    lo("trace.dropped", "count"),
    // ---- cluster-scatter ----
    lo("cluster.backend_direct_op.p50_ms", "ms"),
    lo("cluster.router_op.p50_ms", "ms"),
    lo("cluster.front_op.p50_ms", "ms"),
    lo("cluster.router_overhead_ms", "ms"),
    lo("cluster.front_overhead_ms", "ms"),
    lo("cluster.grepz_scatter.p50_ms", "ms"),
    lo("cluster.grepz_single.p50_ms", "ms"),
    lo("stream.slice_container.wall_us", "us"),
    lo("cluster.publish.wall_ms", "ms"),
    lo("cluster.retries", "count"),
    lo("cluster.failovers", "count"),
    hi("cluster.scatter_gathers", "count"),
];

/// Ledger and count metrics: a deterministic program must repeat these
/// exactly for one seed, and `repeat` fails if it does not.
pub fn is_exact(def: &MetricDef) -> bool {
    def.unit == "count"
        && !matches!(
            def.name,
            // Measured over a timed window, so they scale with its length.
            "service.rejected" | "cluster.scatter_gathers" | "service.engine_batch_mean"
        )
        || def.name == "ratio_pct"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == 0.25));
    }

    /// `BENCHMARK.json` at the repo root is the contract the driver reads;
    /// the binary must print exactly what it lists.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().as_arr();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.as_str())
                );
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    (key == "end_to_end").then_some(d.bound),
                    "{}",
                    d.name
                );
            }
        }
        for w in doc.get("workloads").unwrap().as_arr() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            doc.get("paths").unwrap().as_arr(),
            [Json::Str("benchmark".into())]
        );
    }
}
