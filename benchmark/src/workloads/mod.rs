//! The five workloads and what they share: the run's arguments, the
//! repeated set-up, a scratch directory, reply fingerprints, and the rule
//! that turns harness spans into per-layer metrics.

pub mod archive;
pub mod cluster_scatter;
pub mod dict_build;
pub mod match_scan;
pub mod serve_mixed;

use crate::catalogue::PER_LAYER;
use crate::span::{self, Recorder, Span};
use crate::stats;
use pardict_core::segmented::segment_spans;
use pardict_pram::SplitMix64;
use pardict_service::Hit;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What the driver passes.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Also append a result-file row here (what `run.sh` collects).
    pub out: Option<PathBuf>,
}

/// Set-up is done this many times in an untraced run and `setup_s` is the
/// median, so one slow page-cache miss or thread start does not decide it.
const SETUP_REPS: usize = 3;

/// Calls per layer probe; a probe's wall time is the median.
pub const PROBE_REPS: usize = 3;

/// What a workload's run found.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall seconds of each set-up (`setup_s` is their median).
    pub setup_s: Vec<f64>,
    /// Latency of the primary operation (`p50_ms`); +∞ for a failure.
    pub primary_ms: Vec<f64>,
    /// Latency of the contrast operation (`alt_p50_ms`).
    pub contrast_ms: Vec<f64>,
    pub req_per_s: f64,
    pub attempted: u64,
    /// Failed + refused operations + output-check mismatches.
    pub failed: u64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Report {
    pub window: Window,
    pub layer: Layer,
    pub spans: Vec<Span>,
}

/// Per-layer metrics measured on this run, by catalogue name.
#[derive(Debug, Default)]
pub struct Layer(pub BTreeMap<&'static str, f64>);

impl Layer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }
}

/// What every part of a run can read.
pub struct Ctx {
    pub args: Args,
    pub scratch: Scratch,
}

impl Ctx {
    /// Length of the timed section: the traced run halves it to leave room
    /// for the layer probes inside the same wall-clock budget.
    pub fn window_seconds(&self) -> f64 {
        if self.args.trace {
            self.args.seconds / 2.0
        } else {
            self.args.seconds
        }
    }

    /// A seed for one named input stream of this run.
    pub fn seed(&self, stream: u64) -> u64 {
        sub_seed(self.args.seed, stream)
    }

    /// Build the workload's environment (inputs, dictionaries, servers,
    /// warm-up) [`SETUP_REPS`] times, timing each; an earlier environment is
    /// dropped — which stops its servers — before the next is built. The
    /// traced run sets up once.
    pub fn setup<E>(
        &self,
        rec: &mut Recorder,
        mut build: impl FnMut(&mut Recorder, usize) -> E,
    ) -> (E, Vec<f64>) {
        let reps = if self.args.trace { 1 } else { SETUP_REPS };
        let mut env = None;
        let mut seconds = Vec::new();
        for k in 0..reps {
            drop(env.take());
            let (e, ms) = rec.timed("setup", |rec| build(rec, k));
            seconds.push(ms / 1e3);
            env = Some(e);
        }
        (env.expect("at least one set-up"), seconds)
    }
}

/// Run one workload end to end.
pub fn run(args: &Args) -> Result<Report, String> {
    let cx = Ctx {
        args: args.clone(),
        scratch: Scratch::create(&args.workload)?,
    };
    let mut rec = Recorder::new(args.trace);
    let mut layer = Layer::default();
    let window = match args.workload.as_str() {
        "dict-build" => dict_build::run(&cx, &mut rec, &mut layer),
        "match-scan" => match_scan::run(&cx, &mut rec, &mut layer),
        "archive" => archive::run(&cx, &mut rec, &mut layer),
        "serve-mixed" => serve_mixed::run(&cx, &mut rec, &mut layer),
        "cluster-scatter" => cluster_scatter::run(&cx, &mut rec, &mut layer),
        other => return Err(format!("unknown workload {other:?}")),
    };
    layer.set(
        "failed_frac",
        window.failed as f64 / window.attempted.max(1) as f64,
    );
    layer.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        fill_from_spans(rec.spans(), &mut layer.0);
    }
    Ok(Report {
        window,
        layer,
        spans: rec.into_spans(),
    })
}

/// Fill every `<span>.wall_ms|wall_us|work|depth|p50_ms|p95_ms` metric whose
/// span name was recorded and whose value a probe did not set by hand:
/// median (or p95) self time, and the ledger cost of the first such span.
fn fill_from_spans(spans: &[Span], layer: &mut BTreeMap<&'static str, f64>) {
    let selfs = span::self_times(spans);
    for def in &PER_LAYER {
        if layer.contains_key(def.name) {
            continue;
        }
        let Some((prefix, quantity)) = def.name.rsplit_once('.') else {
            continue;
        };
        let ms = span::self_ms_of(spans, &selfs, prefix);
        let Some(first) = spans.iter().find(|s| s.name == prefix) else {
            continue;
        };
        let value = match quantity {
            "wall_ms" | "p50_ms" => stats::median(&ms),
            "wall_us" => stats::median(&ms) * 1e3,
            "p95_ms" => stats::percentile(&ms, 95.0),
            "work" => first.work as f64,
            "depth" => first.depth as f64,
            _ => continue,
        };
        layer.insert(def.name, value);
    }
}

/// Median self time (ms) of the spans called `name`; 0 when none ran.
pub fn span_ms(rec: &Recorder, name: &str) -> f64 {
    let spans = rec.spans();
    stats::median(&span::self_ms_of(spans, &span::self_times(spans), name))
}

/// One SplitMix64 step keyed by `(seed, stream)`: independent input streams
/// from the one `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Draw pattern lists until one cuts into exactly `segments` content-defined
/// segments of at least `min_span` patterns each, and return it.
///
/// `Registry::publish` preprocesses each segment on its own and every query
/// makes one pass over the text per segment, so the segment count — which
/// depends on the patterns' hashes, not on their number — would otherwise
/// move a workload's cost by integer factors from one seed to the next.
/// `draw(attempt)` must be a function of the run's seed and `attempt` only.
pub fn steady_dictionary(
    segments: usize,
    min_span: usize,
    draw: impl FnMut(u64) -> Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    (0..100_000)
        .map(draw)
        .find(|patterns| {
            let spans = segment_spans(patterns);
            spans.len() == segments && spans.iter().all(|s| s.len() >= min_span)
        })
        .expect("some draw has the wanted segment structure")
}

/// FNV-1a, for comparing large replies without keeping them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        self
    }
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a hit list: order, positions, ids and lengths.
pub fn hits_fingerprint(hits: impl IntoIterator<Item = Hit>) -> u64 {
    let mut f = Fnv::default();
    let mut n = 0u64;
    for h in hits {
        f = f.u64(h.pos).u64(u64::from(h.id) << 32 | u64::from(h.len));
        n += 1;
    }
    f.u64(n).finish()
}

/// A directory under `benchmark/out/` for store files, removed on drop, so
/// a run reads and writes only inside its checkout.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create scratch sub-directory");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_seed_and_stream() {
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
    }

    #[test]
    fn hit_fingerprints_see_order_and_content() {
        let h = |pos, id, len| Hit { pos, id, len };
        let a = hits_fingerprint([h(1, 2, 3), h(4, 5, 6)]);
        assert_eq!(a, hits_fingerprint([h(1, 2, 3), h(4, 5, 6)]));
        assert_ne!(a, hits_fingerprint([h(4, 5, 6), h(1, 2, 3)]));
        assert_ne!(a, hits_fingerprint([h(1, 2, 3)]));
        assert_ne!(a, hits_fingerprint([h(1, 2, 3), h(4, 5, 7)]));
    }

    #[test]
    fn span_metrics_fill_by_name() {
        let mut rec = Recorder::new(true);
        for _ in 0..3 {
            rec.timed_note("suffix.tree_build", |_| {
                ((), pardict_pram::Cost { work: 10, depth: 2 }.into())
            });
        }
        let mut layer = BTreeMap::new();
        layer.insert("suffix.tree_build.depth", 99.0); // set by hand: kept
        fill_from_spans(rec.spans(), &mut layer);
        assert_eq!(layer["suffix.tree_build.work"], 10.0);
        assert_eq!(layer["suffix.tree_build.depth"], 99.0);
        assert!(layer.contains_key("suffix.tree_build.wall_ms"));
        assert!(!layer.contains_key("core.dict_build.wall_ms"));
    }

    #[test]
    fn rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
