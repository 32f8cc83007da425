//! Versioned dictionary registry with hot-swap and a preprocessing cache.
//!
//! The paper's serving story (§3) is *preprocess once, match many*: a
//! dictionary costs `O(d)` work to preprocess and each text then costs
//! `O(n)` work regardless of how many texts follow. The registry is where
//! that amortization lives for a long-running service:
//!
//! * **Named dictionaries.** Tenants publish pattern sets under a name and
//!   route requests by that name.
//! * **Versioned hot-swap.** Re-publishing a name atomically installs a new
//!   [`DictVersion`] behind an `Arc`. In-flight requests that already
//!   resolved the previous version keep using it untouched — every reply
//!   carries the version it was computed against, so callers can tell.
//! * **Preprocessing cache.** Builds are keyed by a content hash of the
//!   pattern set; republishing identical content (same tenant or another)
//!   reuses the finished matcher instead of paying `O(d)` again.
//! * **One matcher per query.** Segments are the unit of change, one
//!   matcher is the unit of query. Publishes and deltas build and reuse
//!   segments only, but every segment costs a query its own pass over the
//!   text, so `Preprocessed::match_verified` serves a `Match` from one
//!   whole-dictionary matcher once a request brings enough text to repay
//!   building it. The build happens once per preprocessed version, inside
//!   the request that qualifies first, and is charged to that request;
//!   later matches scan the text once. The registry is the one place that
//!   picks which structure answers.

use crate::metrics::Metrics;
use crate::types::ServiceError;
use pardict_core::{
    apply_delta_patterns, list_hash, DictDelta, DictMatcher, Matches, SegmentedMatcher,
};
use pardict_pram::{Cost, Pram};
use pardict_store::Store;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Max distinct pattern-set builds retained by the preprocessing cache.
const CACHE_CAP: usize = 32;

/// A request consolidates a multi-segment dictionary when its text length
/// times the segments past the first reaches `REPAY` per dictionary byte.
/// The whole-dictionary matcher builds on exact arrays at ≈ 350–400
/// ledger ops per dictionary byte (EXPERIMENTS E14, `build/d` 349–398),
/// and each segment past the first costs a query ≈ 14 ops per text byte
/// (E14), so the build repays itself once `n · (segments − 1) · 14 ≥
/// 398 · d`: `n · (segments − 1) ≥ 28.4 · d`, rounded to 28. One request
/// must repay the build on its own, so a stream of small requests never
/// consolidates and a delta stays cheap.
const REPAY: usize = 28;

/// A fully preprocessed pattern set: canonical segments, each holding a
/// Theorem 3.1 matcher for the batched lane, plus one Aho–Corasick
/// automaton over the whole list for the sequential small-request lane,
/// occurrence lists and the Las Vegas fallback (built once per version, so
/// those stay amortized too). Segmentation is what makes
/// [`Registry::publish_delta`] cheap: an applied delta rebuilds only the
/// segments its patterns touch and `Arc`-shares the rest, while staying
/// structurally identical to a from-scratch build of the same final set.
#[derive(Debug)]
pub struct Preprocessed {
    /// The segmented randomized parallel matcher (Theorem 3.1 per
    /// segment) plus one exact automaton. Its `identity()` is what
    /// `dicts` digests ship, and its `build_cost()` what a publish reports.
    pub seg: SegmentedMatcher,
    /// One Theorem 3.1 matcher over the whole pattern list, built by the
    /// first `Match` that repays it (see [`Preprocessed::match_verified`]);
    /// publishes and deltas leave it unset.
    pub(crate) whole: OnceLock<DictMatcher>,
}

impl Preprocessed {
    /// The patterns, in global-id order.
    #[must_use]
    pub fn patterns(&self) -> Vec<Vec<u8>> {
        self.seg.patterns()
    }

    /// Las Vegas matching for a served `Match`: the whole-dictionary
    /// matcher's Monte Carlo pass vetted by
    /// [`SegmentedMatcher::vet_whole`] when this query consolidates (see
    /// `REPAY`), else [`SegmentedMatcher::match_text_verified`]. Both
    /// give the same matches; the flag says the automaton answered.
    ///
    /// The consolidating query builds the matcher on `pram`, so the build
    /// is charged to it, under a `consolidate` trace span carrying the
    /// build's cost. A query racing it waits for that build and is charged
    /// nothing for it. A single-segment dictionary never consolidates: its
    /// one segment already is the whole matcher.
    #[must_use]
    pub(crate) fn match_verified(&self, pram: &Pram, text: &[u8]) -> (Matches, bool) {
        match self.consolidated(pram, text.len()) {
            Some(whole) => {
                let m = whole.match_text(pram, text);
                #[cfg(test)]
                let m = match tests::TAMPER.with(std::cell::Cell::take) {
                    Some(tamper) => tamper(whole, text, m),
                    None => m,
                };
                self.seg.vet_whole(pram, whole, text, m)
            }
            None => self.seg.match_text_verified(pram, text),
        }
    }

    /// The whole-dictionary matcher, if a query over `n` text bytes should
    /// use it: when it is built already, or when `n` repays building it now.
    fn consolidated(&self, pram: &Pram, n: usize) -> Option<&DictMatcher> {
        let extra = self.seg.num_segments() - 1;
        if extra == 0 {
            return None;
        }
        if let Some(whole) = self.whole.get() {
            return Some(whole);
        }
        let d: usize = self
            .seg
            .segments()
            .map(|s| s.matcher().dictionary().total_len())
            .sum();
        if n.saturating_mul(extra) < REPAY * d {
            return None;
        }
        Some(self.whole.get_or_init(|| {
            let span = pardict_trace::scoped_span("consolidate", 0);
            let (whole, cost) = pram.metered(|p| self.seg.whole_matcher(p));
            span.finish(cost);
            whole
        }))
    }
}

/// One installed version of a named dictionary.
#[derive(Debug)]
pub struct DictVersion {
    /// Registry name this version is installed under.
    pub name: String,
    /// Monotone per-name version number, starting at 1.
    pub version: u64,
    /// Shared preprocessed state (possibly shared with other names via the
    /// content cache).
    pub pre: Arc<Preprocessed>,
}

/// What [`Registry::publish`] or [`Registry::publish_delta`] did.
#[derive(Debug, Clone, Copy)]
pub struct PublishOutcome {
    /// Version now current for the name.
    pub version: u64,
    /// True when the preprocessing cache supplied the build.
    pub cache_hit: bool,
    /// Ledger cost of preprocessing every segment of the installed
    /// version, reused and cached segments at their original cost.
    pub build_cost: Cost,
}

/// Named, versioned dictionary store.
#[derive(Debug)]
pub struct Registry {
    entries: RwLock<HashMap<String, Arc<DictVersion>>>,
    /// Content-hash → preprocessed build; bounded FIFO eviction.
    cache: Mutex<BuildCache>,
    metrics: Arc<Metrics>,
    /// Optional durable backing: when attached, every publish/retire is
    /// logged (and fsync'd) *before* the in-memory swap, so an
    /// acknowledgement implies the change survives a crash. Locked after
    /// `entries` — the write lock serializes publishes, which keeps WAL
    /// order identical to version order.
    store: Mutex<Option<Store>>,
}

#[derive(Debug, Default)]
struct BuildCache {
    by_hash: HashMap<u64, Arc<Preprocessed>>,
    order: Vec<u64>,
}

impl BuildCache {
    fn get(&self, hash: u64) -> Option<Arc<Preprocessed>> {
        self.by_hash.get(&hash).cloned()
    }

    fn insert(&mut self, hash: u64, pre: Arc<Preprocessed>) {
        if self.by_hash.insert(hash, pre).is_none() {
            self.order.push(hash);
            if self.order.len() > CACHE_CAP {
                let evicted = self.order.remove(0);
                self.by_hash.remove(&evicted);
            }
        }
    }
}

/// Make `pre` the current version of `name` (callers hold the write lock),
/// and say what was installed.
fn install(
    entries: &mut HashMap<String, Arc<DictVersion>>,
    name: &str,
    version: u64,
    (pre, cache_hit): (Arc<Preprocessed>, bool),
) -> PublishOutcome {
    let outcome = PublishOutcome {
        version,
        cache_hit,
        build_cost: pre.seg.build_cost(),
    };
    let name = name.to_string();
    let installed = DictVersion {
        name: name.clone(),
        version,
        pre,
    };
    entries.insert(name, Arc::new(installed));
    outcome
}

impl Registry {
    /// Empty registry recording into `metrics`.
    #[must_use]
    pub fn new(metrics: Arc<Metrics>) -> Self {
        Self {
            entries: RwLock::new(HashMap::new()),
            cache: Mutex::new(BuildCache::default()),
            metrics,
            store: Mutex::new(None),
        }
    }

    /// Attach a durable store. From here on every accepted publish and
    /// retire is logged to it before the in-memory swap — the caller
    /// normally opens the store, replays its contents through
    /// [`Registry::restore`], then attaches.
    pub fn attach_store(&self, store: Store) {
        *self.store.lock().expect("store poisoned") = Some(store);
    }

    fn validate(name: &str, patterns: &[Vec<u8>]) -> Result<(), ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::BadRequest("empty dictionary name".into()));
        }
        if patterns.is_empty() {
            return Err(ServiceError::BadRequest("empty pattern set".into()));
        }
        for (i, p) in patterns.iter().enumerate() {
            if p.is_empty() {
                return Err(ServiceError::BadRequest(format!("pattern {i} is empty")));
            }
            if p.contains(&0) {
                return Err(ServiceError::BadRequest(format!(
                    "pattern {i} contains NUL bytes (reserved for the sentinel)"
                )));
            }
        }
        Ok(())
    }

    /// The one place a version is built: fetch the preprocessed state for
    /// `finals` from the cache (a hit only when the cached build holds the
    /// same list, not just the same hash), or build it on `Pram::par()`, sharing
    /// `parent`'s segment for every pattern run it already holds and
    /// building the rest side by side, and cache it. Counts one publish
    /// plus the cache hit or miss; the flag reports a hit.
    fn build(
        &self,
        finals: Vec<Vec<u8>>,
        parent: Option<&SegmentedMatcher>,
    ) -> (Arc<Preprocessed>, bool) {
        self.metrics.publishes.inc();
        let key = list_hash(&finals);
        let cached = self.cache.lock().expect("cache poisoned").get(key);
        // The key is a 64-bit hash shared by every name: a hit must also
        // hold the very list, or a colliding list would be served another
        // tenant's matcher.
        if let Some(pre) = cached.filter(|pre| {
            pre.seg
                .segments()
                .flat_map(|s| s.patterns())
                .eq(finals.iter())
        }) {
            self.metrics.cache_hits.inc();
            return (pre, true);
        }
        self.metrics.cache_misses.inc();
        // Segment seeds derive from each segment's content hash, so a
        // build is the same whichever parent it reuses.
        let (seg, _) = SegmentedMatcher::build_with_reuse(&Pram::par(), finals, parent);
        let pre = Arc::new(Preprocessed {
            seg,
            whole: OnceLock::new(),
        });
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(key, Arc::clone(&pre));
        (pre, false)
    }

    /// Publish `patterns` under `name`, returning the installed version.
    ///
    /// Validates before building (`Dictionary::new` panics on empty or
    /// NUL-containing patterns, so the service must reject those here).
    /// The build runs on a `Pram::par()` as one super-step over the
    /// segments (they build side by side), and its ledger cost, Σ work and
    /// the deepest segment's depth, is recorded in the outcome.
    ///
    /// # Errors
    /// [`ServiceError::BadRequest`] for an empty set, an empty pattern, or
    /// a pattern containing NUL.
    pub fn publish(
        &self,
        name: &str,
        patterns: Vec<Vec<u8>>,
    ) -> Result<PublishOutcome, ServiceError> {
        Self::validate(name, &patterns)?;
        let logged = patterns.clone();
        let built = self.build(patterns, None);

        let mut entries = self.entries.write().expect("registry poisoned");
        let version = entries.get(name).map_or(1, |v| v.version + 1);
        // Durability before acknowledgement: the WAL append (fsync'd)
        // must succeed before the swap is visible. On failure nothing
        // changed in memory, so the error reply is truthful.
        if let Some(store) = self.store.lock().expect("store poisoned").as_mut() {
            store
                .log_publish(name, version, &logged)
                .map_err(|e| ServiceError::Storage(e.to_string()))?;
        }
        Ok(install(&mut entries, name, version, built))
    }

    /// Publish the next version of `name` as a delta against
    /// `parent_version`, re-preprocessing only the segments the delta
    /// touches (untouched segments are `Arc`-shared with the parent). The
    /// result is structurally identical to a full publish of the
    /// post-delta pattern set — same segments, same seeds, same query
    /// costs, same identity — so caches, digests, and cluster revival
    /// cannot tell the two paths apart. When a store is attached, only
    /// the delta is logged (WAL bytes proportional to the edit, not the
    /// dictionary).
    ///
    /// # Errors
    /// [`ServiceError::NoSuchDictionary`] when `name` is not installed;
    /// [`ServiceError::BadRequest`] for an empty delta, a parent-version
    /// mismatch (including a concurrent publish racing the delta), or a
    /// delta that fails to apply (see [`pardict_core::DeltaError`]);
    /// [`ServiceError::Storage`] if the WAL append fails (nothing is
    /// installed then).
    pub fn publish_delta(
        &self,
        name: &str,
        parent_version: u64,
        delta: &DictDelta,
    ) -> Result<PublishOutcome, ServiceError> {
        if delta.is_empty() {
            return Err(ServiceError::BadRequest("empty delta".into()));
        }
        let cur = self
            .current(name)
            .ok_or_else(|| ServiceError::NoSuchDictionary(name.to_string()))?;
        if cur.version != parent_version {
            return Err(ServiceError::BadRequest(format!(
                "delta parent version {parent_version} does not match current version {}",
                cur.version
            )));
        }
        let finals = apply_delta_patterns(cur.pre.seg.segments().flat_map(|s| s.patterns()), delta)
            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let built = self.build(finals, Some(&cur.pre.seg));

        let mut entries = self.entries.write().expect("registry poisoned");
        // Re-check under the write lock: a concurrent publish may have
        // swapped the parent out from under the optimistic build above.
        match entries.get(name) {
            Some(v) if v.version == parent_version => {}
            _ => {
                return Err(ServiceError::BadRequest(format!(
                    "delta parent version {parent_version} was superseded concurrently"
                )))
            }
        }
        let version = parent_version + 1;
        if let Some(store) = self.store.lock().expect("store poisoned").as_mut() {
            store
                .log_delta(name, version, &delta.adds, &delta.removes)
                .map_err(|e| ServiceError::Storage(e.to_string()))?;
        }
        Ok(install(&mut entries, name, version, built))
    }

    /// Reinstall a dictionary recovered from a durable store at its
    /// persisted version, *without* writing a new WAL record. Goes
    /// through the same validation, build cache, and metrics as a live
    /// publish, so the accounting identities keep holding.
    ///
    /// # Errors
    /// [`ServiceError::BadRequest`] if the recovered patterns fail
    /// validation (a tampered-but-CRC-valid store must not panic the
    /// build).
    pub fn restore(
        &self,
        name: &str,
        version: u64,
        patterns: Vec<Vec<u8>>,
    ) -> Result<(), ServiceError> {
        Self::validate(name, &patterns)?;
        let built = self.build(patterns, None);
        let mut entries = self.entries.write().expect("registry poisoned");
        install(&mut entries, name, version, built);
        Ok(())
    }

    /// Remove `name` from the registry (logging the retire durably
    /// first, when a store is attached). Returns whether it existed.
    ///
    /// # Errors
    /// [`ServiceError::Storage`] if the WAL append fails — the entry
    /// then stays installed.
    pub fn retire(&self, name: &str) -> Result<bool, ServiceError> {
        let mut entries = self.entries.write().expect("registry poisoned");
        if !entries.contains_key(name) {
            return Ok(false);
        }
        if let Some(store) = self.store.lock().expect("store poisoned").as_mut() {
            store
                .log_retire(name)
                .map_err(|e| ServiceError::Storage(e.to_string()))?;
        }
        entries.remove(name);
        self.metrics.retires.inc();
        Ok(true)
    }

    /// `(name, version, identity)` for every installed dictionary, sorted
    /// by name — what the `dicts` wire op ships so a cluster router can
    /// tell recovered-from-disk state from missing state. The identity is
    /// the version's [`SegmentedMatcher::identity`], the multiset identity
    /// of its patterns, equal along every path to the same set; the
    /// order-sensitive [`list_hash`] stays the cache key, so permuted lists
    /// never share a build.
    #[must_use]
    pub fn dict_digests(&self) -> Vec<(String, u64, u64)> {
        let mut out: Vec<(String, u64, u64)> = self
            .entries
            .read()
            .expect("registry poisoned")
            .values()
            .map(|v| (v.name.clone(), v.version, v.pre.seg.identity()))
            .collect();
        out.sort();
        out
    }

    /// Resolve the current version of `name`. The returned `Arc` pins that
    /// version for the caller even if a publish swaps it out immediately
    /// after — that is the hot-swap guarantee.
    #[must_use]
    pub fn current(&self, name: &str) -> Option<Arc<DictVersion>> {
        self.entries
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
    }

    /// Registered names, unordered.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pardict_core::multiset_identity;
    use pardict_core::segmented::segment_spans;
    use pardict_workloads::{random_dictionary, text_with_planted_matches, Alphabet};
    use std::cell::Cell;

    /// A Monte Carlo answer rewrite, standing in for a fingerprint collision.
    type Tamper = fn(&DictMatcher, &[u8], Matches) -> Matches;

    thread_local! {
        /// Test seam: when set, rewrites this thread's next consolidated
        /// Monte Carlo answer before it is vetted.
        pub(crate) static TAMPER: Cell<Option<Tamper>> = const { Cell::new(None) };
    }

    /// A [`Tamper`]: claims pattern 0 at the first position it does not
    /// occur at.
    pub(crate) fn false_claim(whole: &DictMatcher, text: &[u8], m: Matches) -> Matches {
        let p = &whole.dictionary().patterns()[0];
        let at = (0..text.len() - p.len())
            .find(|&i| !text[i..].starts_with(p))
            .expect("the pattern is absent somewhere");
        let mut v = m.as_slice().to_vec();
        v[at] = Some(pardict_core::Match {
            id: 0,
            len: p.len() as u32,
        });
        Matches::new(v)
    }

    /// The first seeded DNA dictionary of `k` patterns of length 4–12 that
    /// cuts into exactly `segments` canonical segments.
    pub(crate) fn dna_dictionary(k: usize, segments: usize) -> Vec<Vec<u8>> {
        (0u64..)
            .map(|seed| random_dictionary(seed, k, 4, 12, Alphabet::dna()))
            .find(|p| segment_spans(p).len() == segments)
            .expect("some draw cuts into the wanted number of segments")
    }

    fn dna_text(patterns: &[Vec<u8>], n: usize) -> Vec<u8> {
        text_with_planted_matches(n as u64, patterns, n, 25, Alphabet::dna())
    }

    /// Dictionary bytes.
    fn d(patterns: &[Vec<u8>]) -> usize {
        patterns.iter().map(Vec::len).sum()
    }

    /// What building `pre`'s whole-dictionary matcher costs.
    pub(crate) fn whole_build_cost(pre: &Preprocessed) -> Cost {
        Pram::seq().metered(|p| pre.seg.whole_matcher(p)).1
    }

    /// A text that repays a two-segment dictionary's whole matcher.
    pub(crate) fn repaying_text(patterns: &[Vec<u8>]) -> Vec<u8> {
        dna_text(patterns, REPAY * d(patterns))
    }

    fn pats(ss: &[&str]) -> Vec<Vec<u8>> {
        ss.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn installed(patterns: Vec<Vec<u8>>) -> Arc<Preprocessed> {
        let reg = Registry::new(Arc::new(Metrics::default()));
        reg.publish("d", patterns).unwrap();
        Arc::clone(&reg.current("d").unwrap().pre)
    }

    #[test]
    fn small_matches_on_a_two_segment_dictionary_never_consolidate() {
        // The serving shape: ≈ 4 KB over two segments, 4 KiB requests.
        let patterns = dna_dictionary(500, 2);
        let pre = installed(patterns.clone());
        let text = dna_text(&patterns, 4096);
        for _ in 0..3 {
            let pram = Pram::par();
            let reply = pre.match_verified(&pram, &text);
            assert_eq!(reply, (pre.seg.ac_match(&text), false));
            let seq = Pram::seq();
            let _ = pre.seg.match_text_verified(&seq, &text);
            assert_eq!(pram.cost(), seq.cost(), "served as segments");
        }
        assert!(pre.whole.get().is_none());
    }

    #[test]
    fn a_repaying_request_builds_the_whole_matcher_once_even_when_raced() {
        let patterns = dna_dictionary(150, 2);
        let pre = installed(patterns.clone());
        let text = repaying_text(&patterns);
        let build = whole_build_cost(&pre);
        let go = std::sync::Barrier::new(2);
        let raced: Vec<((Matches, bool), Cost)> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        go.wait();
                        Pram::par().metered(|p| pre.match_verified(p, &text))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(pre.whole.get().is_some());
        let (reply, query) = Pram::par().metered(|p| pre.match_verified(p, &text));
        assert_eq!(reply, (pre.seg.ac_match(&text), false));
        assert_eq!(raced[0].0, reply);
        assert_eq!(raced[1].0, reply);
        // Exactly one racer paid for the build; the other waited for free.
        let mut works = [raced[0].1.work, raced[1].1.work];
        works.sort_unstable();
        assert_eq!(works, [query.work, query.work + build.work]);
    }

    #[test]
    fn a_delta_installs_its_version_without_the_whole_matcher() {
        let patterns = dna_dictionary(150, 2);
        let reg = Registry::new(Arc::new(Metrics::default()));
        reg.publish("d", patterns.clone()).unwrap();
        let held = reg.current("d").unwrap();
        let text = repaying_text(&patterns);
        let _ = held.pre.match_verified(&Pram::par(), &text);
        assert!(held.pre.whole.get().is_some());
        let delta = DictDelta {
            adds: pats(&["gattacagattaca"]),
            removes: vec![patterns[3].clone()],
        };
        reg.publish_delta("d", 1, &delta).unwrap();
        let cur = reg.current("d").unwrap();
        assert_eq!(cur.version, 2);
        assert!(cur.pre.whole.get().is_none());
        assert!(held.pre.whole.get().is_some(), "the held parent keeps it");
        assert_eq!(
            held.pre.match_verified(&Pram::par(), &text),
            (held.pre.seg.ac_match(&text), false)
        );
        assert_eq!(
            cur.pre.match_verified(&Pram::par(), &text),
            (cur.pre.seg.ac_match(&text), false)
        );
    }

    #[test]
    fn a_single_segment_dictionary_never_consolidates() {
        let patterns = dna_dictionary(24, 1);
        let pre = installed(patterns.clone());
        let text = dna_text(&patterns, 2 * REPAY * d(&patterns));
        let pram = Pram::par();
        let reply = pre.match_verified(&pram, &text);
        let seq = Pram::seq();
        assert_eq!(reply, pre.seg.match_text_verified(&seq, &text));
        assert_eq!(pram.cost(), seq.cost(), "bit-identical charges");
        assert!(pre.whole.get().is_none());
    }

    #[test]
    fn publish_versions_are_monotone() {
        let reg = Registry::new(Arc::new(Metrics::default()));
        let v1 = reg.publish("d", pats(&["abc", "bc"])).unwrap();
        assert_eq!(v1.version, 1);
        assert!(!v1.cache_hit);
        let v2 = reg.publish("d", pats(&["xyz"])).unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(reg.current("d").unwrap().version, 2);
    }

    #[test]
    fn identical_content_hits_the_cache_across_names() {
        let m = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&m));
        reg.publish("a", pats(&["needle", "pin"])).unwrap();
        let out = reg.publish("b", pats(&["needle", "pin"])).unwrap();
        assert!(out.cache_hit);
        assert_eq!(m.cache_hits.get(), 1);
        // Same preprocessed object is shared.
        let a = reg.current("a").unwrap();
        let b = reg.current("b").unwrap();
        assert!(Arc::ptr_eq(&a.pre, &b.pre));
    }

    #[test]
    fn a_cache_entry_under_a_colliding_key_is_not_served() {
        let m = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&m));
        let (theirs, mine) = (pats(&["needle", "pin"]), pats(&["hay", "haystack", "pi"]));
        // Another tenant's build filed under this list's key, as a hash
        // collision would file it.
        reg.cache
            .lock()
            .unwrap()
            .insert(list_hash(&mine), installed(theirs));
        let out = reg.publish("mine", mine.clone()).unwrap();
        assert!(!out.cache_hit);
        let cur = reg.current("mine").unwrap();
        assert_eq!(cur.pre.patterns(), mine);
        let cached = reg.cache.lock().unwrap().get(list_hash(&mine)).unwrap();
        assert!(
            Arc::ptr_eq(&cached, &cur.pre),
            "the new build replaced the entry"
        );
        let text = b"a haystack with a pin in it";
        let want = SegmentedMatcher::build(&Pram::seq(), mine).ac_match(text);
        assert_eq!(cur.pre.match_verified(&Pram::par(), text).0, want);
        assert_eq!(
            (m.publishes.get(), m.cache_hits.get(), m.cache_misses.get()),
            (1, 0, 1)
        );
        m.check_accounting(true).unwrap();
    }

    #[test]
    fn old_version_survives_swap_while_held() {
        let reg = Registry::new(Arc::new(Metrics::default()));
        reg.publish("d", pats(&["old"])).unwrap();
        let held = reg.current("d").unwrap();
        reg.publish("d", pats(&["new"])).unwrap();
        assert_eq!(held.version, 1);
        assert_eq!(held.pre.patterns()[0], b"old".to_vec());
        assert_eq!(reg.current("d").unwrap().version, 2);
    }

    #[test]
    fn invalid_pattern_sets_are_rejected_not_panicking() {
        let reg = Registry::new(Arc::new(Metrics::default()));
        assert!(reg.publish("d", vec![]).is_err());
        assert!(reg.publish("d", vec![vec![]]).is_err());
        assert!(reg.publish("d", vec![vec![b'a', 0, b'b']]).is_err());
        assert!(reg.publish("", pats(&["x"])).is_err());
    }

    #[test]
    fn delta_publish_advances_version_and_matches_full_publish() {
        let m = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&m));
        reg.publish("d", pats(&["alpha", "beta", "gamma"])).unwrap();
        let delta = pardict_core::DictDelta {
            adds: pats(&["delta"]),
            removes: pats(&["beta"]),
        };
        let out = reg.publish_delta("d", 1, &delta).unwrap();
        assert_eq!(out.version, 2);
        let cur = reg.current("d").unwrap();
        assert_eq!(cur.pre.seg.num_segments(), 1); // small dict: one segment
        assert_eq!(cur.pre.patterns(), pats(&["alpha", "gamma", "delta"]));
        // A separate full publish of the same final set shares identity
        // and structure (and in fact the cached build).
        let full = Registry::new(Arc::new(Metrics::default()));
        full.publish("d", pats(&["alpha", "gamma", "delta"]))
            .unwrap();
        assert_eq!(
            full.current("d").unwrap().pre.seg.identity(),
            cur.pre.seg.identity()
        );
        // Accounting identity holds across the mixed publish paths.
        assert_eq!(m.publishes.get(), m.cache_hits.get() + m.cache_misses.get());
    }

    #[test]
    fn a_delta_and_its_inverse_take_the_one_write_path() {
        let m = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&m));
        let first = dna_dictionary(150, 2);
        let last = first.last().unwrap().clone();
        assert_eq!(first.iter().filter(|p| **p == last).count(), 1);
        // Each step: the digest is the live list's multiset identity, and
        // the reported cost is a scratch publish's of that list.
        let check = |out: PublishOutcome| {
            let live = reg.current("d").unwrap().pre.patterns();
            assert_eq!(reg.dict_digests()[0].2, multiset_identity(&live));
            let scratch = Registry::new(Arc::new(Metrics::default()));
            assert_eq!(
                out.build_cost,
                scratch.publish("d", live).unwrap().build_cost
            );
        };

        let out = reg.publish("d", first.clone()).unwrap();
        assert!(!out.cache_hit);
        check(out);
        let v1 = reg.current("d").unwrap();

        // There: the last pattern out, a new one in, so only the last
        // segment is rebuilt.
        let there = DictDelta {
            adds: pats(&["gattacagattaca"]),
            removes: vec![last.clone()],
        };
        let out = reg.publish_delta("d", 1, &there).unwrap();
        assert!(!out.cache_hit);
        check(out);
        let v2 = reg.current("d").unwrap();
        assert_eq!(
            v2.pre.patterns(),
            apply_delta_patterns(&first, &there).unwrap()
        );
        let firsts = |v: &DictVersion| Arc::clone(v.pre.seg.segments().next().unwrap());
        assert!(Arc::ptr_eq(&firsts(&v1), &firsts(&v2)));

        // And back to the first list: the cache's build of it.
        let back = DictDelta {
            adds: vec![last],
            removes: pats(&["gattacagattaca"]),
        };
        let out = reg.publish_delta("d", 2, &back).unwrap();
        assert!(out.cache_hit);
        check(out);
        let v3 = reg.current("d").unwrap();
        assert_eq!(v3.version, 3);
        assert!(Arc::ptr_eq(&v1.pre, &v3.pre));
        assert_eq!(
            (m.publishes.get(), m.cache_hits.get(), m.cache_misses.get()),
            (3, 1, 2)
        );
    }

    #[test]
    fn delta_publish_rejects_bad_parents_and_bad_deltas() {
        let reg = Registry::new(Arc::new(Metrics::default()));
        let delta = pardict_core::DictDelta {
            adds: pats(&["x"]),
            removes: vec![],
        };
        assert!(matches!(
            reg.publish_delta("missing", 1, &delta),
            Err(ServiceError::NoSuchDictionary(_))
        ));
        reg.publish("d", pats(&["a", "b"])).unwrap();
        // Wrong parent version.
        assert!(reg.publish_delta("d", 7, &delta).is_err());
        // Empty delta.
        assert!(reg
            .publish_delta("d", 1, &pardict_core::DictDelta::default())
            .is_err());
        // Remove that matches nothing.
        let missing_rm = pardict_core::DictDelta {
            adds: vec![],
            removes: pats(&["zz"]),
        };
        assert!(reg.publish_delta("d", 1, &missing_rm).is_err());
        // Draining the dictionary entirely.
        let drain = pardict_core::DictDelta {
            adds: vec![],
            removes: pats(&["a", "b"]),
        };
        assert!(reg.publish_delta("d", 1, &drain).is_err());
        // Version is unchanged after every rejection.
        assert_eq!(reg.current("d").unwrap().version, 1);
    }
}
