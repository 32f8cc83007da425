//! `pardict-search`: block-parallel dictionary matching over compressed
//! PDZS containers — grep the compressed data without materializing the
//! underlying text.
//!
//! The paper's two halves meet here: a preprocessed §3 dictionary (matcher
//! reuse across requests) is run over the blockwise §4 LZ1 container
//! produced by `pardict-stream`. Grep takes a served dictionary, a
//! `SegmentedMatcher`, whose `find_all` scans one exact Aho–Corasick
//! automaton over the whole pattern list, so `Grep`, `GrepContainer`,
//! `grepz` and `pardict grep` replies are exact; the parallelism is across
//! blocks and requests, not inside one block. The setting is the one
//! studied by Gawrychowski (*Pattern matching in Lempel-Ziv compressed
//! strings*, arXiv:1104.4203) and inverted by
//! Fischer–Gagie–Gawrychowski–Kociumaka (*Approximating LZ77 via
//! Small-Space Multiple-Pattern Matching*, arXiv:1504.06647): because the
//! container restricts every back-reference to a block-local window,
//! each block decodes independently, and searching compressed data reduces
//! to decode-and-match per block plus overlap stitching at boundaries.
//!
//! ## How a match is never lost or double-counted
//!
//! Each block's search buffer is the block's decoded bytes prefixed by an
//! **overlap tail**: the last `max_pattern_len() − 1` bytes of the
//! preceding buffer. A pattern occurrence is reported by exactly the block
//! containing its **last** byte — hits ending inside the tail were already
//! reported by an earlier block, and a hit ending past the buffer cannot
//! be detected yet. Tails accumulate across blocks, so the scheme is
//! correct even when patterns are longer than whole blocks (a hit may
//! straddle many boundaries).
//!
//! Each block's hits come from the matcher's `find_all` in canonical order
//! (position, then decreasing length, then id); only those starting in the
//! tail can precede hits an earlier block reported, so they are merged into
//! place instead of the whole list being sorted. A range grep scans each
//! covering buffer only from the range's start to `max_pattern_len() − 1`
//! bytes past its end.
//!
//! ## Accounting
//!
//! Blocks are processed in waves through the container's one decode loop,
//! `pardict_stream::StreamReader::decode_waves`: each wave is fetched,
//! decoded as one [`pardict_pram::Pram::superstep`], then handed to grep's
//! sink, which stitches the wave's search buffers (one serial round) and
//! matches them as a second super-step — all inside the wave's
//! `search-wave` span, each block running on the context its super-step
//! hands it, with the caller's ledger charged Σ work and max depth per
//! super-step. A wave completes before the next is fetched, so at most one
//! wave of blocks plus the overlap tail is resident, and a range query
//! decodes only the covering blocks plus overlap — both properties the
//! tests assert through the ledger.
//!
//! Corrupt blocks are skipped and reported ([`pardict_stream::BlockIssue`])
//! with matches suppressed only in the affected span; [`GrepConfig::strict`]
//! turns the first corrupt block into a hard error instead.

#![warn(missing_docs)]

mod grep;

pub use grep::{grep_container, grep_range, GrepConfig, GrepSummary};
/// One occurrence in the decoded stream, its position an offset in the
/// original text: the one occurrence type, [`pardict_core::Hit`].
pub use pardict_core::Hit as GrepHit;
