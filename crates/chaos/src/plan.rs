//! The container fault planner: seeded, scripted mutations of a PDZS
//! container, each paired with an expected-outcome oracle checked
//! differentially against the clean copy.
//!
//! The container format makes precise promises about degradation:
//! metadata damage (footer, trailer, truncation) must be caught
//! *structurally* by [`StreamReader::open`]; payload damage must be
//! caught *per block* by CRC and reported as a [`BlockIssue`] while every
//! other block still round-trips; `.strict()` must turn the first issue
//! into a fail-fast error. The planner derives, for every mutation it
//! scripts, exactly which of those outcomes the format guarantees — and
//! the verifier holds the implementation to it.
//!
//! One planned fault is hostile rather than random: a copy token that
//! claims more bytes than its block holds, with every checksum resealed, so
//! only the decoder's own length bound stands between it and the
//! allocator. Exactly that block must be reported as a length mismatch.
//!
//! Two planned faults probe the *limits* of the guarantees on purpose:
//! a record swap leaves the forward decoder a self-consistent (but
//! reordered) stream, and a CRC-preserving swap is invisible to every
//! checksum — the oracle pins down the documented best-effort behavior
//! instead of pretending the format detects what it cannot.

use pardict_core::{crc32, SegmentedMatcher};
use pardict_pram::{Pram, SplitMix64};
use pardict_search::{grep_container, GrepConfig, GrepHit};
use pardict_stream::layout::ContainerLayout;
use pardict_stream::{
    assemble_container, decompress_stream, BlockIssue, IssueKind, RecordHeader, StreamDecompressor,
    StreamReader, HEADER_LEN, METHOD_LZ1,
};
use std::collections::BTreeSet;
use std::io::{Cursor, Read};

/// One scripted mutation of a container, parameterized by exact byte
/// targets so a report line reproduces it fully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerFault {
    /// Flip one payload bit of one block.
    PayloadBitFlip {
        /// Target block.
        block: usize,
        /// Byte offset within the payload.
        byte: usize,
        /// Bit position (0–7).
        bit: u8,
    },
    /// Flip several payload bits within a ≤3-byte burst (CRC-32 detects
    /// every burst of ≤32 bits, so the oracle stays exact).
    PayloadBurstFlip {
        /// Target block.
        block: usize,
        /// Byte offset of the burst within the payload.
        byte: usize,
        /// XOR masks for up to three consecutive bytes (first is nonzero).
        mask: [u8; 3],
    },
    /// Flip one bit of a block's inline 13-byte record header.
    RecordHeaderFlip {
        /// Target block.
        block: usize,
        /// Byte offset within the record header (0–12).
        byte: usize,
        /// Bit position (0–7).
        bit: u8,
    },
    /// Truncate the file in the middle of a block record.
    TruncateRecord {
        /// Block whose record the cut lands in.
        block: usize,
        /// Absolute file offset of the cut.
        at: usize,
    },
    /// Truncate the file inside the index footer.
    TruncateIndex {
        /// Absolute file offset of the cut.
        at: usize,
    },
    /// Flip one bit of one index-footer entry.
    FooterFlip {
        /// Footer entry (block) index.
        entry: usize,
        /// Byte offset within the 24-byte entry.
        byte: usize,
        /// Bit position (0–7).
        bit: u8,
    },
    /// Flip one bit of the 24-byte trailer.
    TrailerFlip {
        /// Byte offset within the trailer.
        byte: usize,
        /// Bit position (0–7).
        bit: u8,
    },
    /// Swap the payloads of two blocks with equal compressed length,
    /// leaving both inline headers and the footer untouched.
    PayloadSwap {
        /// First block.
        a: usize,
        /// Second block.
        b: usize,
    },
    /// Swap two whole records (header + payload) without fixing the
    /// footer — block reordering.
    RecordSwap {
        /// First block.
        a: usize,
        /// Second block.
        b: usize,
    },
    /// Swap two blocks' payloads *and* patch every checksum and length to
    /// match — corruption no CRC can see. Both blocks keep their slot's
    /// raw length, so the container stays structurally perfect.
    CrcPreservingSwap {
        /// First block.
        a: usize,
        /// Second block.
        b: usize,
    },
    /// Bump the final byte of one copy token's `len` varint in an LZ1
    /// block — the payload keeps its length — and reseal every checksum
    /// that covers it: well-framed tokens that expand past the block.
    HostileTokens {
        /// Target block.
        block: usize,
        /// Offset of the bumped varint byte within the payload.
        byte: usize,
    },
}

impl ContainerFault {
    /// Stable fault-class name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ContainerFault::PayloadBitFlip { .. } => "payload-bit-flip",
            ContainerFault::PayloadBurstFlip { .. } => "payload-burst-flip",
            ContainerFault::RecordHeaderFlip { .. } => "record-header-flip",
            ContainerFault::TruncateRecord { .. } => "truncate-record",
            ContainerFault::TruncateIndex { .. } => "truncate-index",
            ContainerFault::FooterFlip { .. } => "index-footer-flip",
            ContainerFault::TrailerFlip { .. } => "trailer-flip",
            ContainerFault::PayloadSwap { .. } => "payload-swap",
            ContainerFault::RecordSwap { .. } => "block-reorder",
            ContainerFault::CrcPreservingSwap { .. } => "crc-preserving-swap",
            ContainerFault::HostileTokens { .. } => "hostile-tokens",
        }
    }

    /// Stable one-line description (class + exact parameters).
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            ContainerFault::PayloadBitFlip { block, byte, bit } => {
                format!("payload-bit-flip block={block} byte={byte} bit={bit}")
            }
            ContainerFault::PayloadBurstFlip { block, byte, mask } => format!(
                "payload-burst-flip block={block} byte={byte} mask={:02x}{:02x}{:02x}",
                mask[0], mask[1], mask[2]
            ),
            ContainerFault::RecordHeaderFlip { block, byte, bit } => {
                format!("record-header-flip block={block} byte={byte} bit={bit}")
            }
            ContainerFault::TruncateRecord { block, at } => {
                format!("truncate-record block={block} at={at}")
            }
            ContainerFault::TruncateIndex { at } => format!("truncate-index at={at}"),
            ContainerFault::FooterFlip { entry, byte, bit } => {
                format!("index-footer-flip entry={entry} byte={byte} bit={bit}")
            }
            ContainerFault::TrailerFlip { byte, bit } => {
                format!("trailer-flip byte={byte} bit={bit}")
            }
            ContainerFault::PayloadSwap { a, b } => format!("payload-swap a={a} b={b}"),
            ContainerFault::RecordSwap { a, b } => format!("block-reorder a={a} b={b}"),
            ContainerFault::CrcPreservingSwap { a, b } => {
                format!("crc-preserving-swap a={a} b={b}")
            }
            ContainerFault::HostileTokens { block, byte } => {
                format!("hostile-tokens block={block} byte={byte}")
            }
        }
    }

    /// Apply the mutation to a clean container, returning the damaged
    /// bytes. `layout` must describe `container`.
    #[must_use]
    pub fn apply(&self, container: &[u8], layout: &ContainerLayout) -> Vec<u8> {
        let mut out = container.to_vec();
        match *self {
            ContainerFault::PayloadBitFlip { block, byte, bit } => {
                out[layout.records[block].payload.start + byte] ^= 1 << bit;
            }
            ContainerFault::PayloadBurstFlip { block, byte, mask } => {
                let span = layout.records[block].payload.clone();
                for (k, m) in mask.iter().enumerate() {
                    let pos = span.start + byte + k;
                    if pos < span.end {
                        out[pos] ^= m;
                    }
                }
            }
            ContainerFault::RecordHeaderFlip { block, byte, bit } => {
                out[layout.records[block].header.start + byte] ^= 1 << bit;
            }
            ContainerFault::TruncateRecord { at, .. } | ContainerFault::TruncateIndex { at } => {
                out.truncate(at);
            }
            ContainerFault::FooterFlip { entry, byte, bit } => {
                out[layout.footer_entries[entry].start + byte] ^= 1 << bit;
            }
            ContainerFault::TrailerFlip { byte, bit } => {
                out[layout.trailer.start + byte] ^= 1 << bit;
            }
            ContainerFault::PayloadSwap { a, b } => {
                let pa = layout.records[a].payload.clone();
                let pb = layout.records[b].payload.clone();
                let tmp = out[pa.clone()].to_vec();
                let other = out[pb.clone()].to_vec();
                out[pa].copy_from_slice(&other);
                out[pb].copy_from_slice(&tmp);
            }
            ContainerFault::RecordSwap { a, b } => {
                out.truncate(HEADER_LEN);
                for i in 0..layout.num_blocks() {
                    let src = if i == a {
                        b
                    } else if i == b {
                        a
                    } else {
                        i
                    };
                    out.extend_from_slice(&container[layout.records[src].whole()]);
                }
                out.extend_from_slice(&container[layout.end_marker..]);
            }
            ContainerFault::CrcPreservingSwap { a, b } => {
                let mut recs: Vec<(RecordHeader, &[u8])> = layout
                    .records
                    .iter()
                    .map(|r| (r.record, &container[r.payload.clone()]))
                    .collect();
                let (ha, pa) = recs[a];
                let (hb, pb) = recs[b];
                recs[a] = (
                    RecordHeader {
                        raw_len: ha.raw_len,
                        method: hb.method,
                        comp_len: hb.comp_len,
                        crc: hb.crc,
                    },
                    pb,
                );
                recs[b] = (
                    RecordHeader {
                        raw_len: hb.raw_len,
                        method: ha.method,
                        comp_len: ha.comp_len,
                        crc: ha.crc,
                    },
                    pa,
                );
                out = assemble_container(layout.block_size, &recs);
            }
            ContainerFault::HostileTokens { block, byte } => {
                let mut payload = container[layout.records[block].payload.clone()].to_vec();
                payload[byte] += 1;
                let resealed = RecordHeader {
                    crc: crc32(&payload),
                    ..layout.records[block].record
                };
                let recs: Vec<(RecordHeader, &[u8])> = layout
                    .records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        if i == block {
                            (resealed, &payload[..])
                        } else {
                            (r.record, &container[r.payload.clone()])
                        }
                    })
                    .collect();
                out = assemble_container(layout.block_size, &recs);
            }
        }
        out
    }
}

/// Offsets, within a clean LZ1 payload, of the final byte of every copy
/// token's `len` varint that can grow without gaining a continuation bit —
/// so bumping it lengthens the copy and keeps the payload's length.
fn bumpable_copy_lens(payload: &[u8]) -> Vec<usize> {
    let varint_end = |mut p: usize| {
        while payload[p] & 0x80 != 0 {
            p += 1;
        }
        p
    };
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < payload.len() {
        if payload[pos] == 0 {
            pos += 2; // literal: tag + byte
            continue;
        }
        let len_end = varint_end(varint_end(pos + 1) + 1);
        if payload[len_end] < 0x7F {
            out.push(len_end);
        }
        pos = len_end + 1;
    }
    out
}

/// What the forward (streaming) decoder must do with the damaged bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardExpect {
    /// Full clean round trip, zero issues (damage lives past the end
    /// marker, which the forward decoder never reads).
    CleanFull,
    /// Skips exactly the oracle's issue blocks and emits the survivors.
    SameAsSurvivors,
    /// Aborts with a structural error.
    Fails,
    /// Decodes without issues but emits exactly these (non-clean) bytes —
    /// the documented trust-the-framing behavior.
    Bytes(Vec<u8>),
    /// Framing may cascade unpredictably; the only guarantees are "no
    /// panic" and "never silently emit the clean bytes with zero issues".
    NotSilentlyClean,
}

/// The expected outcome of one fault, derived from the format's contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oracle {
    /// Must [`StreamReader::open`] succeed on the damaged bytes?
    pub open_ok: bool,
    /// When open succeeds: exactly these blocks must be reported (sorted).
    pub issue_blocks: Vec<usize>,
    /// When set, what every reported issue must be.
    pub issue_kind: Option<IssueKind>,
    /// When open succeeds: exact `read_all` survivor bytes.
    pub survivors: Vec<u8>,
    /// Forward-decoder expectation.
    pub forward: ForwardExpect,
}

/// One fault with its oracle.
#[derive(Debug, Clone)]
pub struct PlannedFault {
    /// The scripted mutation.
    pub fault: ContainerFault,
    /// What the stack must do with it.
    pub oracle: Oracle,
}

/// A seeded script of faults over one container, with oracles.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Structural map of the clean container.
    pub layout: ContainerLayout,
    /// Scripted faults in verification order.
    pub faults: Vec<PlannedFault>,
    /// Fault classes skipped as unplannable on this container, with the
    /// reason (e.g. no two blocks share a compressed length).
    pub skipped: Vec<(&'static str, &'static str)>,
}

/// Everything the verifier needs alongside one fault.
pub struct FaultContext<'a> {
    /// Context to decode on.
    pub pram: &'a Pram,
    /// The clean container bytes.
    pub container: &'a [u8],
    /// The clean decoded stream.
    pub clean_raw: &'a [u8],
    /// Layout of `container`.
    pub layout: &'a ContainerLayout,
    /// When present, the compressed-domain grep differential also runs.
    pub matcher: Option<&'a SegmentedMatcher>,
    /// Grep hits on the clean container, in `Hit` order (ignored without
    /// `matcher`).
    pub clean_hits: &'a [GrepHit],
}

impl FaultPlan {
    /// Script one fault of every class against `container` from `seed`.
    ///
    /// Decisions (target blocks, bytes, bits, cut points, swap pairs) are
    /// drawn from a [`SplitMix64`] stream, so equal seeds yield equal
    /// plans. Classes that need an eligible block pair record themselves
    /// in [`FaultPlan::skipped`] when the container has none.
    ///
    /// # Panics
    /// When `layout`/`clean_raw` do not describe `container` (the planner
    /// is meant for clean, just-compressed containers).
    #[must_use]
    pub fn generate(
        seed: u64,
        container: &[u8],
        clean_raw: &[u8],
        layout: &ContainerLayout,
    ) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let n = layout.num_blocks();
        assert!(n > 0, "cannot plan faults against an empty container");
        assert_eq!(
            container.len(),
            layout.trailer.end,
            "layout does not describe the container"
        );
        let mut faults = Vec::new();
        let mut skipped = Vec::new();

        let survivors_without = |blocks: &[usize]| -> Vec<u8> {
            let dead: BTreeSet<usize> = blocks.iter().copied().collect();
            let mut out = Vec::new();
            for i in 0..n {
                if !dead.contains(&i) {
                    out.extend_from_slice(&clean_raw[layout.raw_range(i)]);
                }
            }
            out
        };
        let permuted = |a: usize, b: usize| -> Vec<u8> {
            let mut out = Vec::with_capacity(clean_raw.len());
            for i in 0..n {
                let src = if i == a {
                    b
                } else if i == b {
                    a
                } else {
                    i
                };
                out.extend_from_slice(&clean_raw[layout.raw_range(src)]);
            }
            out
        };
        let pick_block = |rng: &mut SplitMix64| rng.next_below(n as u64) as usize;
        let payload_len = |i: usize| layout.records[i].payload.len();

        // 1. Single payload bit flip: block CRC catches it, the rest of
        // the stream survives.
        let block = pick_block(&mut rng);
        let byte = rng.next_below(payload_len(block) as u64) as usize;
        let bit = rng.next_below(8) as u8;
        faults.push(PlannedFault {
            fault: ContainerFault::PayloadBitFlip { block, byte, bit },
            oracle: Oracle {
                open_ok: true,
                issue_blocks: vec![block],
                issue_kind: Some(IssueKind::Checksum),
                survivors: survivors_without(&[block]),
                forward: ForwardExpect::SameAsSurvivors,
            },
        });

        // 2. Multi-bit burst flip (≤24 bits): same contract — CRC-32
        // detects every burst of ≤32 bits.
        let block = pick_block(&mut rng);
        let plen = payload_len(block);
        let byte = rng.next_below(plen.saturating_sub(2).max(1) as u64) as usize;
        let mask = [
            (rng.next_u64() as u8) | 1, // at least one bit flips
            rng.next_u64() as u8,
            rng.next_u64() as u8,
        ];
        faults.push(PlannedFault {
            fault: ContainerFault::PayloadBurstFlip { block, byte, mask },
            oracle: Oracle {
                open_ok: true,
                issue_blocks: vec![block],
                issue_kind: Some(IssueKind::Checksum),
                survivors: survivors_without(&[block]),
                forward: ForwardExpect::SameAsSurvivors,
            },
        });

        // 3. Inline record-header flip: the footer is authoritative, so
        // the seekable reader reports a header mismatch on exactly this
        // block; forward framing may cascade (weak oracle by design).
        let block = pick_block(&mut rng);
        let byte = rng.next_below(13) as usize;
        let bit = rng.next_below(8) as u8;
        faults.push(PlannedFault {
            fault: ContainerFault::RecordHeaderFlip { block, byte, bit },
            oracle: Oracle {
                open_ok: true,
                issue_blocks: vec![block],
                issue_kind: Some(IssueKind::HeaderMismatch),
                survivors: survivors_without(&[block]),
                forward: ForwardExpect::NotSilentlyClean,
            },
        });

        // 4. Truncation inside a block record: structural for both
        // readers.
        let block = pick_block(&mut rng);
        let whole = layout.records[block].whole();
        let at = whole.start + 1 + rng.next_below((whole.end - whole.start - 1) as u64) as usize;
        faults.push(PlannedFault {
            fault: ContainerFault::TruncateRecord { block, at },
            oracle: Oracle {
                open_ok: false,
                issue_blocks: Vec::new(),
                issue_kind: None,
                survivors: Vec::new(),
                forward: ForwardExpect::Fails,
            },
        });

        // 5. Truncation inside the index footer: the seekable reader loses
        // its trailer, but all data precedes the cut — the forward decoder
        // must still round-trip everything.
        let at = layout.footer.start
            + 1
            + rng.next_below((layout.footer.len().max(2) - 1) as u64) as usize;
        faults.push(PlannedFault {
            fault: ContainerFault::TruncateIndex { at },
            oracle: Oracle {
                open_ok: false,
                issue_blocks: Vec::new(),
                issue_kind: None,
                survivors: Vec::new(),
                forward: ForwardExpect::CleanFull,
            },
        });

        // 6. Index-footer damage: the footer CRC in the trailer catches
        // any flip before a single entry is trusted.
        let entry = pick_block(&mut rng);
        let byte = rng.next_below(24) as usize;
        let bit = rng.next_below(8) as u8;
        faults.push(PlannedFault {
            fault: ContainerFault::FooterFlip { entry, byte, bit },
            oracle: Oracle {
                open_ok: false,
                issue_blocks: Vec::new(),
                issue_kind: None,
                survivors: Vec::new(),
                forward: ForwardExpect::CleanFull,
            },
        });

        // 7. Trailer damage: magic, offsets, counts, and footer CRC are
        // each load-bearing; any flip must refuse to open.
        let byte = rng.next_below(24) as usize;
        let bit = rng.next_below(8) as u8;
        faults.push(PlannedFault {
            fault: ContainerFault::TrailerFlip { byte, bit },
            oracle: Oracle {
                open_ok: false,
                issue_blocks: Vec::new(),
                issue_kind: None,
                survivors: Vec::new(),
                forward: ForwardExpect::CleanFull,
            },
        });

        // 8. Payload swap between equal-comp-len blocks with different
        // checksums: both blocks fail CRC, everything else survives.
        let swap_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                layout.records[i].record.comp_len == layout.records[j].record.comp_len
                    && layout.records[i].record.crc != layout.records[j].record.crc
            })
            .collect();
        if swap_pairs.is_empty() {
            skipped.push((
                "payload-swap",
                "no block pair shares a compressed length with distinct checksums",
            ));
        } else {
            let (a, b) = swap_pairs[rng.next_below(swap_pairs.len() as u64) as usize];
            faults.push(PlannedFault {
                fault: ContainerFault::PayloadSwap { a, b },
                oracle: Oracle {
                    open_ok: true,
                    issue_blocks: vec![a, b],
                    issue_kind: Some(IssueKind::Checksum),
                    survivors: survivors_without(&[a, b]),
                    forward: ForwardExpect::SameAsSurvivors,
                },
            });
        }

        // 9. Block reordering: swap two whole records, footer untouched.
        // The footer stays self-consistent, so `open` succeeds no matter
        // what the records hold — validation never reads them. With
        // equal-size records the damage is fully predictable: both slots'
        // inline headers contradict their footer entries (distinct CRCs),
        // exactly [a, b] land in the issue list, and the forward decoder
        // — which trusts the (self-consistent) inline framing — emits
        // permuted bytes. Unequal-size swaps shift every record between
        // the two slots, so which intermediate offsets happen to parse as
        // headers is not format-determined; the planner only scripts the
        // deterministic shape.
        let reorder_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                let (ri, rj) = (layout.records[i].record, layout.records[j].record);
                ri.crc != rj.crc && ri.comp_len == rj.comp_len && ri.raw_len == rj.raw_len
            })
            .collect();
        if reorder_pairs.is_empty() {
            skipped.push((
                "block-reorder",
                "no equal-size record pair with distinct content",
            ));
        } else {
            let (a, b) = reorder_pairs[rng.next_below(reorder_pairs.len() as u64) as usize];
            faults.push(PlannedFault {
                fault: ContainerFault::RecordSwap { a, b },
                oracle: Oracle {
                    open_ok: true,
                    issue_blocks: vec![a, b],
                    issue_kind: Some(IssueKind::HeaderMismatch),
                    survivors: survivors_without(&[a, b]),
                    forward: ForwardExpect::Bytes(permuted(a, b)),
                },
            });
        }

        // 10. CRC-preserving swap between two full (non-final) blocks with
        // different content: every checksum passes and both readers emit
        // transposed data — the documented limit of per-block integrity.
        let crc_pairs: Vec<(usize, usize)> = (0..n.saturating_sub(1))
            .flat_map(|i| (i + 1..n.saturating_sub(1)).map(move |j| (i, j)))
            .filter(|&(i, j)| layout.records[i].record.crc != layout.records[j].record.crc)
            .collect();
        if crc_pairs.is_empty() {
            skipped.push((
                "crc-preserving-swap",
                "needs two distinct non-final blocks with different content",
            ));
        } else {
            let (a, b) = crc_pairs[rng.next_below(crc_pairs.len() as u64) as usize];
            faults.push(PlannedFault {
                fault: ContainerFault::CrcPreservingSwap { a, b },
                oracle: Oracle {
                    open_ok: true,
                    issue_blocks: Vec::new(),
                    issue_kind: None,
                    survivors: permuted(a, b),
                    forward: ForwardExpect::Bytes(permuted(a, b)),
                },
            });
        }

        // 11. Hostile tokens: one copy in an LZ1 block claims more bytes
        // than the block holds, and every checksum over it is resealed. The
        // framing is perfect and the tokens parse, so only the decoder's
        // length bound catches it: exactly that block is a length mismatch.
        let bumpable: Vec<(usize, usize)> = (0..n)
            .filter(|&i| layout.records[i].record.method == METHOD_LZ1)
            .flat_map(|i| {
                bumpable_copy_lens(&container[layout.records[i].payload.clone()])
                    .into_iter()
                    .map(move |byte| (i, byte))
            })
            .collect();
        if bumpable.is_empty() {
            skipped.push(("hostile-tokens", "no LZ1 block holds a copy token"));
        } else {
            let (block, byte) = bumpable[rng.next_below(bumpable.len() as u64) as usize];
            faults.push(PlannedFault {
                fault: ContainerFault::HostileTokens { block, byte },
                oracle: Oracle {
                    open_ok: true,
                    issue_blocks: vec![block],
                    issue_kind: Some(IssueKind::LengthMismatch),
                    survivors: survivors_without(&[block]),
                    forward: ForwardExpect::SameAsSurvivors,
                },
            });
        }

        FaultPlan {
            layout: layout.clone(),
            faults,
            skipped,
        }
    }
}

/// Apply one planned fault and hold the stack to its oracle.
///
/// Runs the damaged bytes through the seekable reader (`open`,
/// `read_all`), the strict forward decoder, the lenient forward decoder,
/// and — when a matcher is supplied — the compressed-domain grep, checking
/// each against the oracle and differentially against the clean copy.
///
/// Returns a stable one-line verdict for the report.
///
/// # Errors
/// A description of the first violated expectation.
pub fn verify_fault(ctx: &FaultContext<'_>, pf: &PlannedFault) -> Result<String, String> {
    let who = pf.fault.describe();
    let mutated = pf.fault.apply(ctx.container, ctx.layout);
    let o = &pf.oracle;
    let mut outcome = String::new();
    let kinds_hold = |issues: &[BlockIssue]| {
        o.issue_kind
            .is_none_or(|k| issues.iter().all(|i| i.kind == k))
    };

    // Seekable reader: structural acceptance, survivors, issues.
    match StreamReader::open(Cursor::new(&mutated[..])) {
        Ok(mut rdr) => {
            if !o.open_ok {
                return Err(format!("{who}: open accepted structurally damaged bytes"));
            }
            let (bytes, issues) = rdr
                .read_all(ctx.pram)
                .map_err(|e| format!("{who}: read_all aborted structurally: {e}"))?;
            let got: Vec<usize> = issues.iter().map(|i| i.index as usize).collect();
            if got != o.issue_blocks || !kinds_hold(&issues) {
                return Err(format!(
                    "{who}: reported {issues:?}, oracle demands blocks {:?} ({:?})",
                    o.issue_blocks, o.issue_kind
                ));
            }
            if bytes != o.survivors {
                return Err(format!(
                    "{who}: survivor bytes diverged ({} vs {} expected)",
                    bytes.len(),
                    o.survivors.len()
                ));
            }
            outcome.push_str(&format!("open=ok issues={got:?}"));
        }
        Err(e) => {
            if o.open_ok {
                return Err(format!("{who}: open rejected recoverable damage: {e}"));
            }
            outcome.push_str(&format!("open=refused ({e})"));
        }
    }

    // Strict forward decode: fail fast on the first issue, tied to the
    // forward expectation (cascading-framing faults are exempt).
    let strict_expect = match &o.forward {
        ForwardExpect::CleanFull | ForwardExpect::Bytes(_) => Some(false),
        ForwardExpect::SameAsSurvivors | ForwardExpect::Fails => Some(true),
        ForwardExpect::NotSilentlyClean => None,
    };
    if let Some(must_fail) = strict_expect {
        let pram = ctx.pram;
        let mut sink = Vec::new();
        let strict_result = StreamDecompressor::new(pram, &mutated[..])
            .strict()
            .read_to_end(&mut sink);
        match (must_fail, strict_result) {
            (true, Ok(_)) => return Err(format!("{who}: strict decode swallowed the damage")),
            (false, Err(e)) => {
                return Err(format!("{who}: strict decode failed on intact blocks: {e}"))
            }
            _ => {}
        }
        outcome.push_str(if must_fail {
            " strict=failfast"
        } else {
            " strict=ok"
        });
    }

    // Lenient forward decode.
    let fwd = decompress_stream(ctx.pram, &mut &mutated[..], Vec::new());
    match (&o.forward, fwd) {
        (ForwardExpect::Fails, Ok(_)) => {
            return Err(format!("{who}: forward decode survived truncation"))
        }
        (ForwardExpect::Fails, Err(_)) => outcome.push_str(" forward=fails"),
        (ForwardExpect::CleanFull, Err(e)) | (ForwardExpect::Bytes(_), Err(e)) => {
            return Err(format!("{who}: forward decode aborted: {e}"))
        }
        (ForwardExpect::CleanFull, Ok((bytes, summary))) => {
            if bytes != ctx.clean_raw || !summary.issues.is_empty() {
                return Err(format!("{who}: forward decode lost data before the cut"));
            }
            outcome.push_str(" forward=clean");
        }
        (ForwardExpect::Bytes(expected), Ok((bytes, summary))) => {
            if &bytes != expected || !summary.issues.is_empty() {
                return Err(format!(
                    "{who}: forward decode diverged from expected bytes"
                ));
            }
            outcome.push_str(" forward=permuted");
        }
        (ForwardExpect::SameAsSurvivors, Err(e)) => {
            return Err(format!("{who}: forward decode aborted: {e}"))
        }
        (ForwardExpect::SameAsSurvivors, Ok((bytes, summary))) => {
            let got: Vec<usize> = summary.issues.iter().map(|i| i.index as usize).collect();
            if got != o.issue_blocks || !kinds_hold(&summary.issues) || bytes != o.survivors {
                return Err(format!(
                    "{who}: forward decode reported {got:?}, oracle demands {:?}",
                    o.issue_blocks
                ));
            }
            outcome.push_str(" forward=skips");
        }
        (ForwardExpect::NotSilentlyClean, Err(_)) => outcome.push_str(" forward=fails"),
        (ForwardExpect::NotSilentlyClean, Ok((bytes, summary))) => {
            if bytes == ctx.clean_raw && summary.issues.is_empty() {
                return Err(format!(
                    "{who}: forward decode silently produced clean bytes from damaged framing"
                ));
            }
            outcome.push_str(" forward=degraded");
        }
    }

    // Compressed-domain grep differential: issues match the oracle, every
    // surviving hit exists in the clean hit set.
    if let (Some(matcher), true) = (ctx.matcher, o.open_ok) {
        let mut rdr = StreamReader::open(Cursor::new(&mutated[..]))
            .map_err(|e| format!("{who}: grep reopen failed: {e}"))?;
        let summary = grep_container(ctx.pram, matcher, &mut rdr, &GrepConfig::default())
            .map_err(|e| format!("{who}: grep aborted structurally: {e}"))?;
        let got: BTreeSet<usize> = summary.issues.iter().map(|i| i.index as usize).collect();
        let want: BTreeSet<usize> = o.issue_blocks.iter().copied().collect();
        if got != want || !kinds_hold(&summary.issues) {
            return Err(format!(
                "{who}: grep reported {:?}, oracle demands blocks {want:?} ({:?})",
                summary.issues, o.issue_kind
            ));
        }
        if o.issue_blocks.is_empty() && o.survivors == ctx.clean_raw {
            // Undamaged data ⇒ grep must agree with the clean run exactly.
            if summary.hits != ctx.clean_hits {
                return Err(format!("{who}: grep hits diverged on undamaged data"));
            }
        } else if !o.issue_blocks.is_empty() {
            // The clean run's hits are in Hit's order: search them.
            for h in &summary.hits {
                if ctx.clean_hits.binary_search(h).is_err() {
                    return Err(format!(
                        "{who}: grep invented hit pos={} id={} len={} absent from clean run",
                        h.pos, h.id, h.len
                    ));
                }
            }
        }
        outcome.push_str(" grep=consistent");
    }

    Ok(format!("{who} -> {outcome}"))
}
