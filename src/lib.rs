#![warn(missing_docs)]

//! # pardict — optimal parallel dictionary matching and compression
//!
//! A full reproduction of Farach & Muthukrishnan, *Optimal Parallel
//! Dictionary Matching and Compression* (SPAA 1995), on a simulated
//! arbitrary-CRCW PRAM whose ledger measures the quantities the paper's
//! theorems bound — **work** (total operations) and **depth** (parallel
//! time) — while its wide rounds are forked on scoped threads by `pram`.
//!
//! ## The three headline results
//!
//! * **Dictionary matching (Theorem 3.1)** — preprocess a pattern
//!   dictionary of total size `d`, then find the longest pattern at every
//!   position of a text in `O(n)` work and `O(log d)` depth:
//!
//! ```
//! use pardict::prelude::*;
//!
//! let pram = Pram::seq();
//! let dict = Dictionary::new(vec![b"he".to_vec(), b"she".to_vec(), b"hers".to_vec()]);
//! let matches = dictionary_match(&pram, &dict, b"ushers", 42); // Las Vegas
//! assert_eq!(matches.get(1).unwrap().len, 3); // "she" at position 1
//! assert_eq!(matches.get(2).unwrap().len, 4); // "hers" at position 2
//! ```
//!
//! * **LZ1/LZ77 compression (Theorems 4.2–4.3)** — the greedy-optimal
//!   dynamic-dictionary parse and its inverse, both `O(n)` work:
//!
//! ```
//! use pardict::prelude::*;
//!
//! let pram = Pram::seq();
//! let text = b"abababab";
//! let tokens = lz1_compress(&pram, text, 7);
//! assert!(tokens.len() < text.len());
//! assert_eq!(lz1_decompress(&pram, &tokens, 9), text);
//! ```
//!
//! * **Optimal static-dictionary compression (Theorem 5.3)** — fewest
//!   dictionary references against a prefix-closed dictionary, via
//!   dominating references only. The parse reads a table of longest
//!   pattern prefixes: Step 2A's `M` (`DictMatcher::pattern_prefixes`), or
//!   the automaton's one-scan table, which cuts where `M` does:
//!
//! ```
//! use pardict::prelude::*;
//!
//! let pram = Pram::seq();
//! let dict = Dictionary::new(vec![b"aab".to_vec(), b"abbb".to_vec(), b"b".to_vec()]);
//! let (ac, text) = (AhoCorasick::build(&dict), b"aabbb");
//! let optimal = optimal_parse(&pram, &ac.reach_table(text)).unwrap();
//! let greedy = greedy_parse(&pram, text.len(), |x| ac.longest_prefix_at(text, x)).unwrap();
//! assert_eq!(optimal.num_phrases(), 2); // a | abbb
//! assert_eq!(greedy.num_phrases(), 3);  // aab | b | b — greedy is not optimal
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`pram`] | work/depth ledger, scans, packs, list ranking, sorting |
//! | [`exec`] | the super-step executor: the container wave loop, per-wave ledger charge and trace span, deadlines |
//! | [`fingerprint`] | Karp–Rabin fingerprints mod 2⁶¹−1 |
//! | [`rmq`] | sparse tables, ANSV, linear RMQ |
//! | [`veb`] | van Emde Boas predecessor sets |
//! | [`graph`] | forests, Euler tours |
//! | [`suffix`] | suffix arrays/trees, suffix & Weiner links, LCP oracles |
//! | [`ancestors`] | nearest marked / colored ancestors (§3.2) |
//! | [`core`] | the dictionary matcher (§3) with checker and baselines |
//! | [`compress`] | LZ1, LZ78, optimal static parsing (§4–§5) |
//! | [`workloads`] | seeded synthetic corpora and dictionaries |
//! | [`service`] | concurrent serving: hot-swap registry, batching, metrics |
//! | [`stream`] | chunked parallel LZ1 streaming, framed random-access container |
//! | [`store`] | crash-safe persistent dictionary state: WAL, snapshots, recovery |
//! | [`search`] | block-parallel dictionary matching over compressed containers |
//! | [`chaos`] | deterministic fault injection and differential verification |
//! | [`cluster`] | sharded routing, scatter-gather, failover across service backends |
//! | [`trace`] | ledger-correlated structured tracing: spans, sampling, JSONL export |

pub use pardict_ancestors as ancestors;
pub use pardict_chaos as chaos;
pub use pardict_cluster as cluster;
pub use pardict_compress as compress;
pub use pardict_core as core;
pub use pardict_exec as exec;
pub use pardict_fingerprint as fingerprint;
pub use pardict_graph as graph;
pub use pardict_pram as pram;
pub use pardict_rmq as rmq;
pub use pardict_search as search;
pub use pardict_service as service;
pub use pardict_store as store;
pub use pardict_stream as stream;
pub use pardict_suffix as suffix;
pub use pardict_trace as trace;
pub use pardict_veb as veb;
pub use pardict_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use pardict_compress::{
        bfs_parse, delta_compress, delta_decompress, greedy_parse, lff_parse,
        longest_previous_factor, lz1_compress, lz1_decompress, lz1_nlogn_baseline, lz77_windowed,
        lz78_compress, lz78_decompress, optimal_parse, Parse, Phrase, Token,
    };
    pub use pardict_core::{
        dictionary_match, dictionary_match_offline, substring_match, AhoCorasick, DictDelta,
        DictMatcher, Dictionary, Match, Matches, SegmentedMatcher, SubstringMatcher,
    };
    pub use pardict_pram::{Cost, Mode, Pram};
    pub use pardict_search::{grep_container, grep_range, GrepConfig, GrepHit, GrepSummary};
    pub use pardict_stream::{compress_stream, decompress_stream, StreamConfig, StreamReader};
    pub use pardict_suffix::SuffixTree;
    pub use pardict_workloads::Alphabet;
}
