#![warn(missing_docs)]

//! # pardict-compress — work-optimal parallel compression (SPAA'95 §4–§5)
//!
//! * **LZ1 / LZ77 (§4)** — [`lz1_compress`] produces the greedy (provably
//!   optimal) dynamic-dictionary parse in `O(n)` work and polylog depth by
//!   reading Lemma 4.1 off LCP intervals of the suffix array; [`lz1_decompress`]
//!   reverses it work-optimally by resolving the copy forest with one Euler
//!   tour (Theorem 4.3). Those two are the reproduction and the oracles of
//!   what ships. Every shipped parse (stream block, Compress reply, delta,
//!   CLI) runs their sequential halves: one emitter, [`delta_compress`] (an
//!   empty base for a whole buffer), reads the match table off exact,
//!   seed-free suffix arrays and parses greedily, and [`lz1_decode`] decodes
//!   phrase by phrase, `n` work. [`lz1_nlogn_baseline`] is the previous-best
//!   `O(n log n)`-work parallel envelope, also an exact oracle.
//! * **LZ2 / LZ78** — [`lz78_compress`]/[`lz78_decompress`], sequential
//!   only: the paper cites its P-completeness as the reason no fast
//!   parallel version exists.
//! * **Static dictionary compression (§5)** — [`optimal_parse`] computes a
//!   fewest-phrases parse against a prefix-closed dictionary in `O(n)` work
//!   using only *dominating* references (Lemma 5.2: prefix maxima + ranks —
//!   no shortest-path machinery), with [`greedy_parse`],
//!   [`lff_parse`], and the general-BFS [`bfs_parse`] (the [AS92]-style
//!   work-heavy route) as comparators.
//!
//! ```
//! use pardict_pram::Pram;
//! use pardict_compress::{lz1_compress, lz1_decompress, encode_tokens, decode_tokens};
//!
//! let pram = Pram::seq();
//! let text = b"tick tock tick tock tick";
//! let tokens = lz1_compress(&pram, text, 1);
//! let wire = encode_tokens(&tokens);
//! let back = lz1_decompress(&pram, &decode_tokens(&wire).unwrap(), 2);
//! assert_eq!(back, text);
//! ```

mod delta;
pub(crate) mod lz1;
mod lz78;
mod static_parse;
mod tokens;
mod window;

pub use delta::{delta_compress, delta_decompress};
pub use lz1::{
    longest_previous_factor, longest_previous_factor_from_tree, lz1_compress, lz1_decode,
    lz1_decompress, lz1_decompress_jump, lz1_nlogn_baseline,
};
pub use lz78::{lz78_compress, lz78_decompress, Lz78Token};
pub use static_parse::{
    bfs_parse, greedy_parse, lff_parse, optimal_and_greedy_parse, optimal_parse, Parse, Phrase,
};
pub use tokens::{
    decode_tokens, decode_tokens_from, encode_tokens, encoded_size, DecodeError, Token,
};
pub use window::lz77_windowed;
