//! # pardict-cluster — sharded routing, scatter-gather, and failover
//!
//! One `pardict-service` node amortizes preprocessing across requests;
//! this crate spreads that story across N nodes. A front-end [`Router`]
//! speaks the existing wire codec on both sides, so clients and backends
//! are unchanged:
//!
//! * [`shard`] — rendezvous (highest-random-weight) hashing: a key's
//!   shard ranking is a pure function of `(key, shard count)`, giving
//!   minimal disruption on membership change and a deterministic
//!   failover order with no ring state.
//! * [`Router`] — *replicated registry, sharded work*: publishes
//!   broadcast to every healthy backend; per-request work routes to the
//!   key's primary with bounded, deadline-aware, exponential-backoff
//!   failover down the ranking. Container grep scatter-gathers: block
//!   ranges are re-framed as standalone containers
//!   ([`pardict_stream::slice_container`]) and fanned across all healthy
//!   shards — the shard-local work mirrors the paper's block-independent
//!   LZ1 decomposition — then merged back into exactly the single-node
//!   hit order at the range boundaries, with the merge the blocks use
//!   ([`pardict_core::append_in_order`]).
//! * Failover semantics — a transport failure or a draining backend
//!   excludes the shard at once and traffic re-routes. Responses carry
//!   a **degraded** flag (served after a failover, or while any shard is
//!   excluded) instead of turning correct results into errors; excluded shards rejoin via
//!   revival probes that first ask the backend what it already holds
//!   (a `--data-dir` backend recovers dictionaries from its own store
//!   on boot) and replay only what is missing or stale by content hash.
//! * [`ClusterMetrics`] — router-side books with per-shard counters and
//!   a `check_accounting` identity: every accepted request is charged to
//!   exactly one outcome, no matter how many attempts it took.
//! * [`RouterServer`] — the TCP front end; [`selftest`] — three
//!   in-process backends, a seeded mixed workload verified against a
//!   single-node oracle, and a deterministic mid-run backend kill that
//!   must leave the run degraded but correct.

#![warn(missing_docs)]

pub mod backend;
pub mod front;
pub mod metrics;
pub mod router;
pub mod selftest;
pub mod shard;

pub use backend::Backend;
pub use front::RouterServer;
pub use metrics::{ClusterMetrics, ShardStats};
pub use router::{ClusterConfig, ClusterError, DeltaSummary, PublishSummary, Routed, Router};
