//! One backend shard as the router sees it: an address, a health bit,
//! and a small pool of pooled wire connections.
//!
//! Health is a consecutive-failure counter against a threshold: every
//! transport failure (or `ShuttingDown` from a draining engine) bumps it,
//! any well-formed response resets it, and crossing the threshold flips
//! the shard to excluded until [`Backend::mark_alive`] (a successful
//! revival probe) brings it back. Connections are pooled per backend so
//! sequential traffic reuses one socket; a connection checked out during
//! a failure is dropped, not returned, so the pool never caches a socket
//! known bad.

use pardict_service::{Client, ClientConfig};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

/// Router-side state for one `pardict-service` backend.
pub struct Backend {
    /// Shard id — the index rendezvous ranking speaks in.
    pub id: usize,
    /// The backend's wire address.
    pub addr: SocketAddr,
    healthy: AtomicBool,
    consec_failures: AtomicU32,
    fail_threshold: u32,
    pool: Mutex<Vec<Client>>,
    client_cfg: ClientConfig,
}

impl Backend {
    /// A healthy backend at `addr`, excluded after `fail_threshold`
    /// consecutive failures.
    #[must_use]
    pub fn new(id: usize, addr: SocketAddr, fail_threshold: u32, client_cfg: ClientConfig) -> Self {
        Self {
            id,
            addr,
            healthy: AtomicBool::new(true),
            consec_failures: AtomicU32::new(0),
            fail_threshold: fail_threshold.max(1),
            pool: Mutex::new(Vec::new()),
            client_cfg,
        }
    }

    /// Whether the shard is currently routed to.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// A pooled connection, or a fresh dial when the pool is empty.
    ///
    /// # Errors
    /// Connection failures (the caller charges these as shard failures).
    pub fn checkout(&self) -> io::Result<Client> {
        if let Some(c) = self.pool.lock().expect("pool poisoned").pop() {
            return Ok(c);
        }
        Client::connect_with(self.addr, self.client_cfg.clone())
    }

    /// Return a connection that just completed a successful round trip.
    pub fn checkin(&self, client: Client) {
        let mut pool = self.pool.lock().expect("pool poisoned");
        if pool.len() < 8 {
            pool.push(client);
        }
    }

    /// Record a well-formed response: reset the failure streak. Returns
    /// `true` when this was a dead→alive observation (callers should
    /// treat it as a revival only if they also re-published state —
    /// routing code instead keeps dead shards dead until a probe runs).
    pub fn note_success(&self) {
        self.consec_failures.store(0, Ordering::SeqCst);
    }

    /// Record a transport-class failure; returns `true` when this crossed
    /// the threshold and flipped the shard healthy→excluded.
    pub fn note_failure(&self) -> bool {
        let streak = self.consec_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if streak >= self.fail_threshold {
            return self.healthy.swap(false, Ordering::SeqCst);
        }
        false
    }

    /// Flip to healthy with a clean streak and an empty pool (old sockets
    /// predate whatever outage the shard just recovered from); returns
    /// `true` if it was excluded before.
    pub fn mark_alive(&self) -> bool {
        self.pool.lock().expect("pool poisoned").clear();
        self.consec_failures.store(0, Ordering::SeqCst);
        !self.healthy.swap(true, Ordering::SeqCst)
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("healthy", &self.is_healthy())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> SocketAddr {
        "127.0.0.1:1".parse().unwrap()
    }

    #[test]
    fn threshold_gates_the_death_transition() {
        let b = Backend::new(0, addr(), 3, ClientConfig::default());
        assert!(b.is_healthy());
        assert!(!b.note_failure());
        assert!(!b.note_failure());
        // A success in between resets the streak.
        b.note_success();
        assert!(!b.note_failure());
        assert!(!b.note_failure());
        assert!(b.note_failure(), "third consecutive failure must kill");
        assert!(!b.is_healthy());
        // Already dead: crossing again reports no transition.
        assert!(!b.note_failure());
        assert!(b.mark_alive());
        assert!(b.is_healthy());
        assert!(!b.mark_alive(), "already alive");
    }
}
