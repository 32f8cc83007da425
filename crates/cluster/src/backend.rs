//! One backend shard as the router sees it: an address, a health bit,
//! and a small pool of pooled wire connections.
//!
//! Health is one bit: the first transport failure (or `ShuttingDown` from
//! a draining engine) flips the shard to excluded until
//! [`Backend::mark_alive`] (a successful revival probe) brings it back;
//! socket churn is absorbed below, by the client's single reconnect.
//! Connections are pooled per backend so sequential traffic reuses one
//! socket; a connection checked out during a failure is dropped, not
//! returned, so the pool never caches a socket known bad.

use pardict_service::{Client, ClientConfig};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Router-side state for one `pardict-service` backend.
pub struct Backend {
    /// Shard id — the index rendezvous ranking speaks in.
    pub id: usize,
    /// The backend's wire address.
    pub addr: SocketAddr,
    healthy: AtomicBool,
    pool: Mutex<Vec<Client>>,
    client_cfg: ClientConfig,
}

impl Backend {
    /// A healthy backend at `addr`, excluded at its first failure.
    #[must_use]
    pub fn new(id: usize, addr: SocketAddr, client_cfg: ClientConfig) -> Self {
        Self {
            id,
            addr,
            healthy: AtomicBool::new(true),
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

    /// Record a transport-class failure, excluding the shard; returns
    /// `true` when this flipped it healthy→excluded.
    pub fn note_failure(&self) -> bool {
        self.healthy.swap(false, Ordering::SeqCst)
    }

    /// Flip to healthy with an empty pool (old sockets predate whatever
    /// outage the shard just recovered from); returns `true` if it was
    /// excluded before.
    pub fn mark_alive(&self) -> bool {
        self.pool.lock().expect("pool poisoned").clear();
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
    fn first_failure_excludes_and_mark_alive_revives() {
        let b = Backend::new(0, addr(), ClientConfig::default());
        assert!(b.is_healthy());
        assert!(b.note_failure(), "the first failure must exclude");
        assert!(!b.is_healthy());
        // Already excluded: failing again reports no transition.
        assert!(!b.note_failure());
        assert!(b.mark_alive());
        assert!(b.is_healthy());
        assert!(!b.mark_alive(), "already alive");
        // Revived, it is excluded again at its next failure.
        assert!(b.note_failure());
        assert!(!b.is_healthy());
    }
}
