//! TCP front end for the router: the same wire protocol the backends
//! speak, so any existing [`Client`](pardict_service::Client) can point
//! at a cluster instead of a single node without changing a byte —
//! except that container grep comes back as the richer
//! [`WireResponse::ClusterHits`] carrying the degraded-mode flag.

use crate::router::{ClusterError, Router};
use pardict_service::server::FrameServer;
use pardict_service::wire::{self, WireRequest, WireResponse};
use pardict_service::ServiceError;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// A running cluster front end bound to a local address.
pub struct RouterServer {
    router: Arc<Router>,
    frames: FrameServer,
}

impl RouterServer {
    /// Bind `addr` (port 0 for ephemeral) and start accepting.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(router: Arc<Router>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let handler_router = Arc::clone(&router);
        let frames = FrameServer::start(addr, "pardict-cluster", move |req| {
            handle(&handler_router, req)
        })?;
        Ok(Self { router, frames })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.frames.addr()
    }

    /// The router this server fronts.
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stop accepting; existing connections drain on client EOF.
    pub fn stop(&mut self) {
        self.frames.stop();
    }
}

fn error_response(e: &ClusterError) -> WireResponse {
    let (code, message) = e.to_wire();
    WireResponse::Error { code, message }
}

fn handle(router: &Router, req: WireRequest) -> WireResponse {
    let (req, trace) = req.untraced(router.tracer().is_some());
    match req {
        WireRequest::Ping => WireResponse::Pong,
        WireRequest::Hello { .. } => WireResponse::hello(router.tracer().is_some()),
        WireRequest::Traced { .. } => unreachable!("nested Traced rejected by the decoder"),
        WireRequest::Dicts => WireResponse::DictList(router.dict_digests()),
        WireRequest::Metrics => WireResponse::MetricsReport(router.report()),
        WireRequest::Stats => match router.merged_stats() {
            Ok((snap, _degraded)) => WireResponse::Stats(snap),
            Err(e) => error_response(&e),
        },
        WireRequest::Publish { name, patterns } => match router.publish(&name, &patterns) {
            Ok(summary) => WireResponse::Published {
                version: summary.version,
                cache_hit: false,
            },
            Err(e) => error_response(&e),
        },
        WireRequest::PubDelta {
            name,
            parent_version,
            adds,
            removes,
        } => {
            // The router's own view is authoritative for the parent: a
            // client delta against a superseded version is refused the
            // same way a single node refuses it.
            let current = router
                .dict_digests()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, v, _)| v);
            if current != Some(parent_version) {
                return WireResponse::Error {
                    code: ServiceError::BadRequest(String::new()).code(),
                    message: format!(
                        "delta parent version {parent_version} does not match current {current:?}"
                    ),
                };
            }
            match router.publish_delta(&name, &pardict_core::DictDelta { adds, removes }) {
                Ok(summary) => WireResponse::Published {
                    version: summary.version,
                    cache_hit: false,
                },
                Err(e) => error_response(&e),
            }
        }
        WireRequest::Op {
            tag,
            dict,
            text,
            timeout_ms,
        } => {
            if !matches!(
                tag,
                wire::tag::MATCH
                    | wire::tag::GREP
                    | wire::tag::COMPRESS
                    | wire::tag::PARSE
                    | wire::tag::GREPZ
            ) {
                return WireResponse::Error {
                    code: ServiceError::BadRequest(String::new()).code(),
                    message: format!("unknown op tag {tag}"),
                };
            }
            let routed = router.op_traced(tag, &dict, &text, timeout_ms, trace);
            match routed.result {
                Ok(resp) => resp,
                Err(e) => error_response(&e),
            }
        }
    }
}
