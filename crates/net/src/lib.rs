//! # pclabel-net
//!
//! The std-only network front end for the `pclabel` serving engine.
//! Where `pclabel-engine` answers requests over stdin/stdout, this crate
//! mounts the *same* transport-agnostic
//! [`Dispatcher`](pclabel_engine::serve::Dispatcher) behind `std::net`:
//! one listening socket serves both wire protocols, detected from the
//! first four bytes of each connection:
//!
//! * **Length-prefixed TCP framing** ([`frame`]) — each request and
//!   response is a `u32` big-endian byte length followed by that many
//!   bytes of JSON. Persistent, pipelinable, minimal overhead; the
//!   [`client::NetClient`] speaks it.
//! * **HTTP/1.1** ([`http`]) — `POST /query`, `POST /register`,
//!   `GET /stats`, `GET /healthz` (and `POST /<op>` generally) with the
//!   same JSON bodies, `Content-Length` framing and keep-alive. Anything
//!   that speaks HTTP (e.g. `curl`) can hit the engine directly.
//!
//! The two protocols cannot collide: an HTTP connection starts with an
//! ASCII method (`"GET "` is `0x47455420` ≈ 1.19 GB as a big-endian
//! length) while frame lengths are capped far lower by
//! [`server::ServerConfig::max_frame`].
//!
//! Because every transport funnels into one dispatcher, `pclabel-serve`
//! (pipe) and `pclabel-netd` (network) produce byte-identical response
//! JSON for the same request stream — asserted by this crate's
//! integration tests. Framed requests and HTTP `POST /` bodies try the
//! dispatcher's typed `query` path
//! ([`answer_query_line`](pclabel_engine::serve::Dispatcher::answer_query_line))
//! first and fall back to the DOM path for any other line; the tests
//! compare the responses as bytes, so the two paths cannot drift.
//!
//! ## Connection model
//!
//! Every connection runs on the reactor: event-loop threads
//! ([`ServerConfig::reactors`](server::ServerConfig)) own the
//! connections as non-blocking state machines over `epoll` (Linux) or
//! `poll(2)` (other Unixes); workers are held per *request*, so idle
//! connections cost a file descriptor, not a thread. Loop 0 owns the one
//! listener and deals accepted sockets round-robin across the loops, the
//! same way on both backends. The loops add per-connection deadlines and
//! a connection cap with LRU-idle eviction.
//! The server needs a Unix: elsewhere
//! [`NetServer::spawn`](server::NetServer::spawn) returns
//! [`std::io::ErrorKind::Unsupported`].
//!
//! ## Pieces
//!
//! * [`frame`] — the length-prefixed wire format (read/write, size caps);
//! * [`server`] — the TCP listener: configuration, binding, graceful
//!   shutdown, the transport-level request path, and the one bounded
//!   job queue from the event loops to the `workers` threads (a full
//!   queue refuses a request as `overloaded` instead of growing memory);
//! * `reactor` + `sys` (Unix) — the event loops and their raw
//!   `epoll`/`poll(2)` syscall layer;
//! * [`http`] — the minimal HTTP/1.1 adapter;
//! * [`client`] — blocking framed-TCP and HTTP clients for tests,
//!   benchmarks and smoke scripts.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use pclabel_engine::prelude::*;
//! use pclabel_net::client::NetClient;
//! use pclabel_net::server::{NetServer, ServerConfig};
//! use pclabel_engine::json::Json;
//!
//! let server = NetServer::spawn(
//!     Arc::new(Dispatcher::with_config(EngineConfig::default())),
//!     ServerConfig::default(), // 127.0.0.1:0 — ephemeral loopback port
//! )
//! .unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let response = client
//!     .request_line(r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#)
//!     .unwrap();
//! assert_eq!(Json::parse(&response).unwrap().get("ok"), Some(&Json::Bool(true)));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
// Off Unix the server is unsupported, leaving its request path unused.
#![cfg_attr(not(unix), allow(dead_code, unused_imports))]

pub mod client;
pub(crate) mod conntrack;
#[cfg(test)]
mod decoder_fuzz;
pub mod frame;
pub mod http;
pub(crate) mod metrics;
#[cfg(unix)]
pub(crate) mod reactor;
pub mod server;
#[cfg(unix)]
pub(crate) mod sys;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::client::{HttpClient, NetClient, RetryPolicy, RetryingClient};
    pub use crate::frame::{encode_frame, read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
    pub use crate::server::{NetServer, ServerConfig, ServerHandle};
}
