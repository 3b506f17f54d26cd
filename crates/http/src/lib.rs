//! # sparqlog-http — SPARQL 1.1 Protocol endpoint
//!
//! A zero-dependency HTTP/1.1 server (over `std::net::TcpListener`)
//! exposing a [`sparqlog::Store`] per the
//! [W3C SPARQL 1.1 Protocol](https://www.w3.org/TR/sparql11-protocol/):
//!
//! * `GET /query?query=…` and `POST /query` (both
//!   `application/sparql-query` bodies and form-encoded `query=`);
//! * `POST /update` (`application/sparql-update` or form-encoded
//!   `update=`), answered with `204 No Content`;
//! * content negotiation over the five PR 5 wire formats — SPARQL
//!   Results JSON / CSV / TSV for `SELECT`/`ASK`, N-Triples / Turtle
//!   for `CONSTRUCT`/`DESCRIBE` (`406` when the `Accept` header rules
//!   them all out);
//! * every response body streams with chunked transfer encoding
//!   through the incremental serializers, so result size never
//!   dictates server memory;
//! * per-request [`Budget`](sparqlog::Budget)s: the store's default
//!   budget (`Store::set_default_budget`), an optional per-request
//!   `timeout=` ms override (only ever *lowering* its timeout), and a
//!   connection-drop
//!   [`CancelToken`](sparqlog::CancelToken) — an exceeded budget is a
//!   `408` whose `application/json` body carries the structured abort
//!   detail (`reason`, `elapsed_ms`, `rows_derived`);
//! * `GET /metrics` (PR 10): the store's
//!   [`MetricsRegistry`](sparqlog::MetricsRegistry) — engine counters
//!   and the HTTP layer's own request/latency/bytes families — in the
//!   Prometheus text exposition format;
//! * `profile=true` on `/query`: the evaluation runs profiled and the
//!   [`QueryProfile`](sparqlog::QueryProfile) JSON rides behind the
//!   streamed body as an `X-Query-Profile` chunked trailer field;
//! * every response echoes the request's `X-Request-Id` header (or a
//!   server-generated id when the client sent none).
//!
//! Status mapping: parse/translation errors are `400` (the parser's
//! message is the body), budget aborts are `408`, evaluation defects
//! are `500`; the usual `404`/`405`/`406`/`411`/`413`/`415` cover the
//! protocol edges.
//!
//! ```no_run
//! use std::sync::Arc;
//! use sparqlog::Store;
//! use sparqlog_http::SparqlServer;
//!
//! let store = Arc::new(Store::new());
//! let server = SparqlServer::new(store).bind("127.0.0.1:8000").unwrap();
//! println!("serving on {}", server.local_addr().unwrap());
//! server.serve(); // blocks; use server.handle() to stop it
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod conneg;
pub mod http;
pub mod server;
pub mod urlenc;
pub mod watch;

pub use conneg::{negotiate, Format};
pub use http::{ChunkedWriter, Request, RequestError};
pub use server::{BoundServer, ServerConfig, ServerHandle, SparqlServer};
pub use urlenc::{parse_form, percent_decode, percent_encode, DecodeError};
