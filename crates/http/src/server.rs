//! The SPARQL 1.1 Protocol server: routing, status mapping, budgets,
//! and streaming responses.
//!
//! One [`SparqlServer`] wraps an `Arc<Store>`. [`SparqlServer::bind`]
//! yields a [`BoundServer`] whose [`serve`](BoundServer::serve) runs
//! `workers` accept loops on scoped threads
//! ([`sparqlog_datalog::run_scoped`]) — worker-per-connection with
//! keep-alive; each request evaluates on its worker's thread. Per
//! request:
//!
//! * one [`Snapshot`](sparqlog::Snapshot) is pinned, so the whole
//!   response is a consistent store version even while writers commit;
//! * the store's default [`Budget`] governs the request — a `timeout=`
//!   ms parameter may only lower its timeout — plus a connection-drop
//!   [`CancelToken`] (see [`crate::watch`]), through
//!   [`Snapshot::with_budget`](sparqlog::Snapshot::with_budget);
//! * the result streams out through a
//!   [`ChunkedWriter`] — a huge CONSTRUCT
//!   never materializes server-side.
//!
//! Updates (`POST /update`) run through [`Store::update`], which
//! serializes write requests behind the commit lock while read traffic
//! continues on its snapshots.
//!
//! Observability (PR 10): `GET /metrics` renders the store's shared
//! [`MetricsRegistry`]; every response carries an `X-Request-Id`; each
//! written response is recorded (method/status counter, latency
//! histogram, streamed bytes by format) *after* its bytes go out, so a
//! metrics scrape never counts itself.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparqlog::results_io::{
    write_csv, write_json, write_ntriples, write_tsv, write_turtle, WriteError,
};
use sparqlog::{
    Budget, CancelToken, MetricsRegistry, QueryProfile, QueryResults, SparqLogError, Store,
};
use sparqlog_obs::{CounterVec, Histogram};

use crate::conneg::{candidates, negotiate, Format};
use crate::http::{
    read_request, write_chunked_head, write_response, ChunkedWriter, Request, RequestError,
};
use crate::urlenc::{find_param, parse_form};
use crate::watch;

/// Tunables for a [`SparqlServer`]. `Default` is sensible for tests and
/// local serving; production deployments mostly raise `workers`. The
/// query guard-rails (timeout, row and dictionary caps) are the store's
/// default budget ([`Store::set_default_budget`]), not a server knob.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accept-loop/connection workers (each holds one connection at a
    /// time; keep-alive included). Defaults to
    /// `max(4, available_parallelism)`.
    pub workers: usize,
    /// Idle read timeout on kept-alive connections; also bounds how
    /// long a half-sent request can stall a worker.
    pub keep_alive_timeout: Duration,
    /// Chunk size for streamed response bodies (bytes buffered
    /// server-side per connection — the O(chunk) in "bounded memory").
    pub chunk_size: usize,
    /// Maximum accepted request body size.
    pub max_body: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(4),
            keep_alive_timeout: Duration::from_secs(10),
            chunk_size: 16 * 1024,
            max_body: crate::http::DEFAULT_MAX_BODY,
        }
    }
}

/// A SPARQL 1.1 Protocol endpoint over a shared [`Store`]. See the
/// [module docs](self) for the request lifecycle.
pub struct SparqlServer {
    store: Arc<Store>,
    config: ServerConfig,
}

impl SparqlServer {
    /// Serves `store` with the default [`ServerConfig`].
    pub fn new(store: Arc<Store>) -> Self {
        SparqlServer {
            store,
            config: ServerConfig::default(),
        }
    }

    /// Serves `store` with an explicit configuration.
    pub fn with_config(store: Arc<Store>, config: ServerConfig) -> Self {
        SparqlServer { store, config }
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// without accepting yet.
    pub fn bind(self, addr: &str) -> io::Result<BoundServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(BoundServer {
            listener,
            store: self.store,
            config: self.config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }
}

/// A bound, not-yet-serving endpoint: grab
/// [`local_addr`](BoundServer::local_addr) and a
/// [`handle`](BoundServer::handle), then call
/// [`serve`](BoundServer::serve) (typically on its own thread).
pub struct BoundServer {
    listener: TcpListener,
    store: Arc<Store>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

/// Shuts a serving [`BoundServer`] down from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: usize,
}

impl ServerHandle {
    /// Requests shutdown and unblocks the accept loops. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Each accept loop needs one wake-up connection to notice the
        // flag; connect a few extra in case some races a real client.
        for _ in 0..self.workers + 2 {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

impl BoundServer {
    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A cloneable shutdown handle.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.listener.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            workers: self.config.workers.max(1),
        })
    }

    /// Runs the accept loops until [`ServerHandle::shutdown`]; blocks
    /// the calling thread (spawn it for background serving).
    pub fn serve(self) {
        let workers = self.config.workers.max(1);
        let metrics = ServerMetrics::new(self.store.metrics());
        let ctx = Ctx {
            store: &self.store,
            config: &self.config,
            shutdown: &self.shutdown,
            metrics: &metrics,
        };
        let listener = &self.listener;
        sparqlog_datalog::run_scoped(workers, workers, &|_| {
            accept_loop(listener, &ctx);
        });
    }
}

/// Shared per-server state threaded through the handlers.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    store: &'a Store,
    config: &'a ServerConfig,
    shutdown: &'a AtomicBool,
    metrics: &'a ServerMetrics,
}

/// The HTTP layer's families in the store's [`MetricsRegistry`] —
/// registered once per [`BoundServer::serve`] and shared with the
/// engine's own counters, so one `GET /metrics` scrape covers the
/// whole stack.
struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    requests: Arc<CounterVec>,
    bytes_streamed: Arc<CounterVec>,
    duration_us: Arc<Histogram>,
}

impl ServerMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        let requests = registry.counter_vec(
            "sparqlog_http_requests_total",
            "HTTP responses written, by request method and response status.",
            &["method", "status"],
        );
        let bytes_streamed = registry.counter_vec(
            "sparqlog_http_bytes_streamed_total",
            "Chunked response-body bytes put on the wire, by result format.",
            &["format"],
        );
        let duration_us = registry.histogram(
            "sparqlog_http_request_duration_us",
            "Wall time from parsed request to written response (microseconds).",
            22,
        );
        ServerMetrics {
            registry,
            requests,
            bytes_streamed,
            duration_us,
        }
    }
}

/// Per-request bookkeeping: the request id echoed on every response and
/// the method/start-time pair the response recorder needs. A request is
/// recorded when its response is committed (status settled, head about
/// to be written): by the time a client has read a response, it is
/// counted — and `serve_metrics` renders the exposition *before*
/// recording, so a scrape never counts itself.
struct ReqScope<'a> {
    rid: String,
    method_label: String,
    started: Instant,
    metrics: &'a ServerMetrics,
}

impl<'a> ReqScope<'a> {
    fn for_request(req: &Request, metrics: &'a ServerMetrics) -> Self {
        let rid = req
            .header("x-request-id")
            .map(sanitize_request_id)
            .filter(|s| !s.is_empty())
            .unwrap_or_else(fresh_request_id);
        ReqScope {
            rid,
            method_label: req.method.clone(),
            started: Instant::now(),
            metrics,
        }
    }

    /// For responses to requests that never parsed (no method to label).
    fn anonymous(metrics: &'a ServerMetrics) -> Self {
        ReqScope {
            rid: fresh_request_id(),
            method_label: "-".to_string(),
            started: Instant::now(),
            metrics,
        }
    }

    /// The `X-Request-Id` header line for this request.
    fn rid_header(&self) -> String {
        format!("X-Request-Id: {}", self.rid)
    }

    fn record(&self, status: u16) {
        self.metrics
            .requests
            .with(&[&self.method_label, &status.to_string()])
            .inc();
        self.metrics
            .duration_us
            .observe(self.started.elapsed().as_micros() as u64);
    }

    /// Bytes counters trail the body: they are added once the terminal
    /// chunk is on the wire and the total is known.
    fn record_bytes(&self, format_label: &str, bytes: u64) {
        self.metrics.bytes_streamed.with(&[format_label]).add(bytes);
    }
}

/// Clients may supply their own correlation id; cap it and strip
/// anything that is not printable ASCII so it echoes back as one clean
/// header value.
fn sanitize_request_id(raw: &str) -> String {
    raw.chars()
        .filter(|c| c.is_ascii_graphic())
        .take(128)
        .collect()
}

/// A fresh request id: wall-clock nanoseconds plus a process-wide
/// sequence number — unique without needing an RNG.
fn fresh_request_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!(
        "{nanos:x}-{:04x}",
        SEQ.fetch_add(1, Ordering::Relaxed) & 0xffff
    )
}

/// Counts the bytes a [`ChunkedWriter`] puts on the wire (frames
/// included), feeding `sparqlog_http_bytes_streamed_total`.
struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Ctx<'_>) {
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return; // wake-up connection from ServerHandle
                }
                // A panicking handler must not take its accept loop
                // down with it (mirrors the batch pool's containment).
                let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, ctx)));
            }
            Err(_) => {
                // Transient accept errors (EMFILE, aborted handshake):
                // back off briefly instead of spinning.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx<'_>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.config.keep_alive_timeout));
    // A dead peer must not pin a worker forever mid-write.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_request(&mut reader, ctx.config.max_body, Some(&mut stream)) {
            Err(RequestError::Closed) | Err(RequestError::Io(_)) => return,
            Err(RequestError::Malformed(msg)) => {
                let scope = ReqScope::anonymous(ctx.metrics);
                let _ = respond_text(&mut stream, &scope, 400, &msg, false);
                return;
            }
            Err(RequestError::TooLarge("body")) => {
                let scope = ReqScope::anonymous(ctx.metrics);
                let _ = respond_text(&mut stream, &scope, 413, "request body too large", false);
                return;
            }
            Err(RequestError::TooLarge(what)) => {
                let scope = ReqScope::anonymous(ctx.metrics);
                let _ = respond_text(
                    &mut stream,
                    &scope,
                    431,
                    &format!("{what} too large"),
                    false,
                );
                return;
            }
            Err(RequestError::LengthRequired) => {
                let scope = ReqScope::anonymous(ctx.metrics);
                let _ = respond_text(
                    &mut stream,
                    &scope,
                    411,
                    "chunked request bodies are not supported; send Content-Length",
                    false,
                );
                return;
            }
            Ok(req) => {
                let keep = req.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
                match handle_request(&req, &mut stream, keep, ctx) {
                    Ok(true) => continue,
                    _ => return,
                }
            }
        }
    }
}

/// Writes a plain-text response; `Ok(keep)` mirrors the keep-alive flag.
fn respond_text(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<bool> {
    respond_text_extra(stream, scope, status, body, keep_alive, &[])
}

fn respond_text_extra(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    status: u16,
    body: &str,
    keep_alive: bool,
    extra: &[&str],
) -> io::Result<bool> {
    let mut text = body.to_string();
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    respond_with_type(
        stream,
        scope,
        status,
        "text/plain; charset=utf-8",
        text.as_bytes(),
        keep_alive,
        extra,
    )
}

/// Writes an `application/json` response (the rich 408 abort bodies).
fn respond_json(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<bool> {
    respond_with_type(
        stream,
        scope,
        status,
        "application/json",
        body.as_bytes(),
        keep_alive,
        &[],
    )
}

/// The one non-streaming response chokepoint: stamps `X-Request-Id`,
/// writes the response, then records it in the registry.
fn respond_with_type(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[&str],
) -> io::Result<bool> {
    let rid = scope.rid_header();
    let mut headers: Vec<&str> = Vec::with_capacity(extra.len() + 1);
    headers.push(&rid);
    headers.extend_from_slice(extra);
    scope.record(status);
    write_response(stream, status, content_type, body, keep_alive, &headers)?;
    Ok(keep_alive)
}

/// Dispatches one parsed request. `Ok(true)` keeps the connection.
fn handle_request(
    req: &Request,
    stream: &mut TcpStream,
    keep_alive: bool,
    ctx: &Ctx<'_>,
) -> io::Result<bool> {
    let scope = ReqScope::for_request(req, ctx.metrics);
    let scope = &scope;
    match (req.path.as_str(), req.method.as_str()) {
        ("/query", "GET" | "POST") => {
            match decode_operation(req, "query", "application/sparql-query") {
                Ok((query, params)) => {
                    run_query(req, stream, scope, keep_alive, ctx, &query, &params)
                }
                Err((status, msg)) => respond_text(stream, scope, status, &msg, keep_alive),
            }
        }
        ("/query", _) => respond_text_extra(
            stream,
            scope,
            405,
            "method not allowed on /query",
            keep_alive,
            &["Allow: GET, POST"],
        ),
        ("/update", "POST") => match decode_operation(req, "update", "application/sparql-update") {
            Ok((update, _)) => run_update(stream, scope, keep_alive, ctx, &update),
            Err((status, msg)) => respond_text(stream, scope, status, &msg, keep_alive),
        },
        ("/update", _) => respond_text_extra(
            stream,
            scope,
            405,
            "method not allowed on /update; updates go via POST",
            keep_alive,
            &["Allow: POST"],
        ),
        ("/metrics", "GET") => serve_metrics(stream, scope, keep_alive, ctx),
        ("/metrics", _) => respond_text_extra(
            stream,
            scope,
            405,
            "method not allowed on /metrics",
            keep_alive,
            &["Allow: GET"],
        ),
        _ => respond_text(
            stream,
            scope,
            404,
            "not found; this endpoint serves /query, /update and /metrics",
            keep_alive,
        ),
    }
}

/// A decoded protocol operation: its text and the request's parameters.
type Operation = (String, Vec<(String, String)>);

/// Decodes a protocol operation — the `param` text (`query` or `update`)
/// and the request's parameters — as SPARQL 1.1 Protocol sends it: a
/// `GET` carries a URL-encoded form in the query string; a `POST` either
/// the raw text under the `direct` content type (parameters may still
/// ride the query string) or a URL-encoded form body. A request that
/// does not decode is the `(status, message)` to answer with.
fn decode_operation(req: &Request, param: &str, direct: &str) -> Result<Operation, (u16, String)> {
    let query_string = req.query_string.as_deref().unwrap_or("");
    let utf8 = |what: &str| {
        std::str::from_utf8(&req.body).map_err(|_| (400, format!("{what} body is not UTF-8")))
    };
    let form = if req.method == "GET" {
        query_string
    } else {
        match req.content_type().as_deref() {
            Some(ct) if ct == direct => {
                let text = utf8(param)?.to_string();
                return Ok((text, parse_form(query_string).unwrap_or_default()));
            }
            Some("application/x-www-form-urlencoded") | None => utf8("form")?,
            Some(other) => {
                return Err((
                    415,
                    format!(
                        "unsupported Content-Type {other:?}; use {direct} or application/x-www-form-urlencoded"
                    ),
                ))
            }
        }
    };
    let params = parse_form(form).map_err(|e| (400, e.to_string()))?;
    let text = find_param(&params, param)
        .ok_or_else(|| (400, format!("missing `{param}` parameter")))?
        .to_string();
    Ok((text, params))
}

/// `GET /metrics`: the store registry (engine + HTTP families) in the
/// Prometheus text exposition format, streamed chunked like every other
/// response body. The exposition is rendered *before* this request is
/// recorded, so a scrape never counts itself.
fn serve_metrics(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    keep_alive: bool,
    ctx: &Ctx<'_>,
) -> io::Result<bool> {
    let text = scope.metrics.registry.render_to_string();
    let rid = scope.rid_header();
    scope.record(200);
    write_chunked_head(
        stream,
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        keep_alive,
        &[&rid],
    )?;
    let mut chunked = ChunkedWriter::new(&mut *stream, ctx.config.chunk_size);
    let done = chunked
        .write_all(text.as_bytes())
        .and_then(|()| chunked.finish().map(|_| ()));
    match done {
        Ok(()) => Ok(keep_alive),
        Err(_) => Ok(false),
    }
}

/// Builds the request budget from the store's default: its timeout
/// optionally *lowered* by a `timeout=` (milliseconds) parameter, never
/// raised. The caller attaches the connection-drop token.
fn request_budget(default: &Budget, params: &[(String, String)]) -> Result<Budget, String> {
    let Some(raw) = find_param(params, "timeout") else {
        return Ok(default.clone());
    };
    let ms: u64 = raw
        .parse()
        .map_err(|_| format!("invalid timeout parameter {raw:?} (want milliseconds)"))?;
    let requested = Duration::from_millis(ms);
    let timeout = default
        .timeout()
        .map_or(requested, |cap| cap.min(requested));
    Ok(default.clone().with_timeout(timeout))
}

/// Renders a governor abort as the structured 408 JSON body.
fn abort_body(e: &SparqLogError) -> Option<String> {
    let SparqLogError::Aborted {
        reason,
        elapsed,
        rows_derived,
    } = e
    else {
        return None;
    };
    Some(format!(
        "{{\"error\":\"query aborted\",\"reason\":\"{}\",\"detail\":\"{}\",\"elapsed_ms\":{},\"rows_derived\":{}}}",
        reason.label(),
        reason,
        elapsed.as_millis(),
        rows_derived
    ))
}

/// Writes the error response for a failed query/update: governor aborts
/// become a structured `application/json` 408, everything else stays
/// plain text with the engine's message.
fn respond_error(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    e: &SparqLogError,
    keep_alive: bool,
) -> io::Result<bool> {
    let status = match e {
        SparqLogError::Aborted { .. } => 408,
        SparqLogError::Parse(_) | SparqLogError::Translation(_) | SparqLogError::ReadOnly(_) => 400,
        _ => 500,
    };
    match abort_body(e) {
        Some(json) => respond_json(stream, scope, status, &json, keep_alive),
        None => respond_text(stream, scope, status, &e.to_string(), keep_alive),
    }
}

/// The 500 body of a query whose preparation or evaluation panicked.
const PANICKED: &str = "internal error: query evaluation panicked";

#[allow(clippy::too_many_arguments)]
fn run_query(
    req: &Request,
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    keep_alive: bool,
    ctx: &Ctx<'_>,
    query: &str,
    params: &[(String, String)],
) -> io::Result<bool> {
    if find_param(params, "default-graph-uri").is_some()
        || find_param(params, "named-graph-uri").is_some()
    {
        return respond_text(
            stream,
            scope,
            400,
            "RDF Dataset parameters (default-graph-uri / named-graph-uri) are not supported",
            keep_alive,
        );
    }

    // Pin ONE snapshot for the request: evaluation and serialization
    // both see a single store version regardless of concurrent commits.
    let snapshot = ctx.store.snapshot();
    // Prepare first (a cached text is not parsed again): the query form
    // decides which formats are negotiable, so 400 and 406 are both
    // settled before any evaluation.
    let prepared = match catch_unwind(AssertUnwindSafe(|| snapshot.prepare(query))) {
        Err(_) => return respond_text(stream, scope, 500, PANICKED, keep_alive),
        Ok(Err(e)) => return respond_error(stream, scope, &e, keep_alive),
        Ok(Ok(p)) => p,
    };
    let graph_form = prepared.query().is_construct() || prepared.query().is_describe();
    let Some(format) = negotiate(req.header("accept"), graph_form) else {
        let acceptable: Vec<&str> = candidates(graph_form)
            .iter()
            .map(|f| f.content_type())
            .collect();
        return respond_text(
            stream,
            scope,
            406,
            &format!(
                "no acceptable representation for this {} result; supported: {}",
                if graph_form { "graph" } else { "solutions" },
                acceptable.join(", ")
            ),
            keep_alive,
        );
    };

    let default = &snapshot.options().budget;
    let budget = match request_budget(default, params) {
        Ok(b) => b,
        Err(msg) => return respond_text(stream, scope, 400, &msg, keep_alive),
    };
    // The connection-drop token, under the default's own token if it
    // has one, so cancelling the store-wide token still reaches us.
    let token = default
        .cancel_token()
        .map_or_else(CancelToken::new, CancelToken::child);
    let snapshot = snapshot.with_budget(budget.with_cancel(token.clone()));
    let profiled = find_param(params, "profile")
        .map(|v| v == "true" || v == "1")
        .unwrap_or(false);

    // While the query runs, the connection watcher cancels the token if
    // the client hangs up. The guard is dropped before any response
    // bytes are written (see crate::watch on why that ordering is hard).
    let guard = watch::watch(stream.try_clone()?, token);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if profiled {
            snapshot
                .execute_profiled(query)
                .map(|(results, profile)| (results, Some(profile)))
        } else {
            snapshot
                .execute_prepared(&prepared)
                .map(|results| (results, None))
        }
    }));
    drop(guard);

    let (results, profile) = match outcome {
        Err(_) => return respond_text(stream, scope, 500, PANICKED, keep_alive),
        Ok(Err(e)) => return respond_error(stream, scope, &e, keep_alive),
        Ok(Ok(pair)) => pair,
    };

    stream_results(
        stream,
        scope,
        keep_alive,
        ctx,
        &results,
        format,
        profile.as_ref(),
    )
}

/// Streams a successful result as a chunked 200, with the query profile
/// (when requested) riding behind the body as an `X-Query-Profile`
/// trailer field. Returns `Ok(false)` (drop the connection) if the
/// client vanished mid-stream — the missing terminal chunk tells it the
/// body is truncated.
#[allow(clippy::too_many_arguments)]
fn stream_results(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    keep_alive: bool,
    ctx: &Ctx<'_>,
    results: &QueryResults,
    format: Format,
    profile: Option<&QueryProfile>,
) -> io::Result<bool> {
    let rid = scope.rid_header();
    let mut head: Vec<&str> = vec![&rid];
    if profile.is_some() {
        head.push("Trailer: X-Query-Profile");
    }
    scope.record(200);
    write_chunked_head(stream, 200, format.content_type(), keep_alive, &head)?;
    let counting = CountingWriter {
        inner: &mut *stream,
        written: 0,
    };
    let mut chunked = ChunkedWriter::new(counting, ctx.config.chunk_size);
    let written = match format {
        Format::Json => write_json(results, &mut chunked),
        Format::Csv => write_csv(results, &mut chunked),
        Format::Tsv => write_tsv(results, &mut chunked),
        Format::NTriples => write_ntriples(results, &mut chunked),
        Format::Turtle => write_turtle(results, &mut chunked),
    };
    match written {
        Ok(()) => {
            let finished = match profile {
                Some(p) => chunked.finish_with_trailers(&[("X-Query-Profile", &p.to_json())]),
                None => chunked.finish(),
            };
            match finished {
                Ok(counting) => {
                    scope.record_bytes(format_label(format), counting.written);
                    Ok(keep_alive)
                }
                Err(e) => Err(e),
            }
        }
        // Form mismatch cannot happen (format was negotiated from the
        // parsed form) and I/O failure means the peer is gone; either
        // way the only safe move after a 200 head is truncation.
        Err(WriteError::Serialize(_)) | Err(WriteError::Io(_)) => Ok(false),
    }
}

/// The `format` label for `sparqlog_http_bytes_streamed_total`.
fn format_label(format: Format) -> &'static str {
    match format {
        Format::Json => "json",
        Format::Csv => "csv",
        Format::Tsv => "tsv",
        Format::NTriples => "ntriples",
        Format::Turtle => "turtle",
    }
}

fn run_update(
    stream: &mut TcpStream,
    scope: &ReqScope<'_>,
    keep_alive: bool,
    ctx: &Ctx<'_>,
    update: &str,
) -> io::Result<bool> {
    // Store::update parses, then applies the whole request under the
    // commit lock — concurrent POST /update requests serialize there
    // while queries keep reading their pinned snapshots.
    let outcome = catch_unwind(AssertUnwindSafe(|| ctx.store.update(update)));
    match outcome {
        Err(_) => respond_text(
            stream,
            scope,
            500,
            "internal error: update panicked",
            keep_alive,
        ),
        Ok(Err(e)) => respond_error(stream, scope, &e, keep_alive),
        Ok(Ok(_stats)) => {
            let rid = scope.rid_header();
            scope.record(204);
            write_response(stream, 204, "", &[], keep_alive, &[&rid])?;
            Ok(keep_alive)
        }
    }
}
