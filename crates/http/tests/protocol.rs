//! SPARQL 1.1 Protocol conformance over a real loopback socket: the
//! conneg matrix (each wire format + default + 406), method and
//! Content-Type routing, the 400/406/408/500 status mapping (bodies
//! carrying the parser's / governor's message), percent-decoding through
//! the full stack, update-then-query visibility, keep-alive, and the
//! bounded-memory streaming of a ≥100k-triple CONSTRUCT.

mod common;

use std::time::{Duration, Instant};

use common::{boot, get_query, request, Client, TestServer};
use sparqlog::{Budget, Store, Term};
use sparqlog_http::{percent_encode, ServerConfig};

const PREFIX: &str = "PREFIX ex: <http://ex.org/> ";

/// People + a ring: star joins for cheap queries, `ex:next+` closure as
/// the expensive recursive shape a 1 ms budget always interrupts.
fn fixture_store() -> Store {
    let mut src = String::from(
        r#"@prefix ex: <http://ex.org/> .
ex:alice ex:name "Alice" ; ex:knows ex:bob .
ex:bob ex:name "Bob" ; ex:knows ex:carol .
ex:carol ex:name "Carol" .
"#,
    );
    for i in 0..150 {
        src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % 150));
        if i % 7 == 0 {
            src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 3 + 1) % 150));
        }
    }
    let store = Store::new();
    store.load_turtle(&src).unwrap();
    store
}

fn fixture_server() -> TestServer {
    boot(
        fixture_store(),
        ServerConfig {
            workers: 2,
            keep_alive_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
}

const SELECT_NAMES: &str = "PREFIX ex: <http://ex.org/> SELECT ?p ?n WHERE { ?p ex:name ?n }";
const CONSTRUCT_KNOWS: &str =
    "PREFIX ex: <http://ex.org/> CONSTRUCT { ?a ex:met ?b } WHERE { ?a ex:knows ?b }";

// ------------------------------------------------------------- conneg

#[test]
fn conneg_matrix_solutions() {
    let server = fixture_server();
    let reference = fixture_store().execute(SELECT_NAMES).unwrap();

    for (accept, expect_ct, expect_body) in [
        (
            None,
            "application/sparql-results+json",
            reference.to_json().unwrap(),
        ),
        (
            Some("application/sparql-results+json"),
            "application/sparql-results+json",
            reference.to_json().unwrap(),
        ),
        (
            Some("application/json"),
            "application/sparql-results+json",
            reference.to_json().unwrap(),
        ),
        (
            Some("text/csv"),
            "text/csv; charset=utf-8",
            reference.to_csv().unwrap(),
        ),
        (
            Some("text/tab-separated-values"),
            "text/tab-separated-values; charset=utf-8",
            reference.to_tsv().unwrap(),
        ),
        (
            Some("*/*"),
            "application/sparql-results+json",
            reference.to_json().unwrap(),
        ),
        (
            Some("text/csv;q=0.3, text/tab-separated-values;q=0.9"),
            "text/tab-separated-values; charset=utf-8",
            reference.to_tsv().unwrap(),
        ),
    ] {
        let r = get_query(server.addr, SELECT_NAMES, accept);
        assert_eq!(r.status, 200, "accept {accept:?}: {}", r.text());
        assert_eq!(
            r.header("content-type"),
            Some(expect_ct),
            "accept {accept:?}"
        );
        assert_eq!(r.text(), expect_body, "accept {accept:?}");
    }
}

#[test]
fn conneg_matrix_graphs() {
    let server = fixture_server();
    let reference = fixture_store().execute(CONSTRUCT_KNOWS).unwrap();

    for (accept, expect_ct, expect_body) in [
        (
            None,
            "application/n-triples",
            reference.to_ntriples().unwrap(),
        ),
        (
            Some("application/n-triples"),
            "application/n-triples",
            reference.to_ntriples().unwrap(),
        ),
        (
            Some("text/turtle"),
            "text/turtle",
            reference.to_turtle().unwrap(),
        ),
        (
            Some("*/*"),
            "application/n-triples",
            reference.to_ntriples().unwrap(),
        ),
    ] {
        let r = get_query(server.addr, CONSTRUCT_KNOWS, accept);
        assert_eq!(r.status, 200, "accept {accept:?}: {}", r.text());
        assert_eq!(
            r.header("content-type"),
            Some(expect_ct),
            "accept {accept:?}"
        );
        assert_eq!(r.text(), expect_body, "accept {accept:?}");
    }
}

#[test]
fn conneg_406_when_nothing_acceptable() {
    let server = fixture_server();
    // A graph format for a SELECT, a solutions format for a CONSTRUCT,
    // and a type we never speak.
    for (query, accept) in [
        (SELECT_NAMES, "text/turtle"),
        (SELECT_NAMES, "text/html"),
        (CONSTRUCT_KNOWS, "application/sparql-results+json"),
        (CONSTRUCT_KNOWS, "text/csv"),
    ] {
        let r = get_query(server.addr, query, Some(accept));
        assert_eq!(r.status, 406, "accept {accept:?}: {}", r.text());
        assert!(r.text().contains("supported:"), "{}", r.text());
    }
}

// ------------------------------------------------- routing and methods

#[test]
fn method_and_content_type_routing() {
    let server = fixture_server();
    let ask = "ASK { ?s ?p ?o }";
    let expected = "{\"head\":{},\"boolean\":true}";

    // GET /query with query string.
    let r = get_query(server.addr, ask, None);
    assert_eq!((r.status, r.text()), (200, expected));

    // POST /query, direct sparql-query body.
    let r = request(
        server.addr,
        "POST",
        "/query",
        &[("Content-Type", "application/sparql-query")],
        Some(ask.as_bytes()),
    );
    assert_eq!((r.status, r.text()), (200, expected));

    // POST /query, form-encoded body.
    let form = format!("query={}", percent_encode(ask));
    let r = request(
        server.addr,
        "POST",
        "/query",
        &[("Content-Type", "application/x-www-form-urlencoded")],
        Some(form.as_bytes()),
    );
    assert_eq!((r.status, r.text()), (200, expected));

    // POST /query with a Content-Type we don't speak.
    let r = request(
        server.addr,
        "POST",
        "/query",
        &[("Content-Type", "application/sparql-update")],
        Some("CLEAR ALL".as_bytes()),
    );
    assert_eq!(r.status, 415, "{}", r.text());

    // Wrong methods.
    let r = request(server.addr, "PUT", "/query", &[], Some(ask.as_bytes()));
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET, POST"));
    let r = request(server.addr, "GET", "/update?update=CLEAR%20ALL", &[], None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));

    // Unknown path.
    let r = request(server.addr, "GET", "/nope", &[], None);
    assert_eq!(r.status, 404);

    // Missing parameter.
    let r = request(server.addr, "GET", "/query", &[], None);
    assert_eq!(r.status, 400);
    assert!(r.text().contains("query"), "{}", r.text());

    // Unsupported protocol dataset parameters are refused, not ignored.
    let r = request(
        server.addr,
        "GET",
        &format!(
            "/query?query={}&default-graph-uri=http%3A%2F%2Fe%2Fg",
            percent_encode(ask)
        ),
        &[],
        None,
    );
    assert_eq!(r.status, 400);
    assert!(r.text().contains("default-graph-uri"), "{}", r.text());
}

#[test]
fn malformed_query_is_400_with_parser_message() {
    let server = fixture_server();
    let bad = "SELECT ?x WHERE { ?x <http://e/p ?y }";
    let parser_message = sparqlog_sparql::parse_query(bad).unwrap_err().to_string();
    let r = get_query(server.addr, bad, None);
    assert_eq!(r.status, 400);
    assert!(
        r.text().contains(&parser_message),
        "body {:?} must contain parser message {parser_message:?}",
        r.text()
    );

    // An update fed to /query is also a 400, not a silent write, and
    // says why: the endpoint is read-only.
    let r = get_query(
        server.addr,
        "INSERT DATA { <http://e/a> <http://e/p> 1 }",
        None,
    );
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("read-only"), "{}", r.text());
}

/// A query nested past the parser's limit, a long flat chain (5 000 `||`
/// operands or path steps), or a range count that would expand past the
/// limit is a 400 with the parser's message, not a stack overflow that
/// aborts the server process; a subpattern too wide for a 64-column
/// relation is a 400 with the translation's message.
#[test]
fn deeply_nested_query_is_400_and_server_survives() {
    let server = fixture_server();
    let deep = format!(
        "SELECT * WHERE {}?s ?p ?o{}",
        "{".repeat(3000),
        "}".repeat(3000)
    );
    let long_path = "SELECT * WHERE { ?s <http://e/p>{1000000} ?o }".to_string();
    let ors = vec!["?o = 1"; 5_000].join(" || ");
    let ors = format!("SELECT * WHERE {{ ?s ?p ?o FILTER ({ors}) }}");
    let steps = vec!["<http://e/p>"; 5_000].join("/");
    let steps = format!("SELECT * WHERE {{ ?s {steps} ?o }}");
    let bgp: String = (0..70)
        .map(|i| format!("?s <http://e/p> ?o{i} . "))
        .collect();
    let wide = format!("SELECT (COUNT(*) AS ?c) WHERE {{ {bgp}}}");
    for query in [deep, long_path, ors, steps, wide] {
        let message = match sparqlog_sparql::parse_query(&query) {
            Err(e) => e.to_string(),
            Ok(_) => "relations wider than 64 columns".to_string(),
        };
        let form = format!("query={}", percent_encode(&query));
        let r = request(
            server.addr,
            "POST",
            "/query",
            &[("Content-Type", "application/x-www-form-urlencoded")],
            Some(form.as_bytes()),
        );
        assert_eq!(r.status, 400, "{}", r.text());
        assert!(
            r.text().contains(&message),
            "body {:?} must contain {message:?}",
            r.text()
        );
    }

    let r = get_query(server.addr, SELECT_NAMES, None);
    assert_eq!(r.status, 200, "{}", r.text());
}

// ------------------------------------------------------ status mapping

#[test]
fn budget_exceeded_is_408_within_50ms_of_deadline() {
    let server = fixture_server();
    // Full transitive closure over the shortcut ring: expensive enough
    // that a 1 ms budget always interrupts it mid-fixpoint.
    let closure = format!("{PREFIX}SELECT ?a ?b WHERE {{ ?a ex:next+ ?b }}");
    let target = format!("/query?query={}&timeout=1", percent_encode(&closure));

    let mut client = Client::connect(server.addr);
    let start = Instant::now();
    let r = client.request("GET", &target, &[], None);
    let elapsed = start.elapsed();

    assert_eq!(r.status, 408, "{}", r.text());
    assert!(r.text().contains("aborted"), "{}", r.text());
    // The acceptance bar: the 408 lands within ~50 ms of the 1 ms
    // budget (governor checks are batch-granular; HTTP adds parse +
    // conneg + loopback).
    assert!(
        elapsed < Duration::from_millis(1 + 50),
        "408 took {elapsed:?}"
    );

    // The connection survives an aborted request; the next query works.
    let r = client.request(
        "GET",
        &format!("/query?query={}", percent_encode("ASK { ?s ?p ?o }")),
        &[],
        None,
    );
    assert_eq!(
        (r.status, r.text()),
        (200, "{\"head\":{},\"boolean\":true}")
    );
}

/// Needs `panic_marker_hook` in `sparqlog`'s serving.rs, which only debug
/// builds compile.
#[test]
#[cfg(debug_assertions)]
fn evaluation_defect_is_500_not_408() {
    let server = fixture_server();
    // Fault injection (the hook the batch containment tests use): a
    // query carrying the marker panics inside evaluation. The server must
    // answer 500 and survive.
    std::env::set_var("SPARQLOG_PANIC_MARKER", "XHTTP500X");
    let poisoned = "# XHTTP500X\nASK { ?s ?p ?o }";
    let r = get_query(server.addr, poisoned, None);
    std::env::remove_var("SPARQLOG_PANIC_MARKER");
    assert_eq!(r.status, 500, "{}", r.text());
    assert!(r.text().contains("internal error"), "{}", r.text());

    // And the server still serves.
    let r = get_query(server.addr, "ASK { ?s ?p ?o }", None);
    assert_eq!(r.status, 200, "{}", r.text());
}

// --------------------------------------------------------- update flow

#[test]
fn update_then_query_visibility() {
    let server = fixture_server();

    // Form-encoded update.
    let insert = r#"PREFIX ex: <http://ex.org/> INSERT DATA { ex:dave ex:name "Dave" }"#;
    let form = format!("update={}", percent_encode(insert));
    let r = request(
        server.addr,
        "POST",
        "/update",
        &[("Content-Type", "application/x-www-form-urlencoded")],
        Some(form.as_bytes()),
    );
    assert_eq!(r.status, 204, "{}", r.text());
    assert!(r.body.is_empty());

    // Direct application/sparql-update body.
    let insert2 = r#"PREFIX ex: <http://ex.org/> INSERT DATA { ex:erin ex:name "Erin" }"#;
    let r = request(
        server.addr,
        "POST",
        "/update",
        &[("Content-Type", "application/sparql-update")],
        Some(insert2.as_bytes()),
    );
    assert_eq!(r.status, 204, "{}", r.text());

    // Both commits are visible to a subsequent query.
    let q = format!("{PREFIX}SELECT ?n WHERE {{ ?p ex:name ?n }}");
    let r = get_query(server.addr, &q, Some("text/csv"));
    assert_eq!(r.status, 200);
    for name in ["Dave", "Erin", "Alice"] {
        assert!(r.text().contains(name), "{}", r.text());
    }

    // A malformed update is 400 with the parser's message.
    let r = request(
        server.addr,
        "POST",
        "/update",
        &[("Content-Type", "application/sparql-update")],
        Some("INSERT DATA { broken".as_bytes()),
    );
    assert_eq!(r.status, 400, "{}", r.text());
}

// ------------------------------------------------------ percent-decode

#[test]
fn percent_decoding_survives_tricky_queries_end_to_end() {
    let server = fixture_server();
    // Install a literal containing &, =, +, % and multi-byte UTF-8 via
    // a form-encoded update, then read it back via GET with the same
    // characters percent-encoded in the query string.
    let tricky = "a&b=c+d%e café";
    let insert = format!(r#"PREFIX ex: <http://ex.org/> INSERT DATA {{ ex:t ex:v "{tricky}" }}"#);
    let r = request(
        server.addr,
        "POST",
        "/update",
        &[("Content-Type", "application/x-www-form-urlencoded")],
        Some(format!("update={}", percent_encode(&insert)).as_bytes()),
    );
    assert_eq!(r.status, 204, "{}", r.text());

    let q = format!(r#"{PREFIX}ASK {{ ex:t ex:v "{tricky}" }}"#);
    let r = get_query(server.addr, &q, None);
    assert_eq!(
        (r.status, r.text()),
        (200, "{\"head\":{},\"boolean\":true}")
    );

    // And `+` in a form body means space, not plus.
    let q2 = format!("{PREFIX}ASK {{ ex:alice ex:name \"Alice\" }}").replace(' ', "+");
    let r = request(
        server.addr,
        "POST",
        "/query",
        &[("Content-Type", "application/x-www-form-urlencoded")],
        Some(format!("query={q2}").as_bytes()),
    );
    assert_eq!(
        (r.status, r.text()),
        (200, "{\"head\":{},\"boolean\":true}")
    );
}

// ----------------------------------------------- connection management

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let server = fixture_server();
    let mut client = Client::connect(server.addr);
    for _ in 0..3 {
        let r = client.request(
            "GET",
            &format!("/query?query={}", percent_encode("ASK { ?s ?p ?o }")),
            &[],
            None,
        );
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    // Connection: close is honored — the server answers and hangs up.
    let r = client.request(
        "GET",
        &format!("/query?query={}", percent_encode("ASK { ?s ?p ?o }")),
        &[("Connection", "close")],
        None,
    );
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("close"));
}

#[test]
fn malformed_request_line_is_400() {
    let server = fixture_server();
    let mut client = Client::connect(server.addr);
    client.send_raw(b"NOT A REQUEST\r\n\r\n");
    let r = client.read_response();
    assert_eq!(r.status, 400);
}

// ------------------------------------------------- observability (PR 10)

/// Satellite (b): every response path echoes a client-supplied
/// `X-Request-Id` and generates one when the client sent none.
#[test]
fn request_id_echoed_and_generated() {
    let server = fixture_server();
    let ask_target = format!("/query?query={}", percent_encode("ASK { ?s ?p ?o }"));

    // Echo, verbatim.
    let r = request(
        server.addr,
        "GET",
        &ask_target,
        &[("X-Request-Id", "trace-42/alpha")],
        None,
    );
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-request-id"), Some("trace-42/alpha"));

    // Generated on success, error, 404 and 204 paths; distinct per
    // request.
    let a = request(server.addr, "GET", &ask_target, &[], None);
    let b = request(server.addr, "GET", "/nope", &[], None);
    assert_eq!(b.status, 404);
    let a_id = a.header("x-request-id").expect("generated id").to_string();
    let b_id = b.header("x-request-id").expect("id on 404").to_string();
    assert!(!a_id.is_empty() && a_id != b_id);
    let r = request(
        server.addr,
        "POST",
        "/update",
        &[("Content-Type", "application/sparql-update")],
        Some(b"PREFIX ex: <http://ex.org/> INSERT DATA { ex:x ex:y ex:z }"),
    );
    assert_eq!(r.status, 204);
    assert!(r.header("x-request-id").is_some());
}

/// Satellite (a): a governor abort is a 408 whose JSON body carries the
/// structured detail (reason, elapsed, rows derived), not just prose.
#[test]
fn abort_is_408_with_structured_json_body() {
    let server = fixture_server();
    let closure = format!("{PREFIX}SELECT ?a ?b WHERE {{ ?a ex:next+ ?b }}");
    let target = format!("/query?query={}&timeout=1", percent_encode(&closure));
    let r = request(server.addr, "GET", &target, &[], None);
    assert_eq!(r.status, 408, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/json"));
    let body = r.text();
    assert!(
        body.contains("\"reason\":\"deadline\""),
        "structured reason missing: {body}"
    );
    assert!(body.contains("\"elapsed_ms\":"), "{body}");
    assert!(body.contains("\"rows_derived\":"), "{body}");
}

/// The store's default budget is the endpoint's policy: a row cap set
/// with `Store::set_default_budget` aborts an over-budget closure over
/// HTTP as it would in-process, while a cheap query still answers.
#[test]
fn store_default_budget_governs_http_queries() {
    let store = fixture_store();
    store.set_default_budget(Budget::new().with_max_rows(100));
    let server = boot(store, ServerConfig::default());
    let closure = format!("{PREFIX}SELECT ?a ?b WHERE {{ ?a ex:next+ ?b }}");
    let target = format!("/query?query={}", percent_encode(&closure));
    let r = request(server.addr, "GET", &target, &[], None);
    assert_eq!(r.status, 408, "{}", r.text());
    assert!(
        r.text().contains("\"reason\":\"row_limit\""),
        "{}",
        r.text()
    );
    let ask = format!("{PREFIX}ASK {{ ex:alice ex:knows ex:bob }}");
    let r = get_query(server.addr, &ask, None);
    assert_eq!(
        (r.status, r.text()),
        (200, "{\"head\":{},\"boolean\":true}")
    );
}

/// Tentpole: `GET /metrics` serves valid Prometheus text exposition
/// covering both the engine's and the HTTP layer's families — and the
/// scrape does not count itself in the exposition it returns. A commit
/// shows up as its four phases, which account for its duration.
#[test]
fn metrics_endpoint_serves_valid_exposition() {
    let server = fixture_server();
    let r = get_query(server.addr, SELECT_NAMES, None);
    assert_eq!(r.status, 200);
    let mut insert = String::from("PREFIX ex: <http://ex.org/> INSERT DATA {\n");
    for i in 0..1_000 {
        insert.push_str(&format!("ex:m{i} ex:reading {i} .\n"));
    }
    insert.push('}');
    let r = request(
        server.addr,
        "POST",
        "/update",
        &[("Content-Type", "application/sparql-update")],
        Some(insert.as_bytes()),
    );
    assert_eq!(r.status, 204, "{}", r.text());

    let r = request(server.addr, "GET", "/metrics", &[], None);
    assert_eq!(r.status, 200);
    assert!(
        r.header("content-type").unwrap().starts_with("text/plain"),
        "{:?}",
        r.header("content-type")
    );
    let samples =
        sparqlog::MetricsRegistry::parse_exposition(r.text()).expect("well-formed exposition");
    let sample = |name: &str, labels: &str| {
        samples
            .iter()
            .find(|(n, l, _)| n == name && l == labels)
            .map(|(_, _, v)| *v)
    };
    // Engine-side: the query above was counted.
    assert_eq!(sample("sparqlog_queries_total", ""), Some(1.0));
    // HTTP-side: exactly that one 200 — this scrape is absent from its
    // own exposition.
    assert_eq!(
        sample(
            "sparqlog_http_requests_total",
            "method=\"GET\",status=\"200\""
        ),
        Some(1.0)
    );
    assert!(samples
        .iter()
        .any(|(n, _, _)| n == "sparqlog_http_request_duration_us_bucket"));

    // Commit-side: every commit observed each of the four phases, and
    // the phases are the commit — their time sums to no more than the
    // commit's and to at least nine tenths of it.
    let commits = sample("sparqlog_store_commits_total", "").expect("commits counted");
    let mut phases_us = 0.0;
    for phase in ["stage", "maintain", "refreeze", "notify"] {
        let labels = format!("phase=\"{phase}\"");
        assert_eq!(
            sample("sparqlog_commit_phase_duration_us_count", &labels),
            Some(commits),
            "{phase}"
        );
        phases_us += sample("sparqlog_commit_phase_duration_us_sum", &labels).expect("sum");
    }
    let commit_us = sample("sparqlog_store_commit_duration_us_sum", "").expect("sum");
    assert!(
        phases_us <= commit_us && phases_us >= 0.9 * commit_us,
        "phases {phases_us} µs of commit {commit_us} µs"
    );
    // The insert grew the small fixture far past the carry tolerance,
    // so the statistics the earlier query collected were re-scanned.
    assert!(sample("sparqlog_store_stats_rescans_total", "").expect("counter") >= 1.0);

    // /metrics speaks GET only.
    let r = request(server.addr, "POST", "/metrics", &[], None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
}

/// Tentpole: `profile=true` ships the per-query profile as an
/// `X-Query-Profile` chunked trailer without disturbing the body.
#[test]
fn profile_param_ships_trailer_sidecar() {
    let server = fixture_server();
    let plain = get_query(server.addr, SELECT_NAMES, None);
    assert_eq!(plain.status, 200);
    assert!(plain.header("x-query-profile").is_none());

    let target = format!("/query?query={}&profile=true", percent_encode(SELECT_NAMES));
    let r = request(server.addr, "GET", &target, &[], None);
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("trailer"), Some("X-Query-Profile"));
    let profile = r.header("x-query-profile").expect("profile trailer");
    for key in [
        "\"elapsed_us\"",
        "\"strata\"",
        "\"rules\"",
        "\"delta_rows\"",
    ] {
        assert!(profile.contains(key), "profile missing {key}: {profile}");
    }
    // The body is byte-identical to the unprofiled response.
    assert_eq!(r.text(), plain.text());
}

// ----------------------------------------------------------- streaming

/// The acceptance test: a CONSTRUCT returning ≥100k triples streams as
/// bounded chunks — read incrementally, every frame is at most the
/// configured chunk size (server-side buffering is O(chunk), proven
/// allocation-wise in `docs/history/BENCH_pr8.json`).
#[test]
fn large_construct_streams_in_bounded_chunks() {
    const N: usize = 100_000;
    const CHUNK: usize = 16 * 1024;
    let store = Store::new();
    {
        let mut w = store.writer();
        for i in 0..N {
            w.insert(
                Term::iri(format!("http://ex.org/s{}", i / 8)),
                Term::iri(format!("http://ex.org/p{}", i % 8)),
                Term::iri(format!("http://ex.org/o{i}")),
            );
        }
        w.commit().unwrap();
    }
    let server = boot(
        store,
        ServerConfig {
            workers: 1,
            chunk_size: CHUNK,
            ..ServerConfig::default()
        },
    );

    let q = "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }";
    let r = get_query(server.addr, q, Some("application/n-triples"));
    assert_eq!(r.status, 200);
    assert_eq!(r.header("transfer-encoding"), Some("chunked"));

    // Bounded streaming: many frames, none above the configured size.
    assert!(
        r.chunk_sizes.len() > 50,
        "expected many chunks, got {}",
        r.chunk_sizes.len()
    );
    assert!(
        r.chunk_sizes.iter().all(|&s| s <= CHUNK),
        "a frame exceeded the chunk size: {:?}",
        r.chunk_sizes.iter().max()
    );
    // All full-size except the tail: the writer really coalesces to
    // chunk_size frames rather than flushing per-triple.
    assert!(r.chunk_sizes[..r.chunk_sizes.len() - 1]
        .iter()
        .all(|&s| s == CHUNK));

    // And the payload is the complete, parseable graph.
    let graph = sparqlog_rdf::ntriples::parse(r.text()).unwrap();
    assert_eq!(graph.len(), N);
}
