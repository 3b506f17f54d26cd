//! Serving a store over the SPARQL 1.1 Protocol.
//!
//! Boots an HTTP endpoint on a loopback port, then plays a whole client
//! session against it: content-negotiated queries in several wire
//! formats, an update that becomes visible to the next query, and a
//! budgeted runaway query that comes back `408` while the server keeps
//! serving. Everything is plain HTTP — each step prints the equivalent
//! `curl` invocation.
//!
//! ```sh
//! cargo run --example http_server
//! ```
//!
//! Pass `--serve [addr]` to skip the demo client and serve until killed
//! (default `127.0.0.1:3030`) — this is what the CI boot smoke does:
//!
//! ```sh
//! cargo run --example http_server -- --serve 127.0.0.1:3030
//! ```

use std::sync::Arc;
use std::time::Duration;

use sparqlog::{Budget, Store};
use sparqlog_http::{client, SparqlServer};

/// A small social graph plus a shortcut ring (the ring makes `ex:next+`
/// expensive enough to demonstrate request budgets).
fn demo_store() -> Store {
    let mut turtle = String::from(
        r#"@prefix ex: <http://ex.org/> .
           ex:alice ex:name "Alice" ; ex:knows ex:bob .
           ex:bob   ex:name "Bob"   ; ex:knows ex:carol .
           ex:carol ex:name "Carol" .
        "#,
    );
    for i in 0..300 {
        turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % 300));
        if i % 7 == 0 {
            turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 3 + 1) % 300));
        }
    }
    let store = Store::new();
    store.load_turtle(&turtle).expect("demo data parses");
    store
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--serve") {
        let addr = args
            .iter()
            .skip_while(|a| *a != "--serve")
            .nth(1)
            .map(String::as_str)
            .unwrap_or("127.0.0.1:3030");
        let bound = SparqlServer::new(Arc::new(demo_store())).bind(addr)?;
        println!("serving SPARQL protocol on http://{}", bound.local_addr()?);
        println!(
            "  curl 'http://{addr}/query?query=SELECT%20*%20WHERE%20%7B%3Fs%20%3Fp%20%3Fo%7D'"
        );
        bound.serve(); // blocks until killed
        return Ok(());
    }

    // Demo mode: serve on an ephemeral port in the background and act as
    // our own client. The store's default budget is the endpoint's
    // guard-rail: no query runs past 5 s, and a request's `timeout=` may
    // only lower that.
    let store = demo_store();
    store.set_default_budget(Budget::new().with_timeout(Duration::from_secs(5)));
    let bound = SparqlServer::new(Arc::new(store)).bind("127.0.0.1:0")?;
    let addr = bound.local_addr()?;
    let handle = bound.handle()?;
    let server = std::thread::spawn(move || bound.serve());
    println!("serving on http://{addr}\n");

    // 1. A SELECT, negotiated to SPARQL Results JSON (the default).
    let select = r#"PREFIX ex: <http://ex.org/>
        SELECT ?name WHERE { ?p ex:name ?name } ORDER BY ?name"#;
    println!("-- SELECT as JSON (curl 'http://{addr}/query?query=…')");
    let r = client::query(addr, select, None)?;
    println!(
        "   {} {}: {}",
        r.status,
        r.header("content-type").unwrap_or(""),
        r.text()?
    );

    // 2. The same query as CSV, via the Accept header.
    println!("-- the same SELECT as CSV (curl -H 'Accept: text/csv' …)");
    let r = client::query(addr, select, Some("text/csv"))?;
    print!("   {}: {}", r.status, r.text()?.replace('\n', "\n   "));
    println!();

    // 3. A CONSTRUCT, streamed out as Turtle.
    let construct = r#"PREFIX ex: <http://ex.org/>
        CONSTRUCT { ?a ex:knows ?b } WHERE { ?a ex:knows ?b }"#;
    println!("-- CONSTRUCT as Turtle (curl -H 'Accept: text/turtle' …)");
    let r = client::query(addr, construct, Some("text/turtle"))?;
    print!("   {}: {}", r.status, r.text()?.replace('\n', "\n   "));
    println!();

    // 4. An update (POST /update), then proof the next query sees it.
    let insert = r#"PREFIX ex: <http://ex.org/>
        INSERT DATA { ex:dave ex:name "Dave" ; ex:knows ex:alice }"#;
    println!("-- INSERT DATA (curl -X POST -H 'Content-Type: application/sparql-update' --data … http://{addr}/update)");
    let r = client::update(addr, insert)?;
    println!("   {} (update commits answer 204 No Content)", r.status);
    let r = client::query(addr, select, Some("text/csv"))?;
    println!(
        "   next query sees Dave: {:?}",
        r.text()?.lines().collect::<Vec<_>>()
    );

    // 5. A runaway query under a 1 ms budget: 408, and the server keeps
    //    serving afterwards.
    let runaway = r#"PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }"#;
    let target = format!(
        "/query?query={}&timeout=1",
        sparqlog_http::percent_encode(runaway)
    );
    println!("-- runaway transitive closure with timeout=1 (ms)");
    let r = client::fetch(addr, "GET", &target, &[], None)?;
    println!("   {} {}", r.status, r.text()?.trim());
    let r = client::query(addr, "ASK { ?s ?p ?o }", None)?;
    println!(
        "   server unaffected, next request: {} {}",
        r.status,
        r.text()?
    );

    handle.shutdown();
    server.join().expect("server thread");
    println!("\nserver stopped.");
    Ok(())
}
