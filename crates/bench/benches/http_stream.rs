//! Streamed vs materialized serialization (PR 8): proof that the
//! incremental `io::Write` paths keep server-side memory at O(chunk)
//! while the PR 5 string serializers materialize the whole payload.
//!
//! A counting [`GlobalAlloc`] wrapper tracks live and peak heap bytes.
//! For a 100k-triple CONSTRUCT (and a 100k-row SELECT), each path runs
//! once under a reset peak-watermark:
//!
//! * `streamed` — `write_ntriples`/`write_json` through a 16 KiB
//!   [`ChunkedWriter`] into `io::sink()`, exactly the server's response
//!   path: peak heap growth should stay near the chunk buffer;
//! * `materialized` — `to_ntriples()`/`to_json()`: peak growth is the
//!   full serialized payload (several MB).
//!
//! Timing of both paths is also recorded through the usual microbench
//! harness. The peak numbers print to stdout and are recorded in
//! `docs/history/BENCH_pr8.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sparqlog::results_io::{write_json, write_ntriples};
use sparqlog::Store;
use sparqlog_bench::microbench::Bench;
use sparqlog_http::ChunkedWriter;

/// Heap accounting: live bytes and a resettable peak watermark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let live = if new_size >= layout.size() {
                LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size()
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed)
                    - (layout.size() - new_size)
            };
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the peak watermark reset to the current live size and
/// returns its peak heap *growth* in bytes.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = std::hint::black_box(f());
    let peak = PEAK.load(Ordering::Relaxed);
    (out, peak.saturating_sub(before))
}

const CHUNK: usize = 16 * 1024;
const TRIPLES: usize = 100_000;

fn fixture() -> Store {
    let store = Store::new();
    {
        let mut w = store.writer();
        for i in 0..TRIPLES {
            w.insert(
                sparqlog_rdf::Term::iri(format!("http://ex.org/s{}", i / 8)),
                sparqlog_rdf::Term::iri(format!("http://ex.org/p{}", i % 8)),
                sparqlog_rdf::Term::iri(format!("http://ex.org/o{i}")),
            );
        }
        w.commit().expect("commit fixture");
    }
    store
}

fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB ({b} bytes)", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB ({b} bytes)", b as f64 / 1024.0)
    }
}

fn main() {
    let store = fixture();
    let graph = store
        .execute("CONSTRUCT WHERE { ?s ?p ?o }")
        .expect("construct");
    let rows = store
        .execute("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        .expect("select");

    // ---- peak-heap comparison (once per path, outside the timing loop)
    println!("peak heap growth serializing {TRIPLES} triples / rows:");
    let (_, peak) = peak_growth(|| {
        let mut out = ChunkedWriter::new(std::io::sink(), CHUNK);
        write_ntriples(&graph, &mut out).expect("stream ntriples");
        out.finish().expect("finish");
    });
    println!("  construct streamed (16 KiB chunks): {}", fmt_bytes(peak));
    let (s, peak) = peak_growth(|| graph.to_ntriples().expect("materialize ntriples"));
    println!(
        "  construct materialized String:      {} (payload {})",
        fmt_bytes(peak),
        fmt_bytes(s.len())
    );
    drop(s);
    let (_, peak) = peak_growth(|| {
        let mut out = ChunkedWriter::new(std::io::sink(), CHUNK);
        write_json(&rows, &mut out).expect("stream json");
        out.finish().expect("finish");
    });
    println!("  select streamed (16 KiB chunks):    {}", fmt_bytes(peak));
    let (s, peak) = peak_growth(|| rows.to_json().expect("materialize json"));
    println!(
        "  select materialized String:         {} (payload {})",
        fmt_bytes(peak),
        fmt_bytes(s.len())
    );
    drop(s);

    // ---- throughput: the streamed path must not cost time for its
    // bounded memory.
    let mut bench = Bench::new("http_stream");
    bench.bench("construct_100k_ntriples_streamed", || {
        let mut out = ChunkedWriter::new(std::io::sink(), CHUNK);
        write_ntriples(&graph, &mut out).expect("stream");
        out.finish().expect("finish")
    });
    bench.bench("construct_100k_ntriples_materialized", || {
        graph.to_ntriples().expect("materialize").len()
    });
    bench.bench("select_100k_json_streamed", || {
        let mut out = ChunkedWriter::new(std::io::sink(), CHUNK);
        write_json(&rows, &mut out).expect("stream");
        out.finish().expect("finish")
    });
    bench.bench("select_100k_json_materialized", || {
        rows.to_json().expect("materialize").len()
    });
    bench.finish();
}
