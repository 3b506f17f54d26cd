//! The measured window of an untraced run, and the end-to-end metrics
//! computed from its records.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::loadgen::{
    drive, query_request, update_request, Expect, Issue, Pace, Record, OP_BUDGET,
};
use crate::mix::PROLOGUE;
use crate::oracle::digest_body;
use crate::rig::Rig;
use crate::util::{median, percentile, samples_beyond};
use crate::workload::{unique_variant, Transport, Workload};

/// `churn_mix`: one commit is due every 250 ms. The issue planned 50/s on
/// the strength of 6-8 ms commits; a 10-triple commit costs about 2.5 ms
/// plus 6.5 us per cached translation, so behind this workload's filling
/// translation cache it takes 12-30 ms, and 50/s would leave no time for
/// reads.
pub const COMMIT_INTERVAL: Duration = Duration::from_millis(250);
/// `churn_mix`: one never-repeated text is due every 8 ms. The schedule,
/// not the host's speed, sets how many there are (125 a second), because
/// each one grows the store-wide dictionary (1 200 entries a text on this
/// mix) and slows the reads after it: issued back to back, a faster host
/// ran more of them and `peak_rss_mb` ranged over 1.0-1.5 GiB between
/// identical runs.
pub const FRESH_INTERVAL: Duration = Duration::from_millis(8);
const HTTP_SLICES: usize = 20;

pub struct Window {
    pub records: Vec<Record>,
    /// Operations completed per second in each interval of the window;
    /// `throughput_qps` is their median, so a few seconds of a noisy host
    /// do not move it the way they move a mean. Over HTTP an interval is
    /// one of twenty slices of equal operation count. In-process it is one
    /// cycle of passes (the
    /// smallest number after which every class has run), timed as the sum
    /// of per-operation busy time (execute, serialize, drop): checking
    /// happens between operations and is not the engine's work.
    pub interval_qps: Vec<f64>,
}

/// `floors: false` (smoke runs) measures for `seconds` and no longer.
pub fn run(w: &Workload, rig: &Rig, seconds: f64, floors: bool) -> Result<Window, String> {
    match w.transport {
        Transport::InProcess => Ok(in_process(w, rig, seconds, floors)),
        Transport::Http => http(w, rig, seconds),
    }
}

/// Fewest operations a window may hold: a p99 needs ten samples beyond it.
const MIN_OPS: usize = 1_000;
/// Fewest samples a class median is taken from.
const MIN_CLASS_SAMPLES: usize = 10;

/// One closed-loop caller replaying the suite pass after pass for
/// `seconds`, or until the sample floors above are met if that is later (a
/// slower host runs longer rather than reporting a thinner sample). The
/// cycle of passes in progress at the end is completed, so every class keeps
/// its share.
fn in_process(w: &Workload, rig: &Rig, seconds: f64, floors: bool) -> Window {
    let snapshot = rig.store.snapshot();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    let mut interval_qps = Vec::new();
    let (mut busy, mut ops) = (Duration::ZERO, 0);
    let mut buf = Vec::new();
    let mut pass = 0;
    let most_every = w.classes.iter().map(|c| c.every).max().unwrap_or(1);
    while Instant::now() < until
        || pass % most_every != 0
        || (floors && (records.len() < MIN_OPS || pass < MIN_CLASS_SAMPLES * most_every))
    {
        for r in &w.requests {
            let text = &w.texts[r.text];
            if pass % w.classes[text.class].every != 0 {
                continue;
            }
            buf.clear();
            let t0 = Instant::now();
            let results = snapshot.execute(&text.sparql);
            let served = match &results {
                Ok(results) => r.format.serialize(results, &mut buf).is_ok(),
                Err(_) => false,
            };
            let t1 = Instant::now();
            drop(results);
            busy += t0.elapsed();
            ops += 1;
            let ok = served
                && t1 - t0 <= OP_BUDGET
                && digest_body(r.format, &buf) == rig.expected(r.text, r.format);
            records.push(Record {
                class: text.class,
                due: (t0 - start).as_secs_f64(),
                sent: (t0 - start).as_secs_f64(),
                done: (t1 - start).as_secs_f64(),
                status: if served { 200 } else { 500 },
                bytes: buf.len(),
                ok,
            });
        }
        pass += 1;
        if pass % most_every == 0 {
            interval_qps.push(ops as f64 / busy.as_secs_f64());
            (busy, ops) = (Duration::ZERO, 0);
        }
    }
    Window {
        records,
        interval_qps,
    }
}

/// The `i`-th commit of `churn_mix`: `INSERT DATA` of ten fresh triples,
/// then `DELETE DATA` of the same ten, every fifth operation a
/// `DELETE/INSERT ... WHERE` over the ten anchors. Returns the class offset
/// into [`COMMIT_CLASSES`] and the update text.
pub fn commit_op(i: usize) -> (usize, String) {
    if i % 5 == 4 {
        let flag = i / 5 % 2 + 1;
        return (
            2,
            format!(
                "{PROLOGUE}DELETE {{ ?s g:churnFlag ?o }} INSERT {{ ?s g:churnFlag g:flag{flag} }} WHERE {{ ?s g:churnFlag ?o }}"
            ),
        );
    }
    let nth = i - i / 5; // position among the data operations
    let batch = nth / 2;
    let triples: String = (0..10)
        .map(|k| format!("g:churn{batch}_{k} g:churnTag g:churnVal{batch}_{k} . "))
        .collect();
    match nth % 2 {
        0 => (0, format!("{PROLOGUE}INSERT DATA {{ {triples}}}")),
        _ => (1, format!("{PROLOGUE}DELETE DATA {{ {triples}}}")),
    }
}

/// Entry `n` of the request list (wrapping) as a request; `fresh` sends it
/// in its never-repeated form and counts it under the template's fresh class.
fn read(w: &Workload, rig: &Rig, n: usize, fresh: bool) -> Option<Issue> {
    let r = w.requests[n % w.requests.len()];
    let text = &w.texts[r.text];
    let (class, request) = match fresh {
        true => (
            w.fresh_class(text.class),
            query_request(&unique_variant(&text.sparql, n as u64), r.format),
        ),
        false => (text.class, query_request(&text.sparql, r.format)),
    };
    Some(Issue {
        class,
        request,
        expect: Expect::Body(r.format, rig.expected(r.text, r.format)),
    })
}

/// `http_mix`: two keep-alive connections replay the request list back to
/// back; connection `c` takes entries `c, c+2, ...`.
fn two_connections(
    w: &Workload,
    rig: &Rig,
    addr: SocketAddr,
    start: Instant,
    until: Instant,
) -> Result<Vec<Record>, String> {
    let client = |c: usize| {
        move || {
            drive(addr, start, until, Pace::Closed, |i| {
                read(w, rig, 2 * i + c, false)
            })
        }
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(client(0)), s.spawn(client(1)));
        (a.join(), b.join())
    });
    let mut records = Vec::new();
    for (c, joined) in [a, b].into_iter().enumerate() {
        records.extend(
            joined
                .map_err(|_| "client thread panicked")?
                .map_err(|e| format!("client {c}: {e}"))?,
        );
    }
    Ok(records)
}

/// `churn_mix`: one keep-alive connection replays the request list back to
/// back, except that whenever a commit is due ([`COMMIT_INTERVAL`]) the next
/// request is that commit, and otherwise whenever a never-repeated text is
/// due ([`FRESH_INTERVAL`]) the next read goes out in its never-repeated
/// form. What fell due while a slow request ran goes out right after it, so
/// a window holds the same commits and fresh texts on any host. One
/// connection, not a reader beside a committer: the tail of the two was the
/// commits' own upper tail (the reader waits out each commit) and spread
/// 22-30 % between identical runs. The store must end the window exactly as
/// large as it began.
fn churn(
    w: &Workload,
    rig: &Rig,
    addr: SocketAddr,
    start: Instant,
    until: Instant,
) -> Result<Vec<Record>, String> {
    let facts_before = rig.store.fact_count();
    let (mut commits, mut fresh) = (0, 0);
    let records = drive(addr, start, until, Pace::Closed, |i| {
        let now = start.elapsed();
        if now >= COMMIT_INTERVAL * (commits + 1) {
            let (class, text) = commit_op(commits as usize);
            commits += 1;
            return Some(Issue {
                class: w.commit_class(class),
                request: update_request(&text),
                expect: Expect::NoContent,
            });
        }
        let due = now >= FRESH_INTERVAL * fresh;
        fresh += u32::from(due);
        read(w, rig, i, due)
    })
    .map_err(|e| format!("client: {e}"))?;
    // An insert whose delete fell past the deadline is undone here.
    let commits = commits as usize;
    let data_ops = commits - commits / 5;
    if data_ops % 2 == 1 {
        let next = (commits..).find(|i| i % 5 != 4).expect("unbounded range");
        rig.store
            .update(&commit_op(next).1)
            .map_err(|e| format!("closing delete: {e}"))?;
    }
    if rig.store.fact_count() != facts_before {
        return Err(format!(
            "store holds {} facts after the window, {facts_before} before",
            rig.store.fact_count()
        ));
    }
    Ok(records)
}

fn http(w: &Workload, rig: &Rig, seconds: f64) -> Result<Window, String> {
    let addr = rig
        .server
        .as_ref()
        .expect("HTTP workload has a server")
        .addr;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let records = match w.churn {
        true => churn(w, rig, addr, start, until)?,
        false => two_connections(w, rig, addr, start, until)?,
    };
    // Twenty slices of equal operation count, each rated by how long its
    // operations took to complete.
    let mut done: Vec<f64> = records.iter().map(|r| r.done).collect();
    done.sort_by(f64::total_cmp);
    let slices = HTTP_SLICES.min(done.len().max(1));
    let interval_qps = (0..slices)
        .map(|k| {
            let (from, to) = (k * done.len() / slices, (k + 1) * done.len() / slices);
            let began = if from == 0 { 0.0 } else { done[from - 1] };
            (to - from) as f64 / (done[to - 1] - began)
        })
        .collect();
    Ok(Window {
        records,
        interval_qps,
    })
}

/// The end-to-end metrics of one window, in `BENCHMARK.json` order minus
/// `setup_s` and `peak_rss_mb`, which the caller owns.
pub struct EndToEnd {
    pub suite_total_s: f64,
    pub class_geomean_ms: f64,
    pub throughput_qps: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    /// Smallest per-class sample count, and samples beyond the p99.
    pub min_class_samples: usize,
    pub beyond_p99: usize,
    pub per_class: Vec<(String, usize, f64)>,
}

pub fn end_to_end(w: &Workload, window: &Window) -> EndToEnd {
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); w.classes.len()];
    for r in &window.records {
        by_class[r.class].push(r.latency_ms());
    }
    let per_class: Vec<(String, usize, f64)> = w
        .classes
        .iter()
        .zip(&mut by_class)
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(c, samples)| (c.name.clone(), samples.len(), median(samples)))
        .collect();
    let mut all: Vec<f64> = window.records.iter().map(Record::latency_ms).collect();
    let n = per_class.len().max(1) as f64;
    EndToEnd {
        suite_total_s: per_class.iter().map(|c| c.2).sum::<f64>() / 1e3,
        class_geomean_ms: (per_class.iter().map(|c| c.2.ln()).sum::<f64>() / n).exp(),
        throughput_qps: median(&mut window.interval_qps.clone()),
        latency_p50_ms: median(&mut all),
        latency_p99_ms: percentile(&mut all, 0.99),
        min_class_samples: per_class.iter().map(|c| c.1).min().unwrap_or(0),
        beyond_p99: samples_beyond(all.len(), 0.99),
        per_class,
    }
}
