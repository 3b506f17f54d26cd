//! The traced run (`--trace 1`): per-layer numbers, measured from outside.
//!
//! For each class the run mirrors what `FrozenDatabase::run` does for a
//! text it has never seen, step by step through the engine's public
//! functions, one span per call, and checks the mirrored result against
//! the oracle. The same texts then go through the engine's own paths
//! untraced (uncached, as the workload issues them, profiled, and over
//! keep-alive HTTP), so every layer row has a whole it must add up to and
//! the cost of tracing itself is a number (`trace.overhead_ratio`).
//! End-to-end numbers never come from this run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sparqlog::solution::extract_results;
use sparqlog::{translate_query, Snapshot, Term};
use sparqlog_datalog::{
    demand_prunes, demand_subprogram, evaluate_frozen, evaluate_frozen_with_plan,
    magic_sets_rewrite_analyzed, plan_program, EvalOptions,
};
use sparqlog_sparql::parse_query;

use crate::loadgen::{
    drive, query_request, update_request, Conn, Expect, Issue, Pace, METRICS_REQUEST,
};
use crate::metrics::Values;
use crate::oracle::{digest_body, Format, Sig};
use crate::rig::{Rig, Server};
use crate::util::{canary_ms, median, percentile};
use crate::window::commit_op;
use crate::workload::Workload;
use crate::Args;

/// The mirrored steps, in execution order. Their spans are the children of
/// one `inproc.op` span per operation.
const LAYERS: [&str; 9] = [
    "sparql.parse_us",
    "core.translate_us",
    "datalog.magic_us",
    "datalog.plan_us",
    "datalog.eval_us",
    "core.extract_us",
    "datalog.overlay_drop_us",
    "core.serialize_us",
    "core.results_drop_us",
];

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    /// Index of the span that caused this one; `None` for an operation.
    parent: Option<usize>,
    op: usize,
}

/// Spans are kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) -> f64 {
        self.spans[span].end = self.origin.elapsed();
        (self.spans[span].end - self.spans[span].start).as_secs_f64() * 1e6
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.op
            )
            .expect("writing to a String");
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// What one mirrored operation measured.
struct Mirrored {
    /// `LAYERS` order, microseconds.
    layers: [f64; LAYERS.len()],
    op_us: f64,
    sig: Sig,
    rules: f64,
    rounds: f64,
    staged: f64,
    derived: f64,
    probes: f64,
    rows: f64,
    bytes: f64,
}

/// `FrozenDatabase::run` for an unseen text, through public functions:
/// parse, T_Q, the magic-sets decision (rewrite, demand subprogram,
/// measured pruning), planning, planned evaluation on the snapshot's
/// database, extraction, overlay drop, serialization, result drop.
fn mirrored(
    snapshot: &Snapshot,
    sparql: &str,
    format: Format,
    tracer: &mut Tracer,
    buf: &mut Vec<u8>,
) -> Result<Mirrored, String> {
    let base = snapshot.database();
    let symbols = base.symbols();
    let options = snapshot.options();
    let op_id = tracer.spans.len();
    let op = tracer.open("inproc.op", None, op_id);
    let mut layers = [0.0; LAYERS.len()];
    let mut layer = 0;
    // Times `$body` as the next layer, as a child span of the operation.
    macro_rules! step {
        ($body:expr) => {{
            let span = tracer.open(LAYERS[layer].trim_end_matches("_us"), Some(op), op_id);
            let out = $body;
            layers[layer] = tracer.close(span);
            layer += 1;
            out
        }};
    }

    let query = step!(parse_query(sparql)).map_err(|e| e.to_string())?;
    // A namespace of our own: the engine numbers its translations `f<n>_`.
    let prefix = format!("gauntlet{op_id}_");
    let translated = step!(translate_query(&query, symbols, &prefix)).map_err(|e| e.to_string())?;
    let program = &translated.program;
    let rewritten = step!(if options.magic_sets {
        magic_sets_rewrite_analyzed(program, symbols).and_then(|rw| {
            let keep = match demand_subprogram(&rw) {
                Some(sub) => {
                    let sub_options = EvalOptions {
                        magic_sets: false,
                        plan: false,
                        threads: Some(1),
                        ..options.clone()
                    };
                    match evaluate_frozen(&sub, base, &sub_options) {
                        Ok((db, _)) => demand_prunes(&rw, &db),
                        Err(_) => true,
                    }
                }
                None => true,
            };
            keep.then_some(rw.program)
        })
    } else {
        None
    });
    let program = rewritten.as_ref().unwrap_or(program);
    let plan = step!({
        let stats = base.stats();
        let plan = plan_program(program, symbols, &stats).ok();
        std::hint::black_box(stats.fingerprint(&translated.program));
        plan
    });
    let (db, stats) = step!(evaluate_frozen_with_plan(
        program,
        base,
        options,
        plan.as_ref()
    ))
    .map_err(|e| e.to_string())?;
    let results = step!(extract_results(&translated, &query, &db));
    step!(drop(db));
    buf.clear();
    step!(format.serialize(&results, buf)).map_err(|e| e.to_string())?;
    let rows = results.len() as f64;
    step!(drop(results));
    debug_assert_eq!(layer, LAYERS.len());
    let op_us = tracer.close(op);
    Ok(Mirrored {
        layers,
        op_us,
        sig: digest_body(format, buf),
        rules: translated.program.rules.len() as f64,
        rounds: stats.rounds as f64,
        staged: stats.staged as f64,
        derived: stats.derived as f64,
        probes: stats.probes as f64,
        rows,
        bytes: buf.len() as f64,
    })
}

/// Times `f` and returns its result with the elapsed microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Everything measured for one class, already reduced to medians.
#[derive(Default)]
struct ClassRow {
    layers: [f64; LAYERS.len()],
    op_us: f64,
    uncached_us: f64,
    issued_us: f64,
    http_us: f64,
    rules_share: f64,
    index_builds: f64,
    counts: [f64; 7],
}

/// Distinct texts measured per class (mixes have hundreds per class).
const TEXTS_PER_CLASS: usize = 8;
/// Variant numbers the traced run draws from, clear of the window's.
const TRACE_VARIANTS: u64 = 50_000_000;

struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub fn run(w: &Workload, args: &Args) -> Result<(Values, u64, u64), String> {
    // Repetitions shrink with `--seconds` so a smoke run stays short; at
    // the benchmark's 20 s they are the issue's 5 per class.
    let scale = (args.seconds / 20.0).clamp(0.05, 1.0);
    let mirrored_reps = ((5.0 * scale).round() as usize).max(1);
    let other_reps = ((3.0 * scale).round() as usize).max(1);
    let open_seconds = (4.0 * scale).max(0.3);

    // rdf + store layers on a scratch store, under the counting allocator.
    let (ntriples, triples) = w.generate(args.seed);
    let mut parse_us: Vec<f64> = (0..other_reps)
        .map(|_| timed(|| sparqlog_rdf::ntriples::parse(&ntriples).map(|g| g.len())).1)
        .collect();
    let ((loaded, load_us), live_bytes) = crate::alloc::live_bytes_of(|| {
        timed(|| {
            let store = sparqlog::Store::new();
            store.set_threads(Some(1));
            store.load_ntriples(&ntriples).map(|_| store)
        })
    });
    drop(loaded.map_err(|e| format!("scratch load: {e}"))?);
    drop(ntriples);

    let rig = Rig::build(w, args.seed)?;
    let mut tally = Tally {
        attempted: rig.attempted,
        failed: rig.failed + rig.pinned_mismatches(w, args.seed)?,
    };
    // Suites have no server of their own; the traced run serves every
    // workload's store so the HTTP rows exist everywhere.
    let own_server;
    let addr = match &rig.server {
        Some(s) => s.addr,
        None => {
            own_server = Server::start(rig.store.clone()).map_err(|e| e.to_string())?;
            own_server.addr
        }
    };
    let canary_before = canary_ms();

    // ---- per class: mirrored, uncached, as issued, profiled, HTTP ----
    let snapshot = rig.store.snapshot();
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut variant = TRACE_VARIANTS;
    let mut next_variant = || {
        variant += 1;
        variant
    };
    let mut rows: Vec<Option<ClassRow>> = Vec::new();
    for class in 0..w.classes.len() {
        let texts: Vec<usize> = (0..w.texts.len())
            .filter(|&t| w.texts[t].class == class)
            .take(TEXTS_PER_CLASS)
            .collect();
        if texts.is_empty() {
            rows.push(None); // `churn_mix`'s fresh and commit classes have no texts of their own
            continue;
        }
        let mut layer_samples: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
        let (mut op, mut uncached, mut issued, mut http) = (vec![], vec![], vec![], vec![]);
        let mut counts = [0.0; 7];
        let (mut rules_share, mut index_builds) = (vec![], vec![]);
        for &t in &texts {
            let want = rig.expected(t, Format::Json);
            for _ in 0..mirrored_reps {
                let sparql = w.issued(t, next_variant());
                let m = mirrored(&snapshot, &sparql, Format::Json, &mut tracer, &mut buf)?;
                tally.check(m.sig == want);
                for (samples, v) in layer_samples.iter_mut().zip(m.layers) {
                    samples.push(v);
                }
                op.push(m.op_us);
                // Deterministic at width 1: the last repetition stands.
                counts = [
                    m.rules, m.rounds, m.staged, m.derived, m.probes, m.rows, m.bytes,
                ];
            }
            for _ in 0..other_reps {
                // The same steps through the engine's own uncached path.
                let sparql = w.issued(t, next_variant());
                let (served, t_us) = timed(|| {
                    let query = parse_query(&sparql).ok()?;
                    let results = snapshot.execute_query(&query).ok()?;
                    buf.clear();
                    Format::Json.serialize(&results, &mut buf).ok()
                });
                uncached.push(t_us);
                tally.check(served.is_some() && digest_body(Format::Json, &buf) == want);

                // The text as the workload issues it (a cache hit, except
                // in `churn_mix`), in-process and over keep-alive HTTP.
                let sparql = w.issued(t, next_variant());
                let (served, t_us) = timed(|| {
                    let results = snapshot.execute(&sparql).ok()?;
                    buf.clear();
                    Format::Json.serialize(&results, &mut buf).ok()
                });
                issued.push(t_us);
                tally.check(served.is_some() && digest_body(Format::Json, &buf) == want);

                let request = query_request(&w.issued(t, next_variant()), Format::Json);
                let (status, t_us) = timed(|| conn.roundtrip(&request, &mut buf));
                http.push(t_us);
                tally.check(matches!(status, Ok(200)) && digest_body(Format::Json, &buf) == want);
            }
            let sparql = w.issued(t, next_variant());
            match snapshot.execute_profiled(&sparql) {
                Ok((_, profile)) => {
                    let in_rules: Duration = profile.rules.iter().map(|r| r.elapsed).sum();
                    let total = profile.elapsed.as_secs_f64().max(1e-9);
                    rules_share.push((in_rules.as_secs_f64() / total).min(1.0));
                    index_builds.push(profile.index_builds as f64);
                    tally.check(true);
                }
                Err(_) => tally.check(false),
            }
        }
        let mut row = ClassRow {
            op_us: median(&mut op),
            uncached_us: median(&mut uncached),
            issued_us: median(&mut issued),
            http_us: median(&mut http),
            rules_share: median(&mut rules_share),
            index_builds: median(&mut index_builds),
            counts,
            ..ClassRow::default()
        };
        for (slot, samples) in row.layers.iter_mut().zip(&mut layer_samples) {
            *slot = median(samples);
        }
        rows.push(Some(row));
    }
    drop(snapshot);

    // Frequency-weighted mean over classes of a per-class figure.
    let shares = w.class_shares();
    let weighted = |f: &dyn Fn(&ClassRow) -> f64| -> f64 {
        rows.iter()
            .zip(&shares)
            .filter_map(|(row, share)| row.as_ref().map(|r| f(r) * share))
            .sum()
    };
    let layer = |i: usize| weighted(&|r| r.layers[i]);
    let op_us = weighted(&|r| r.op_us);
    let attributed: f64 = (0..LAYERS.len()).map(layer).sum();
    let eval_us = layer(4);
    let eval_rules_us = weighted(&|r| r.layers[4] * r.rules_share);
    let count = |i: usize| weighted(&|r| r.counts[i]);

    // ---- replay: hit ratios and dictionary growth over a fixed list ----
    let replay = replay(w, &rig, &mut tally)?;

    // ---- store layer, on the workload's own store ----
    let store_rows = store_probes(&rig, &mut tally)?;

    // ---- served: scrape, commits, fresh connections, open loop ----
    let mut scrape: Vec<f64> = (0..10)
        .map(|_| {
            let (status, t_us) = timed(|| conn.roundtrip(METRICS_REQUEST, &mut buf));
            tally.check(matches!(status, Ok(200)));
            t_us
        })
        .collect();
    let mut commit_ms = Vec::new();
    for i in 0..40 {
        let (status, t_us) = timed(|| conn.roundtrip(&update_request(&commit_op(i).1), &mut buf));
        tally.check(matches!(status, Ok(204)));
        commit_ms.push(t_us / 1e3);
    }
    let cheap = query_request(&w.issued(0, next_variant()), Format::Json);
    let (mut kept, mut fresh) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        kept.push(timed(|| conn.roundtrip(&cheap, &mut buf)).1);
        let (status, t_us) =
            timed(|| Conn::connect(addr).and_then(|mut c| c.roundtrip(&cheap, &mut buf)));
        tally.check(matches!(status, Ok(200)));
        fresh.push(t_us);
    }
    drop(conn);
    let open = open_loop(w, &rig, addr, weighted(&|r| r.http_us), open_seconds)?;
    tally.attempted += open.attempted;
    tally.failed += open.failed;
    let canary_after = canary_ms();

    let out = if args.trace_out.is_empty() {
        format!("gauntlet/out/trace-{}.json", w.name)
    } else {
        args.trace_out.clone()
    };
    tracer.write(&out).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "{} seed {} traced: {} spans -> {out}; {mirrored_reps} mirrored reps, canary_ms {canary_before:.2} / {canary_after:.2}; open loop {:.0} req/s, {} requests",
        w.name,
        args.seed,
        tracer.spans.len(),
        open.rate,
        open.attempted
    );

    let rows_out = count(5);
    let mut values: Values = LAYERS
        .iter()
        .enumerate()
        .map(|(i, n)| (*n, layer(i)))
        .collect();
    values.extend([
        ("datalog.eval_rules_us", eval_rules_us),
        ("datalog.eval_other_us", eval_us - eval_rules_us),
        ("unattributed_us", op_us - attributed),
        ("unattributed_share", (op_us - attributed) / op_us),
        ("inproc.op_us", op_us),
        ("inproc.issued_op_us", weighted(&|r| r.issued_us)),
        (
            "http.overhead_us",
            weighted(&|r| r.http_us) - weighted(&|r| r.issued_us),
        ),
        ("http.connect_us", median(&mut fresh) - median(&mut kept)),
        ("core.translate_rules", count(0)),
        ("datalog.rounds", count(1)),
        ("datalog.rows_staged", count(2)),
        ("datalog.rows_derived", count(3)),
        ("datalog.dedup_ratio", count(3) / count(2).max(1.0)),
        ("datalog.join_probes", count(4)),
        ("datalog.probes_per_row", count(4) / rows_out.max(1.0)),
        ("datalog.index_builds", weighted(&|r| r.index_builds)),
        ("core.extract_rows", rows_out),
        ("core.serialize_bytes", count(6)),
        ("core.translation_hit_ratio", replay.translation_hit_ratio),
        ("datalog.plan_hit_ratio", replay.plan_hit_ratio),
        ("datalog.dict_growth", replay.dict_growth),
    ]);
    values.extend(store_rows);
    values.extend([
        ("store.load_us_per_triple", load_us / triples as f64),
        (
            "rdf.parse_us_per_triple",
            median(&mut parse_us) / triples as f64,
        ),
        ("store.bytes_per_triple", live_bytes as f64 / triples as f64),
        ("open_p99_ms", open.p99_ms),
        ("commit_p50_ms", median(&mut commit_ms)),
        ("obs.scrape_us", median(&mut scrape)),
        ("canary_ms", (canary_before + canary_after) / 2.0),
        ("loadgen.lateness_p99_ms", open.lateness_p99_ms),
        ("trace.overhead_ratio", op_us / weighted(&|r| r.uncached_us)),
    ]);
    Ok((values, tally.attempted, tally.failed))
}

struct Replay {
    translation_hit_ratio: f64,
    plan_hit_ratio: f64,
    dict_growth: f64,
}

/// Replays a fixed prefix of the request list in-process, one caller, and
/// reads the engine's own counters around it. `churn_mix` interleaves a
/// commit every 20 reads, as its window does at roughly that ratio.
fn replay(w: &Workload, rig: &Rig, tally: &mut Tally) -> Result<Replay, String> {
    let n = match (w.churn, w.requests.len()) {
        (true, _) => 400,
        (false, len) => len.min(2_000),
    };
    let registry = rig.store.metrics();
    let read = |name: &str| registry.counter_value(name).unwrap_or(0) as f64;
    let counters = || {
        (
            read("sparqlog_translations_total"),
            read("sparqlog_plan_cache_hits_total"),
            read("sparqlog_plans_computed_total"),
            rig.store.snapshot().database().dict().interned_terms() as f64,
        )
    };
    let before = counters();
    let mut buf = Vec::new();
    for (i, r) in w.requests.iter().take(n).enumerate() {
        if w.churn && i % 20 == 19 {
            // The (i/20)-th data operation: inserts and deletes alternate.
            let j = i / 20;
            let (_, text) = commit_op(j + j / 4);
            tally.check(rig.store.update(&text).is_ok());
        }
        let sparql = w.issued(r.text, TRACE_VARIANTS / 2 + i as u64);
        let served = rig
            .store
            .snapshot()
            .execute(&sparql)
            .ok()
            .and_then(|results| {
                buf.clear();
                r.format.serialize(&results, &mut buf).ok()
            });
        tally.check(
            served.is_some()
                && (w.churn || digest_body(r.format, &buf) == rig.expected(r.text, r.format)),
        );
    }
    let after = counters();
    let plans = (after.1 - before.1) + (after.2 - before.2);
    Ok(Replay {
        translation_hit_ratio: 1.0 - (after.0 - before.0) / n as f64,
        plan_hit_ratio: if plans > 0.0 {
            (after.1 - before.1) / plans
        } else {
            1.0
        },
        dict_growth: (after.3 - before.3) / n as f64,
    })
}

/// Ten rounds of a 10-triple `Writer` commit, `Store::snapshot`, the
/// matching removal and a `DELETE/INSERT ... WHERE` through
/// `Store::update`, each timed around the public call.
fn store_probes(rig: &Rig, tally: &mut Tally) -> Result<Values, String> {
    let registry = rig.store.metrics();
    let read = |name: &str| registry.counter_value(name).unwrap_or(0) as f64;
    let removals = || {
        (
            read("sparqlog_store_removals_maintained_total"),
            read("sparqlog_store_removals_fallback_total"),
        )
    };
    let before = removals();
    let ns = "http://example.org/gMark/";
    let (mut add, mut remove, mut snap, mut update) = (vec![], vec![], vec![], vec![]);
    for round in 0..10 {
        let batch: Vec<[Term; 3]> = (0..10)
            .map(|k| {
                [
                    Term::iri(format!("{ns}probe{round}_{k}")),
                    Term::iri(format!("{ns}probeTag")),
                    Term::iri(format!("{ns}probeVal{round}_{k}")),
                ]
            })
            .collect();
        let (stats, t_us) = timed(|| {
            let mut writer = rig.store.writer();
            for [s, p, o] in batch.iter().cloned() {
                writer.insert(s, p, o);
            }
            writer.commit()
        });
        tally.check(matches!(stats, Ok(s) if s.added == 10));
        add.push(t_us);
        snap.push(timed(|| rig.store.snapshot()).1);
        let (stats, t_us) = timed(|| {
            rig.store.update(&format!(
                "PREFIX g: <{ns}>\nDELETE {{ ?s g:probeTag ?o }} INSERT {{ ?s g:probeTag g:probeSeen }} WHERE {{ ?s g:probeTag ?o }}"
            ))
        });
        tally.check(stats.is_ok());
        update.push(t_us);
        let (stats, t_us) = timed(|| {
            let mut writer = rig.store.writer();
            for [s, p, _] in batch.iter().cloned() {
                writer.remove(s, p, Term::iri(format!("{ns}probeSeen")));
            }
            writer.commit()
        });
        tally.check(matches!(stats, Ok(s) if s.removed == 10));
        remove.push(t_us);
    }
    let after = removals();
    let (maintained, fallback) = (after.0 - before.0, after.1 - before.1);
    Ok(vec![
        ("store.commit_add10_us", median(&mut add)),
        ("store.commit_remove10_us", median(&mut remove)),
        ("store.update_where_us", median(&mut update)),
        ("store.snapshot_us", median(&mut snap)),
        (
            "store.removals_maintained_ratio",
            if maintained + fallback > 0.0 {
                maintained / (maintained + fallback)
            } else {
                1.0
            },
        ),
    ])
}

struct OpenLoop {
    rate: f64,
    p99_ms: f64,
    lateness_p99_ms: f64,
    attempted: u64,
    failed: u64,
}

/// The request list at a fixed rate over two keep-alive connections: 40 %
/// of what one connection sustains in a closed loop (`1 / http_us`), each
/// request timed from its due time. A backlog still growing at the end
/// (the last tenth later than 100 intervals) fails the phase.
fn open_loop(
    w: &Workload,
    rig: &Rig,
    addr: std::net::SocketAddr,
    http_us: f64,
    seconds: f64,
) -> Result<OpenLoop, String> {
    let rate = 0.4 * 1e6 / http_us;
    let interval = Duration::from_secs_f64(2.0 / rate); // per connection
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let issue = |conn: usize| {
        move |i: usize| {
            let n = conn + 2 * i;
            let r = w.requests[n % w.requests.len()];
            Some(Issue {
                class: w.texts[r.text].class,
                request: query_request(&w.issued(r.text, TRACE_VARIANTS * 2 + n as u64), r.format),
                expect: Expect::Body(r.format, rig.expected(r.text, r.format)),
            })
        }
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| drive(addr, start, until, Pace::Open { interval }, issue(0)));
        let b = s.spawn(|| {
            // Offset by half an interval so the two schedules interleave.
            drive(
                addr,
                start + interval / 2,
                until,
                Pace::Open { interval },
                issue(1),
            )
        });
        (a.join(), b.join())
    });
    let mut records = a
        .map_err(|_| "open-loop client panicked")?
        .map_err(|e| e.to_string())?;
    records.extend(
        b.map_err(|_| "open-loop client panicked")?
            .map_err(|e| e.to_string())?,
    );
    if records.is_empty() {
        return Err("open loop issued nothing".into());
    }
    records.sort_by(|x, y| x.due.total_cmp(&y.due));
    let mut latency: Vec<f64> = records.iter().map(|r| r.latency_ms()).collect();
    let mut lateness: Vec<f64> = records.iter().map(|r| (r.sent - r.due) * 1e3).collect();
    let tail_start = records.len() - (records.len() / 10).max(1);
    let mut tail: Vec<f64> = records[tail_start..]
        .iter()
        .map(|r| (r.sent - r.due) * 1e3)
        .collect();
    let backlog = median(&mut tail) > 100.0 * interval.as_secs_f64() * 1e3;
    let failed = records.iter().filter(|r| !r.ok).count() as u64;
    Ok(OpenLoop {
        rate,
        p99_ms: percentile(&mut latency, 0.99),
        lateness_p99_ms: percentile(&mut lateness, 0.99),
        attempted: records.len() as u64,
        failed: failed + u64::from(backlog),
    })
}
