//! The metric tables: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` is generated from these (`gauntlet
//! selfcheck`), and `--smoke` checks a run's output against them.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Untraced run (`--trace 0`), every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("suite_total_s", "s", "lower"),
    m("class_geomean_ms", "ms", "lower"),
    m("throughput_qps", "1/s", "higher"),
    m("latency_p99_ms", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Traced run (`--trace 1`), every workload.
pub const PER_LAYER: &[Metric] = &[
    // Timings, us per operation: frequency-weighted mean over classes of
    // the class median. The nine mirrored steps (all but the two
    // `datalog.eval_*` splits) plus `unattributed_us` sum to `inproc.op_us`.
    m("sparql.parse_us", "us", "lower"),
    m("core.translate_us", "us", "lower"),
    m("datalog.magic_us", "us", "lower"),
    m("datalog.plan_us", "us", "lower"),
    m("datalog.eval_us", "us", "lower"),
    m("datalog.eval_rules_us", "us", "lower"),
    m("datalog.eval_other_us", "us", "lower"),
    m("datalog.overlay_drop_us", "us", "lower"),
    m("core.extract_us", "us", "lower"),
    m("core.serialize_us", "us", "lower"),
    m("core.results_drop_us", "us", "lower"),
    m("unattributed_us", "us", "lower"),
    m("unattributed_share", "ratio", "lower"),
    m("inproc.op_us", "us", "lower"),
    m("inproc.issued_op_us", "us", "lower"),
    m("http.overhead_us", "us", "lower"),
    m("http.connect_us", "us", "lower"),
    // Counts per operation (exact-repeat at evaluator width 1).
    m("core.translate_rules", "count", "lower"),
    m("datalog.rounds", "count", "lower"),
    m("datalog.rows_staged", "count", "lower"),
    m("datalog.rows_derived", "count", "lower"),
    m("datalog.dedup_ratio", "ratio", "higher"),
    m("datalog.join_probes", "count", "lower"),
    m("datalog.probes_per_row", "ratio", "lower"),
    m("datalog.index_builds", "count", "lower"),
    m("core.extract_rows", "count", "lower"),
    m("core.serialize_bytes", "B", "lower"),
    m("core.translation_hit_ratio", "ratio", "higher"),
    m("datalog.plan_hit_ratio", "ratio", "higher"),
    m("datalog.dict_growth", "count", "lower"),
    // Store and RDF layers.
    m("store.commit_add10_us", "us", "lower"),
    m("store.commit_remove10_us", "us", "lower"),
    m("store.update_where_us", "us", "lower"),
    m("store.snapshot_us", "us", "lower"),
    m("store.removals_maintained_ratio", "ratio", "higher"),
    m("store.load_us_per_triple", "us", "lower"),
    m("rdf.parse_us_per_triple", "us", "lower"),
    m("store.bytes_per_triple", "B", "lower"),
    // Served over loopback HTTP, on every workload's store.
    m("open_p99_ms", "ms", "lower"),
    m("commit_p50_ms", "ms", "lower"),
    m("obs.scrape_us", "us", "lower"),
    // The harness itself.
    m("canary_ms", "ms", "lower"),
    m("loadgen.lateness_p99_ms", "ms", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// A measured value keyed by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Checks that `values` names exactly the metrics of `table`, each finite.
pub fn conforms(table: &[Metric], values: &Values) -> Result<(), String> {
    for metric in table {
        match values.iter().filter(|v| v.0 == metric.name).count() {
            1 => {}
            n => return Err(format!("{} emitted {n} times", metric.name)),
        }
    }
    for (name, value) in values {
        if !table.iter().any(|m| m.name == *name) {
            return Err(format!("{name} is not a declared metric"));
        }
        if !value.is_finite() {
            return Err(format!("{name} = {value}"));
        }
    }
    Ok(())
}

/// The result line the benchmark contract asks for: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    table: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            let unit = table
                .iter()
                .find(|m| m.name == *name)
                .map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
