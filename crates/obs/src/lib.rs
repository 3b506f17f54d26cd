//! Zero-dependency observability primitives for the SparqLog workspace.
//!
//! The workspace rule is *no external crates*, so this is a from-scratch,
//! std-only metrics kit in the spirit of the `prometheus`/`metrics`
//! crates, cut down to exactly what the engine needs:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`; a relaxed
//!   `fetch_add`, cheap enough for per-query (and even per-round) hot
//!   paths.
//! * [`Gauge`] — an `AtomicI64` that can go up and down (cache sizes,
//!   live subscription counts).
//! * [`Histogram`] — log₂-bucketed distribution (bucket *i* counts
//!   observations `v ≤ 2^i`): one `leading_zeros` plus two relaxed adds
//!   per observation, no floats, no locks.
//! * [`CounterVec`] — a labelled counter family (`{method="GET",
//!   status="200"}`); label lookup takes a read lock, so callers on hot
//!   paths should cache the returned [`Counter`] handle.
//! * [`HistogramVec`] — the same for histograms (`{phase="refreeze"}`).
//! * [`MetricsRegistry`] — names and renders the above in the Prometheus
//!   text exposition format (version 0.0.4), the format scraped by
//!   `GET /metrics`.
//!
//! Handles are `Arc`s: components register once (typically behind a
//! `OnceLock` or at construction) and keep the `Arc<Counter>` around, so
//! steady-state cost is an atomic add with no name lookup.
//!
//! ```
//! use sparqlog_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let requests = reg.counter("http_requests_total", "Requests served.");
//! let latency = reg.histogram("request_us", "Request latency (µs).", 22);
//! requests.inc();
//! latency.observe(1500);
//! let text = reg.render_to_string();
//! assert!(text.contains("# TYPE http_requests_total counter"));
//! assert!(text.contains("http_requests_total 1"));
//! assert!(text.contains("request_us_bucket{le=\"2048\"} 1"));
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
///
/// All operations are relaxed atomics; counters are safe to share across
/// query threads and the HTTP worker threads.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one and returns the **new** value (handy for sequence
    /// numbering as well as counting).
    pub fn inc(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move in both directions (sizes, live object counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram.
///
/// Bucket *i* has upper bound `2^i` (so bounds run 1, 2, 4, 8, …); the
/// final bucket is `+Inf`. Units are whatever the caller observes —
/// metric names in this workspace carry a `_us` / `_rows` / `_bytes`
/// suffix to say which. An observation costs one `leading_zeros` and two
/// relaxed `fetch_add`s: no locks, no floats, hot-path safe.
#[derive(Debug)]
pub struct Histogram {
    /// `buckets[i]` counts observations with `value <= 2^i`; the last
    /// slot is the overflow (`+Inf`) bucket.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A detached histogram with `buckets` log₂ buckets plus `+Inf`.
    ///
    /// 22 buckets cover 1 µs … ~2 s at µs resolution; 32 cover ~35 min.
    pub fn new(buckets: usize) -> Self {
        let n = buckets.clamp(1, 64);
        Self {
            buckets: (0..=n).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        // Index of the first bound 2^i with value <= 2^i:
        // 0 for 0 and 1, then 64 - lz(v - 1).
        let idx =
            (64 - value.saturating_sub(1).leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with the
    /// `+Inf` bucket (`upper_bound == None`).
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0u64;
        let last = self.buckets.len() - 1;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                acc += b.load(Ordering::Relaxed);
                let bound = (i < last).then(|| 1u64 << i);
                (bound, acc)
            })
            .collect()
    }
}

/// Label-keyed children of one labelled family ([`CounterVec`],
/// [`HistogramVec`]).
#[derive(Debug)]
struct Labelled<T> {
    label_names: Vec<&'static str>,
    children: RwLock<Vec<(Vec<String>, Arc<T>)>>,
}

impl<T> Labelled<T> {
    fn new(label_names: &[&'static str]) -> Self {
        Self {
            label_names: label_names.to_vec(),
            children: RwLock::new(Vec::new()),
        }
    }

    /// The child for one combination of label values, made on first use.
    /// A read lock on a hit, a write lock the first time a combination
    /// is seen.
    fn with(&self, values: &[&str], make: impl FnOnce() -> T) -> Arc<T> {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "label value count mismatch for labelled metric family"
        );
        if let Some(child) = self.get(values) {
            return child;
        }
        let mut children = self.children.write().unwrap();
        if let Some((_, c)) = children.iter().find(|(vs, _)| vs == values) {
            return Arc::clone(c);
        }
        let child = Arc::new(make());
        children.push((
            values.iter().map(|v| v.to_string()).collect(),
            Arc::clone(&child),
        ));
        child
    }

    fn get(&self, values: &[&str]) -> Option<Arc<T>> {
        let children = self.children.read().unwrap();
        children
            .iter()
            .find(|(vs, _)| vs == values)
            .map(|(_, c)| Arc::clone(c))
    }

    /// `(label_values, child)` pairs sorted by label values.
    fn sorted(&self) -> Vec<(Vec<String>, Arc<T>)> {
        let mut out: Vec<_> = self.children.read().unwrap().clone();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// `k1="v1",k2="v2"` for one child's label values.
    fn render_labels(&self, values: &[String]) -> String {
        let labels: Vec<String> = self
            .label_names
            .iter()
            .zip(values)
            .map(|(k, val)| format!("{}=\"{}\"", k, escape_label(val)))
            .collect();
        labels.join(",")
    }
}

/// A family of [`Counter`]s distinguished by label values, rendered as
/// `name{k1="v1",k2="v2"} n`.
///
/// Looking a child up takes a read lock (a write lock the first time a
/// label combination is seen); hot paths should call
/// [`CounterVec::with`] once and cache the `Arc<Counter>`.
#[derive(Debug)]
pub struct CounterVec {
    family: Labelled<Counter>,
}

impl CounterVec {
    fn new(label_names: &[&'static str]) -> Self {
        Self {
            family: Labelled::new(label_names),
        }
    }

    /// The label names this family was registered with.
    pub fn label_names(&self) -> &[&'static str] {
        &self.family.label_names
    }

    /// The counter for one combination of label values (created at zero
    /// on first use).
    ///
    /// # Panics
    /// If `values.len()` differs from the registered label-name count.
    pub fn with(&self, values: &[&str]) -> Arc<Counter> {
        self.family.with(values, Counter::new)
    }

    /// Sum over every child — "how many in total, ignoring labels".
    pub fn sum(&self) -> u64 {
        let children = self.family.children.read().unwrap();
        children.iter().map(|(_, c)| c.get()).sum()
    }

    /// The current value for one label combination (0 when never seen).
    pub fn value(&self, values: &[&str]) -> u64 {
        self.family.get(values).map_or(0, |c| c.get())
    }

    /// `(label_values, count)` snapshot sorted by label values.
    pub fn snapshot(&self) -> Vec<(Vec<String>, u64)> {
        self.family
            .sorted()
            .into_iter()
            .map(|(vs, c)| (vs, c.get()))
            .collect()
    }
}

/// A family of [`Histogram`]s distinguished by label values, rendered as
/// `name_bucket{k="v",le="…"}`, `name_sum{k="v"}` and `name_count{k="v"}`.
///
/// Same lookup cost as [`CounterVec`]: cache the `Arc<Histogram>` of
/// [`HistogramVec::with`] on hot paths.
#[derive(Debug)]
pub struct HistogramVec {
    family: Labelled<Histogram>,
    buckets: usize,
}

impl HistogramVec {
    fn new(label_names: &[&'static str], buckets: usize) -> Self {
        Self {
            family: Labelled::new(label_names),
            buckets,
        }
    }

    /// The histogram for one combination of label values (created empty
    /// on first use).
    ///
    /// # Panics
    /// If `values.len()` differs from the registered label-name count.
    pub fn with(&self, values: &[&str]) -> Arc<Histogram> {
        self.family.with(values, || Histogram::new(self.buckets))
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterVec(Arc<CounterVec>),
    HistogramVec(Arc<HistogramVec>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) | Metric::CounterVec(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) | Metric::HistogramVec(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of metrics with a Prometheus text renderer.
///
/// Registration (`counter`/`gauge`/`histogram`/`counter_vec`) is
/// get-or-create by name: registering the same name twice returns the
/// **same** underlying metric, so independent components can share a
/// family without coordination. Kind mismatches panic — that is a
/// programming error, not a runtime condition.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: RwLock<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> (T, Metric),
        reuse: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        assert!(valid_name(name), "invalid metric name {name:?}");
        {
            let families = self.families.read().unwrap();
            if let Some(f) = families.iter().find(|f| f.name == name) {
                return reuse(&f.metric).unwrap_or_else(|| {
                    panic!("metric {name:?} re-registered as a different kind")
                });
            }
        }
        let mut families = self.families.write().unwrap();
        if let Some(f) = families.iter().find(|f| f.name == name) {
            return reuse(&f.metric)
                .unwrap_or_else(|| panic!("metric {name:?} re-registered as a different kind"));
        }
        let (handle, metric) = make();
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            metric,
        });
        handle
    }

    /// Get-or-create a [`Counter`] named `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(
            name,
            help,
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Metric::Counter(c))
            },
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get-or-create a [`Gauge`] named `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Metric::Gauge(g))
            },
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get-or-create a [`Histogram`] named `name` with `buckets` log₂
    /// buckets (plus `+Inf`). The bucket count of the first registration
    /// wins.
    pub fn histogram(&self, name: &str, help: &str, buckets: usize) -> Arc<Histogram> {
        self.register(
            name,
            help,
            || {
                let h = Arc::new(Histogram::new(buckets));
                (Arc::clone(&h), Metric::Histogram(h))
            },
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Get-or-create a labelled counter family named `name`. The label
    /// names of the first registration win.
    pub fn counter_vec(&self, name: &str, help: &str, labels: &[&'static str]) -> Arc<CounterVec> {
        self.register(
            name,
            help,
            || {
                let v = Arc::new(CounterVec::new(labels));
                (Arc::clone(&v), Metric::CounterVec(v))
            },
            |m| match m {
                Metric::CounterVec(v) => Some(Arc::clone(v)),
                _ => None,
            },
        )
    }

    /// Get-or-create a labelled histogram family named `name`, every
    /// child with `buckets` log₂ buckets (plus `+Inf`). The label names
    /// and bucket count of the first registration win.
    pub fn histogram_vec(
        &self,
        name: &str,
        help: &str,
        labels: &[&'static str],
        buckets: usize,
    ) -> Arc<HistogramVec> {
        self.register(
            name,
            help,
            || {
                let v = Arc::new(HistogramVec::new(labels, buckets));
                (Arc::clone(&v), Metric::HistogramVec(v))
            },
            |m| match m {
                Metric::HistogramVec(v) => Some(Arc::clone(v)),
                _ => None,
            },
        )
    }

    /// The value of the plain counter `name`, if registered. Test helper.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let families = self.families.read().unwrap();
        families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| match &f.metric {
                Metric::Counter(c) => Some(c.get()),
                _ => None,
            })
    }

    /// The label-ignoring sum of the counter-vec `name`, if registered.
    /// Test helper.
    pub fn counter_vec_sum(&self, name: &str) -> Option<u64> {
        let families = self.families.read().unwrap();
        families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| match &f.metric {
                Metric::CounterVec(v) => Some(v.sum()),
                _ => None,
            })
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` preambles, cumulative
    /// `_bucket{le=…}` + `_sum` + `_count` for histograms, one sample
    /// line per labelled child for counter vecs.
    pub fn render_prometheus(&self, out: &mut dyn Write) -> io::Result<()> {
        let families = self.families.read().unwrap();
        for f in families.iter() {
            writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help))?;
            writeln!(out, "# TYPE {} {}", f.name, f.metric.kind())?;
            match &f.metric {
                Metric::Counter(c) => writeln!(out, "{} {}", f.name, c.get())?,
                Metric::Gauge(g) => writeln!(out, "{} {}", f.name, g.get())?,
                Metric::Histogram(h) => render_histogram(out, &f.name, "", h)?,
                Metric::CounterVec(v) => {
                    for (values, count) in v.snapshot() {
                        let labels = v.family.render_labels(&values);
                        writeln!(out, "{}{{{}}} {}", f.name, labels, count)?;
                    }
                }
                Metric::HistogramVec(v) => {
                    for (values, h) in v.family.sorted() {
                        render_histogram(out, &f.name, &v.family.render_labels(&values), &h)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// [`MetricsRegistry::render_prometheus`] into a `String`.
    pub fn render_to_string(&self) -> String {
        let mut buf = Vec::new();
        self.render_prometheus(&mut buf)
            .expect("writing to Vec cannot fail");
        String::from_utf8(buf).expect("exposition output is UTF-8")
    }

    /// Parses a text-exposition document (as produced by
    /// [`MetricsRegistry::render_prometheus`]) into `(sample_name, label
    /// set, value)` triples. Shared by the CI smoke and the protocol
    /// tests so "is this valid exposition format?" has one answer.
    pub fn parse_exposition(text: &str) -> Result<Vec<(String, String, f64)>, String> {
        let mut samples = Vec::new();
        let mut typed: HashMap<String, String> = HashMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap_or("").to_string();
                let kind = it.next().unwrap_or("").to_string();
                if !matches!(
                    kind.as_str(),
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {}: unknown TYPE {kind:?}", lineno + 1));
                }
                typed.insert(name, kind);
                continue;
            }
            if line.starts_with('#') {
                continue; // HELP or comment
            }
            let (name_part, value_part) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no sample value in {line:?}", lineno + 1))?;
            let value: f64 = value_part
                .parse()
                .map_err(|_| format!("line {}: bad sample value {value_part:?}", lineno + 1))?;
            let (name, labels) = match name_part.split_once('{') {
                Some((n, rest)) => {
                    let labels = rest
                        .strip_suffix('}')
                        .ok_or_else(|| format!("line {}: unterminated labels", lineno + 1))?;
                    (n.to_string(), labels.to_string())
                }
                None => (name_part.to_string(), String::new()),
            };
            if !valid_name(&name) {
                return Err(format!("line {}: invalid sample name {name:?}", lineno + 1));
            }
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(&name);
            if !typed.contains_key(&name) && !typed.contains_key(base) {
                return Err(format!(
                    "line {}: sample {name:?} has no # TYPE",
                    lineno + 1
                ));
            }
            samples.push((name, labels, value));
        }
        if samples.is_empty() {
            return Err("no samples in exposition".to_string());
        }
        Ok(samples)
    }
}

/// One histogram's `_bucket` / `_sum` / `_count` lines; `labels` is the
/// rendered label set of a [`HistogramVec`] child, empty for a plain one.
fn render_histogram(
    out: &mut dyn Write,
    name: &str,
    labels: &str,
    h: &Histogram,
) -> io::Result<()> {
    let sep = if labels.is_empty() { "" } else { "," };
    for (bound, cum) in h.cumulative() {
        let le = bound.map_or("+Inf".to_string(), |b| b.to_string());
        writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}")?;
    }
    if labels.is_empty() {
        writeln!(out, "{name}_sum {}", h.sum())?;
        writeln!(out, "{name}_count {}", h.count())
    } else {
        writeln!(out, "{name}_sum{{{labels}}} {}", h.sum())?;
        writeln!(out, "{name}_count{{{labels}}} {}", h.count())
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", "a counter");
        assert_eq!(c.inc(), 1);
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same handle.
        assert_eq!(reg.counter("c_total", "a counter").get(), 5);
        let g = reg.gauge("g", "a gauge");
        g.set(7);
        g.sub(10);
        assert_eq!(g.get(), -3);
        assert_eq!(reg.counter_value("c_total"), Some(5));
    }

    #[test]
    fn histogram_buckets_are_log2_cumulative() {
        let h = Histogram::new(4); // bounds 1, 2, 4, 8, +Inf
        for v in [0, 1, 2, 3, 8, 9, 1000] {
            h.observe(v);
        }
        let cum = h.cumulative();
        assert_eq!(cum[0], (Some(1), 2)); // 0, 1
        assert_eq!(cum[1], (Some(2), 3)); // + 2
        assert_eq!(cum[2], (Some(4), 4)); // + 3
        assert_eq!(cum[3], (Some(8), 5)); // + 8
        assert_eq!(cum[4], (None, 7)); // + 9, 1000
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1023);
    }

    #[test]
    fn counter_vec_children_and_sum() {
        let reg = MetricsRegistry::new();
        let v = reg.counter_vec("req_total", "requests", &["method", "status"]);
        v.with(&["GET", "200"]).add(3);
        v.with(&["POST", "400"]).inc();
        v.with(&["GET", "200"]).inc();
        assert_eq!(v.value(&["GET", "200"]), 4);
        assert_eq!(v.sum(), 5);
        assert_eq!(reg.counter_vec_sum("req_total"), Some(5));
    }

    #[test]
    fn histogram_vec_renders_labelled_series() {
        let reg = MetricsRegistry::new();
        let v = reg.histogram_vec("phase_us", "per phase", &["phase"], 4);
        v.with(&["stage"]).observe(3);
        v.with(&["notify"]).observe(100);
        v.with(&["stage"]).observe(1);
        assert_eq!(v.with(&["stage"]).count(), 2);
        let text = reg.render_to_string();
        assert!(text.contains("# TYPE phase_us histogram"));
        assert!(text.contains("phase_us_bucket{phase=\"stage\",le=\"4\"} 2"));
        assert!(text.contains("phase_us_bucket{phase=\"notify\",le=\"+Inf\"} 1"));
        assert!(text.contains("phase_us_sum{phase=\"stage\"} 4"));
        assert!(text.contains("phase_us_count{phase=\"notify\"} 1"));
        let samples = MetricsRegistry::parse_exposition(&text).unwrap();
        assert!(samples
            .iter()
            .any(|(n, l, v)| n == "phase_us_sum" && l == "phase=\"notify\"" && *v == 100.0));
    }

    #[test]
    fn render_is_valid_exposition() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "with \\ and \n in help").add(2);
        reg.gauge("b", "gauge").set(-4);
        reg.histogram("h_us", "hist", 4).observe(5);
        let v = reg.counter_vec("r_total", "vec", &["fmt"]);
        v.with(&["csv\"x"]).inc();
        let text = reg.render_to_string();
        assert!(text.contains("# HELP a_total with \\\\ and \\n in help"));
        assert!(text.contains("b -4"));
        assert!(text.contains("h_us_bucket{le=\"8\"} 1"));
        assert!(text.contains("h_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("h_us_sum 5"));
        assert!(text.contains("r_total{fmt=\"csv\\\"x\"} 1"));
        let samples = MetricsRegistry::parse_exposition(&text).unwrap();
        assert!(samples.iter().any(|(n, _, v)| n == "a_total" && *v == 2.0));
    }

    #[test]
    fn parse_rejects_untyped_and_garbage() {
        assert!(MetricsRegistry::parse_exposition("orphan 3").is_err());
        assert!(MetricsRegistry::parse_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(MetricsRegistry::parse_exposition("").is_err());
        let ok = "# TYPE x counter\nx 3\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1";
        assert!(MetricsRegistry::parse_exposition(ok).is_ok());
    }
}
