//! `gauntlet selfcheck` measures how far identical code disagrees with
//! itself and sets the bounds from that; `gauntlet run --smoke` is the
//! quick schema-and-correctness pass a later change can wire into CI.
//! Both run every workload in a fresh child process of this executable.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::util::{median, percentile};
use crate::workload::{NAMES, WHY};

/// What `BENCHMARK.json` asks the driver to measure for.
const RUN_SECONDS: u32 = 20;
/// The widest bound the benchmark contract accepts. `setup_s` always takes
/// it (the contract asks that it have the largest bound); any other metric
/// whose quartile spread alone exceeds it cannot be bounded and is refused.
const WIDEST_BOUND: f64 = 0.25;
const NARROWEST_BOUND: f64 = 0.05;

fn child(args: &[&str]) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args(args).stdin(Stdio::null());
    Ok(command)
}

/// `"name": {"value": <number>, "unit": "<unit>"}` pairs of a result line.
fn parse_values(line: &str) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name = rest[..at].rsplit('"').next().unwrap_or("").to_string();
        rest = &rest[at + "\": {\"value\": ".len()..];
        let Some(comma) = rest.find(", \"unit\": \"") else {
            break;
        };
        let value = rest[..comma].parse::<f64>().unwrap_or(f64::NAN);
        rest = &rest[comma + ", \"unit\": \"".len()..];
        let unit = rest.split('"').next().unwrap_or("").to_string();
        out.push((name, value, unit));
    }
    out
}

/// Checks a result line against `table`: every metric once, right unit,
/// finite value, and `correct` with no failures.
fn validate(line: &str, table: &[Metric]) -> Result<(), String> {
    if !line.starts_with("{\"correct\": true, \"attempted\": ")
        || !line.contains(", \"failed\": 0, \"metrics\": {")
    {
        return Err(format!("not a clean result line: {line}"));
    }
    let values = parse_values(line);
    if values.len() != table.len() {
        return Err(format!(
            "{} metrics emitted, {} declared",
            values.len(),
            table.len()
        ));
    }
    for m in table {
        match values.iter().find(|v| v.0 == m.name) {
            Some((_, value, unit)) if unit == m.unit && value.is_finite() => {}
            other => return Err(format!("{}: {other:?}, want unit {}", m.name, m.unit)),
        }
    }
    Ok(())
}

/// Every workload, traced and untraced, for one second each, all at once
/// (nothing here is a measurement): schema, digests and failed-op counts.
pub fn smoke() -> Result<bool, String> {
    let mut children = Vec::new();
    for name in NAMES {
        for trace in ["0", "1"] {
            let out = format!("gauntlet/out/smoke-trace-{name}.json");
            let process = child(&[
                "run",
                "--workload",
                name,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--trace-out",
                &out,
                "--smoke",
            ])?
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
            children.push((name, trace, process));
        }
    }
    let mut clean = true;
    for (name, trace, process) in children {
        let output = process.wait_with_output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let table = if trace == "1" { PER_LAYER } else { END_TO_END };
        let verdict = match (output.status.success(), stdout.lines().last()) {
            (true, Some(line)) => validate(line, table),
            _ => Err(format!("exit {:?}", output.status.code())),
        };
        match verdict {
            Ok(()) => eprintln!("smoke {name} --trace {trace}: ok ({} metrics)", table.len()),
            Err(e) => {
                clean = false;
                eprintln!("smoke {name} --trace {trace}: FAILED: {e}");
            }
        }
    }
    Ok(clean)
}

/// Python's `statistics.quantiles(values, n=4)` first and third quartile
/// (the "exclusive" method), which is what the driver computes.
fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |p: f64| {
        let pos = (p * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

fn round_up_to_cent(x: f64) -> f64 {
    (x * 100.0 - 1e-9).ceil() / 100.0
}

/// Runs every workload `runs` times on this very build (workloads
/// interleaved, so drift in the host hits all alike) and prints, per metric
/// and workload, `spread = (max - min) / median` and the quartile spread the
/// driver judges by. Each bound is `max(0.05, 2 x widest spread, 3 x widest
/// quartile spread)` rounded up to 0.01 and capped at the contract's 0.25; a
/// metric whose quartile spread alone exceeds the cap is refused (lengthen
/// its window or demote it to the per-layer list). The report goes to
/// stderr and into `gauntlet/selfcheck.json`; `BENCHMARK.json` to stdout.
pub fn selfcheck(runs: usize) -> Result<(), String> {
    if runs < 2 {
        return Err("selfcheck needs --runs 2 or more".into());
    }
    // samples[workload][metric] -> one value per run
    let mut samples = vec![vec![Vec::new(); END_TO_END.len()]; NAMES.len()];
    let mut canaries = Vec::new();
    for round in 0..runs {
        for (wi, name) in NAMES.iter().enumerate() {
            // A new seed every round, as the driver does: the spread then
            // includes what different generated inputs add.
            let (seconds, seed) = (RUN_SECONDS.to_string(), (round + 1).to_string());
            let output = child(&[
                "run",
                "--workload",
                name,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                "0",
            ])?
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            let line = stdout.lines().last().unwrap_or("");
            validate(line, END_TO_END).map_err(|e| format!("{name} run {round}: {e}\n{stderr}"))?;
            let canary = stderr
                .split("canary_ms ")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .unwrap_or("?")
                .to_string();
            eprintln!("seed {seed} {name}: canary_ms {canary}");
            canaries.push(format!("\"{name} seed {seed}: {canary}\""));
            for (name, value, _) in parse_values(line) {
                let mi = END_TO_END
                    .iter()
                    .position(|m| m.name == name)
                    .expect("validated above");
                samples[wi][mi].push(value);
            }
        }
    }

    let mut table = String::new();
    let mut bounds = Vec::new();
    let mut refused = Vec::new();
    eprintln!(
        "\n{:<18}{:<13}{:>12}{:>10}{:>10}",
        "metric", "workload", "median", "spread", "iqr"
    );
    for (mi, metric) in END_TO_END.iter().enumerate() {
        let (mut widest, mut widest_iqr): (f64, f64) = (0.0, 0.0);
        for (wi, name) in NAMES.iter().enumerate() {
            let values = &mut samples[wi][mi];
            let mid = median(values);
            let spread = (percentile(values, 1.0) - percentile(values, 0.0)) / mid;
            let (q1, q3) = quartiles(values);
            let iqr = (q3 - q1) / mid;
            widest = widest.max(spread);
            widest_iqr = widest_iqr.max(iqr);
            eprintln!(
                "{:<18}{:<13}{:>12.4}{:>10.4}{:>10.4}",
                metric.name, name, mid, spread, iqr
            );
            write!(
                table,
                "{}\n    {{\"metric\": \"{}\", \"workload\": \"{name}\", \"median\": {mid}, \"spread\": {spread:.4}, \"iqr_spread\": {iqr:.4}, \"sorted_values\": {values:?}}}",
                if table.is_empty() { "" } else { "," },
                metric.name
            )
            .expect("writing to a String");
        }
        let wanted = (2.0 * widest).max(3.0 * widest_iqr);
        let bound = if metric.name == "setup_s" {
            WIDEST_BOUND
        } else {
            round_up_to_cent(wanted.clamp(NARROWEST_BOUND, WIDEST_BOUND))
        };
        if metric.name != "setup_s" && widest_iqr > WIDEST_BOUND {
            refused.push(format!("{} (quartile spread {widest_iqr:.2})", metric.name));
        }
        eprintln!(
            "{:<18}bound {bound:.2}{}",
            metric.name,
            if wanted > WIDEST_BOUND {
                "  (capped: the rule asks for more than the contract allows)"
            } else {
                ""
            }
        );
        bounds.push(bound);
    }
    if !refused.is_empty() {
        return Err(format!(
            "these cannot be held within {WIDEST_BOUND}: lengthen their window or demote them to per-layer: {}",
            refused.join(", ")
        ));
    }
    let report = format!(
        "{{\n  \"runs\": {runs},\n  \"seeds\": \"1..={runs}\",\n  \"run_seconds\": {RUN_SECONDS},\n  \"rule\": \"bound = max(0.05, 2 x widest (max-min)/median, 3 x widest quartile spread) over workloads, rounded up to 0.01, capped at 0.25; setup_s takes 0.25; a quartile spread above 0.25 is refused\",\n  \"canary_ms_before_after\": [{}],\n  \"table\": [{table}\n  ]\n}}\n",
        canaries.join(", ")
    );
    std::fs::write("gauntlet/selfcheck.json", report)
        .map_err(|e| format!("gauntlet/selfcheck.json: {e}"))?;
    println!("{}", manifest(&bounds));
    Ok(())
}

/// `BENCHMARK.json`, from the metric tables and the measured bounds.
fn manifest(bounds: &[f64]) -> String {
    let workloads: Vec<String> = NAMES
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .zip(bounds)
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"gauntlet/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"gauntlet\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
    }

    #[test]
    fn result_lines_round_trip() {
        let values = vec![("setup_s", 1.25), ("peak_rss_mb", 3.0)];
        let line = crate::metrics::result_line(END_TO_END, &values, true, 9, 0);
        let parsed = parse_values(&line);
        assert_eq!(parsed[0], ("setup_s".to_string(), 1.25, "s".to_string()));
        assert_eq!(parsed[1].2, "MiB");
        assert_eq!(round_up_to_cent(0.0501), 0.06);
        assert_eq!(round_up_to_cent(0.05), 0.05);
    }
}
