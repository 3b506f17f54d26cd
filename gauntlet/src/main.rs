//! `gauntlet`: the repo's benchmark driver. See `README.md` beside the
//! manifest for workloads, metrics and the engine functions this calls.
//!
//! ```text
//! gauntlet run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gauntlet run --smoke
//! gauntlet selfcheck --runs <n>
//! gauntlet pin
//! ```

mod alloc;
mod loadgen;
mod metrics;
mod mix;
mod oracle;
mod rig;
mod selfcheck;
mod trace;
mod util;
mod window;
mod workload;

use std::process::ExitCode;

use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use rig::Rig;
use workload::Workload;

/// Untraced runs set up this many times and report the median `setup_s`.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub trace_out: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: oracle::PINNED_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        runs: 5,
        trace_out: String::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or(format!("{flag} {value}: not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("--seed {value}"))?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0.0,
            "--runs" => args.runs = number()? as usize,
            "--trace-out" => args.trace_out = value.clone(),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

/// One run of one workload; prints the report on stderr and the result
/// line last on stdout. `Ok(false)` means it ran but was not correct.
pub fn run(args: &Args) -> Result<bool, String> {
    let w = Workload::build(&args.workload, args.seed).ok_or(format!(
        "unknown workload {:?}; one of {:?}",
        args.workload,
        workload::NAMES
    ))?;
    let ((values, attempted, failed), table) = match args.trace {
        true => (trace::run(&w, args)?, PER_LAYER),
        false => (untraced(&w, args)?, END_TO_END),
    };
    metrics::conforms(table, &values)?;
    let correct = failed == 0;
    eprintln!("{}: ops_attempted {attempted} ops_failed {failed}", w.name);
    println!(
        "{}",
        result_line(table, &values, correct, attempted, failed)
    );
    Ok(correct)
}

fn untraced(w: &Workload, args: &Args) -> Result<(Values, u64, u64), String> {
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..setups {
        drop(rig.take()); // one store alive at a time
        let built = Rig::build(w, args.seed)?;
        setup_s.push(built.total.as_secs_f64());
        rig = Some(built);
    }
    let rig = rig.expect("at least one set-up");
    let mut failed = rig.failed + rig.pinned_mismatches(w, args.seed)?;
    let mut attempted = rig.attempted;

    let canary_before = util::canary_ms();
    let window = window::run(w, &rig, args.seconds, !args.smoke)?;
    let canary_after = util::canary_ms();
    attempted += window.records.len() as u64;
    failed += window.records.iter().filter(|r| !r.ok).count() as u64;
    let e = window::end_to_end(w, &window);

    eprintln!(
        "{} seed {} window {:.1}s: {} ops, canary_ms {canary_before:.2} / {canary_after:.2}, set-ups {setup_s:.3?}",
        w.name,
        args.seed,
        args.seconds,
        window.records.len()
    );
    // The all-operations median is reported here only: between identical
    // runs it spread half again as wide as `class_geomean_ms`, which
    // carries "typical latency" in the metric list.
    eprintln!(
        "  latency_p50_ms {:.4}; samples: min per class {}, beyond p99 {}; {} body bytes; {} non-2xx",
        e.latency_p50_ms,
        e.min_class_samples,
        e.beyond_p99,
        window.records.iter().map(|r| r.bytes).sum::<usize>(),
        window
            .records
            .iter()
            .filter(|r| !(200..300).contains(&r.status))
            .count()
    );
    eprintln!("  interval throughput (1/s): {:.0?}", window.interval_qps);
    let mut slowest: Vec<&loadgen::Record> = window.records.iter().collect();
    slowest.sort_by(|a, b| b.latency_ms().total_cmp(&a.latency_ms()));
    let slowest: Vec<String> = slowest
        .iter()
        .take(8)
        .map(|r| {
            format!(
                "{} {:.1} ms at {:.1} s",
                w.classes[r.class].name,
                r.latency_ms(),
                r.due
            )
        })
        .collect();
    eprintln!("  slowest: {}", slowest.join("; "));
    for (class, n, median_ms) in &e.per_class {
        eprintln!("  {class:<14} n={n:<6} median {median_ms:.4} ms");
    }
    if !args.smoke && (e.min_class_samples < 10 || e.beyond_p99 < 10) {
        return Err(format!(
            "too few samples (min per class {}, beyond p99 {}): no metric is computed from fewer than 10",
            e.min_class_samples, e.beyond_p99
        ));
    }
    drop(rig);
    let values = vec![
        ("setup_s", util::median(&mut setup_s)),
        ("suite_total_s", e.suite_total_s),
        ("class_geomean_ms", e.class_geomean_ms),
        ("throughput_qps", e.throughput_qps),
        ("latency_p99_ms", e.latency_p99_ms),
        ("peak_rss_mb", util::peak_rss_mb()),
    ];
    Ok((values, attempted, failed))
}

/// Rewrites `oracle_seed1.tsv` from the engine as it is now.
fn pin(path: &str) -> Result<(), String> {
    let mut out = String::from(
        "# workload\tclass\ttexts\trows\tdigest -- seed 1; regenerate with `gauntlet pin`\n",
    );
    for name in workload::NAMES {
        let w = Workload::build(name, oracle::PINNED_SEED).expect("known workload");
        let rig = Rig::build(&w, oracle::PINNED_SEED)?;
        if rig.failed != 0 {
            return Err(format!("{name}: {} warm-up operations failed", rig.failed));
        }
        out.push_str(&oracle::render(name, &rig.class_table(&w)));
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: gauntlet run|selfcheck|pin [options]");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "run" if args.smoke && args.workload.is_empty() => selfcheck::smoke(),
        "run" => run(&args),
        "selfcheck" => selfcheck::selfcheck(args.runs).map(|()| true),
        "pin" => pin("gauntlet/oracle_seed1.tsv").map(|()| true),
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gauntlet: {e}");
            ExitCode::from(2)
        }
    }
}
