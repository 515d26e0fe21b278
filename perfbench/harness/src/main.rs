//! The repository benchmark's harness.
//!
//! ```text
//! perfbench-harness --workload serve-warm|serve-churn|plan-lifecycle
//!     --seed N --seconds S --trace 0|1 --served PATH --out DIR
//! ```
//!
//! Prints a reproducibility header and progress lines, then, as its last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 on any wrong answer and 2 on a usage or
//! environment error. `perfbench/run.py` builds and runs it; see
//! `perfbench/README.md` for the workloads and metrics.

/// Evaluate `$body` with `$t` bound to the span log when there is one,
/// else to a no-op tracer (the two are different `Tracer` types).
macro_rules! with_tracer {
    ($log:ident, |$t:ident| $body:expr) => {
        match $log.as_deref_mut() {
            Some($t) => $body,
            None => {
                let $t = &mut ::lowband_model::NoopTracer;
                $body
            }
        }
    };
}

mod lifecycle;
mod serving;
mod spans;
mod util;

use spans::Layer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use util::Metric;

/// Every per-layer metric, in output order, with its unit. A workload
/// reports 0 for a layer its traffic never reaches.
const PER_LAYER: &[(&str, &str)] = &[
    ("served.wire_us", "us"),
    ("served.transport_us", "us"),
    ("served.digest_us", "us"),
    ("serve.key_us", "us"),
    ("serve.supervise_us", "us"),
    ("core.exec.linked_us", "us"),
    ("core.exec.packed_us", "us"),
    ("matrix.reference_us", "us"),
    ("core.compile_s", "s"),
    ("model.compress_s", "s"),
    ("model.link_s", "s"),
    ("serve.disk.save_s", "s"),
    ("serve.disk.load_s", "s"),
    ("serve.disk.read_s", "s"),
    ("model.binser.decode_s", "s"),
    ("check.lint_s", "s"),
    ("serve.cache.hit_rate", "share"),
    ("serve.cache.compiles", "count"),
    ("serve.cache.disk_hits", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.disk_rejects", "count"),
    ("core.triangles", "count"),
    ("model.linked.slots", "count"),
    ("core.compile.rounds_distinct", "count"),
    ("serve.disk.plan_bytes_distinct", "count"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
    ("self.supervise_us", "us"),
    ("self.load_us", "us"),
    ("self.run_us", "us"),
    ("self.verify_us", "us"),
];

/// The per-layer metric list with every value 0.
pub fn zero_layers() -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: 0.0,
            unit,
        })
        .collect()
}

/// Set the named per-layer values (names must be in [`PER_LAYER`]).
pub fn set_layers(metrics: &mut [Metric], values: &[(&str, f64)]) {
    for &(name, value) in values {
        let m = metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        m.value = value;
    }
}

/// Human-readable self-time table of a span log.
pub fn print_self_times(layers: &BTreeMap<&'static str, Layer>) {
    println!(
        "# {:<22} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, l) in layers {
        println!(
            "# {:<22} {:>8} {:>14.3} {:>14.3}",
            name,
            l.total.len(),
            l.total.iter().sum::<f64>() / 1e6,
            l.own.iter().sum::<f64>() / 1e6
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    served: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        served: PathBuf::from(value("--served")?),
        out: PathBuf::from(value("--out")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench-harness: create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    util::print_header(&args.workload, args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "serve-warm" => serving::run(
            &args.served,
            false,
            args.seed,
            args.seconds,
            args.trace,
            &args.out,
        ),
        "serve-churn" => serving::run(
            &args.served,
            true,
            args.seed,
            args.seconds,
            args.trace,
            &args.out,
        ),
        "plan-lifecycle" => lifecycle::run(args.seed, args.seconds, args.trace, &args.out),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench-harness: metric {} is not finite", m.name);
        std::process::exit(2);
    }
    for m in metrics {
        println!("# {:<32} {:>18} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !outcome.correct {
        eprintln!("perfbench-harness: wrong answer(s) — run failed");
        std::process::exit(1);
    }
}
