//! Small shared pieces: order statistics, the result record, peak RSS,
//! the seeded operands, the standalone disk-layer probe, and the
//! reproducibility header.

use crate::spans::SpanLog;
use lowband_core::Instance;
use lowband_matrix::{Fp, SparseMatrix};
use lowband_serve::{decode_plan, PlanStore, StructureKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run hands back to `main` for printing.
pub struct Outcome {
    /// `false` on any wrong answer (a digest or product that does not
    /// match the reference).
    pub correct: bool,
    pub attempted: u64,
    /// Refused, dropped, errored or wrong operations.
    pub failed: u64,
    /// Tracing off: the end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Tracing on: the per-layer metrics.
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Share of attempted operations that succeeded and verified.
    pub fn ok_share(attempted: u64, failed: u64) -> f64 {
        attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64
    }
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Print the samples behind a figure, in ms, for the record.
pub fn print_samples_ms(label: &str, seconds: &[f64]) {
    let ms: Vec<String> = seconds.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    println!("# {label} samples (ms): {}", ms.join(" "));
}

/// `setup_s` from set-up times recorded in blocks of `per_block`
/// repetitions spread over the run: the median, over repetition indices
/// within a block, of that repetition's mean over all blocks. Each mean
/// spans the whole run, so a stretch of slow CPU moves them all alike
/// instead of flipping a plain median between a fast and a slow value.
pub fn setup_figure(times: &[f64], per_block: usize) -> f64 {
    let means: Vec<f64> = (0..per_block)
        .map(|k| {
            let rep: Vec<f64> = times.iter().skip(k).step_by(per_block).copied().collect();
            mean(&rep)
        })
        .collect();
    median(&means)
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank quantile `q` of an ascending slice; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The operands of one product with value seed `seed`: Â then B̂
/// randomized from one seeded stream, as `expected_digest` draws them.
pub fn operands(inst: &Instance, seed: u64) -> (SparseMatrix<Fp>, SparseMatrix<Fp>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
    let b = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
    (a, b)
}

/// The layers inside a disk hit, each called on its own under `log`:
/// the file read of `path_for`, `decode_plan` and `lint_linked`.
/// Returns whether the lint found no error.
pub fn disk_layers(
    log: &mut SpanLog,
    store: &PlanStore,
    key: StructureKey,
) -> Result<bool, String> {
    let raw = log
        .span("serve.disk.read", |_| std::fs::read(store.path_for(key)))
        .map_err(|e| format!("read failed: {e}"))?;
    let (_, decoded) = log
        .span("binser.decode", |_| decode_plan(&raw))
        .map_err(|e| format!("decode failed: {e}"))?;
    let lint = log.span("check.lint", |_| {
        lowband_check::lint_linked(&decoded.schedule, &decoded.linked)
    });
    Ok(lint.errors().count() == 0)
}

/// Peak resident set (`VmHWM`) of a process in MB, read from
/// `/proc/<pid>/status`; `None` where that file is unavailable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Worker/connection cap of the load generator and daemon: the machine's
/// available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Print the reproducibility header: parallelism and CPU cache sizes.
pub fn print_header(workload: &str, seed: u64, seconds: f64, trace: bool) {
    println!("# perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}");
    println!("# nproc={}", nproc());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        caches.push(format!(
            "L{level}{}={size}",
            if kind == "Data" {
                "d"
            } else if kind == "Instruction" {
                "i"
            } else {
                ""
            }
        ));
    }
    if caches.is_empty() {
        println!("# caches=unknown");
    } else {
        println!("# caches {}", caches.join(" "));
    }
}
