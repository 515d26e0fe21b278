//! `plan-lifecycle`: the offline/operator path, in process, no daemon.
//!
//! For each structure, one pass runs compile → first verified product
//! (cold), `PlanStore::save`, drop, `PlanStore::load` → first verified
//! product (restart), a packed K = 64 batch, and a stream of single-seed
//! requests on the loaded plan. Passes repeat until `--seconds` is
//! spent; every per-run figure is a mean or total over passes, except
//! `p99_ms`, a median over passes.

use crate::spans::SpanLog;
use crate::util::{
    disk_layers, mean, median, nproc, operands, peak_rss_mb, print_samples_ms, quantile_sorted,
    secs, setup_figure, Metric, Outcome,
};
use lowband_bench::{block_workload, mixed_workload, scattered_workload};
use lowband_core::densemm::DenseEngine;
use lowband_core::{
    compile_plan_traced, run_plan_batch_traced, Algorithm, BatchMode, CompiledPlan, Instance,
};
use lowband_matrix::{reference_multiply, Fp};
use lowband_model::{NoopTracer, Tracer};
use lowband_serve::{PlanStore, StructureKey};
use lowband_served::{expected_digest, product_digest};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Packed batch size.
const K: usize = 64;
/// Single-seed requests per pass, all on one structure, so the latency
/// percentiles describe one structure, not a mixture; enough that each
/// pass's p99 has twelve samples beyond it.
const REQUESTS: usize = 1200;
/// Index of the structure the requests run on: `scattered-512`, whose
/// single product is cheap enough for that many requests per pass.
const REQUEST_STRUCTURE: usize = 1;
/// Seed of the generated structures: they are part of the workload's
/// definition; the run seed draws every value seed.
const STRUCTURE_SEED: u64 = 0x10AD;
/// Set-up repetitions per block behind `setup_s` (one block before the
/// warm-up and one after each pass).
const SETUP_BLOCK: usize = 5;

struct Structure {
    name: &'static str,
    inst: Instance,
    algorithm: Algorithm,
    first_seed: u64,
    first_expected: u64,
    /// The packed batch's K value seeds.
    seeds: Vec<u64>,
    /// Value seeds of the single-seed requests (first structure only).
    request_seeds: Vec<u64>,
}

const COMPRESS: bool = true;

fn two_phase() -> Algorithm {
    Algorithm::TwoPhase {
        d: 16,
        engine: DenseEngine::Cube3d,
    }
}

/// The structures, smallest first, ending with the ROADMAP reference
/// (TwoPhase d = 16 Cube3d on `block_workload(64, 16)`, n = 1024).
fn structures(seed: u64) -> Vec<Structure> {
    let shapes: Vec<(&'static str, Instance, Algorithm)> = vec![
        (
            "mixed-16x16",
            mixed_workload(16, 16, STRUCTURE_SEED),
            two_phase(),
        ),
        (
            "scattered-512",
            scattered_workload(512, 6, STRUCTURE_SEED),
            Algorithm::BoundedTriangles,
        ),
        ("block-64x16", block_workload(64, 16), two_phase()),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (name, inst, algorithm))| {
            let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((i as u64) << 48);
            let first_seed = base;
            Structure {
                name,
                first_expected: expected_digest::<Fp>(&inst, first_seed),
                seeds: (1..=K as u64).map(|k| base ^ k).collect(),
                request_seeds: if i == REQUEST_STRUCTURE {
                    (1..=REQUESTS as u64).map(|k| base ^ (k << 16)).collect()
                } else {
                    Vec::new()
                },
                inst,
                algorithm,
                first_seed,
            }
        })
        .collect()
}

/// The first verified product of a plan: execute the structure's first
/// seed on the linked machine and digest the extracted product.
/// Returns (digest, rounds, messages).
fn first_product<T: Tracer>(
    s: &Structure,
    plan: &CompiledPlan,
    tracer: &mut T,
) -> Result<(u64, usize, usize), String> {
    let (a, b) = operands(&s.inst, s.first_seed);
    tracer.span_enter("load");
    let mut machine = s.inst.load_linked(&a, &b, &plan.linked);
    tracer.span_exit("load");
    tracer.span_enter("run");
    let stats = machine.run_traced(tracer);
    tracer.span_exit("run");
    let stats = stats.map_err(|e| format!("{}: execution failed: {e}", s.name))?;
    let got = s.inst.extract_x_from(&machine);
    tracer.span_enter("served.digest");
    let digest = product_digest(&got);
    tracer.span_exit("served.digest");
    Ok((digest, stats.rounds, stats.messages))
}

/// One single-seed request on a loaded plan; `Ok(true)` iff it verified.
fn request<T: Tracer>(
    s: &Structure,
    plan: &CompiledPlan,
    seed: u64,
    tracer: &mut T,
) -> Result<bool, String> {
    tracer.span_enter("lifecycle.request");
    let reports =
        run_plan_batch_traced::<Fp, _>(&s.inst, plan, &[seed], BatchMode::Sequential, tracer);
    tracer.span_exit("lifecycle.request");
    let reports = reports.map_err(|e| format!("{}: request failed: {e}", s.name))?;
    Ok(reports.iter().all(|r| r.correct))
}

#[derive(Default)]
struct Pass {
    cold: f64,
    /// Single-seed requests timed with tracing off, their wall time and
    /// their latency percentiles (ns).
    requests: u64,
    request_time: f64,
    p50: f64,
    p99: f64,
    restart: f64,
    batch: f64,
    products: u64,
    rounds: f64,
    messages: f64,
    plan_bytes: f64,
    triangles: f64,
    slots: f64,
}

impl Pass {
    fn print(&self, label: &str) {
        println!(
            "# {label}: cold {:.3} s, restart {:.3} s, batch {:.3} s, requests {:.3} s (p50 {:.3} ms, p99 {:.3} ms)",
            self.cold,
            self.restart,
            self.batch,
            self.request_time,
            self.p50 / 1e6,
            self.p99 / 1e6
        );
    }
}

/// Everything one run tallies across its passes.
#[derive(Default)]
struct Tally {
    passes: Vec<Pass>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Single-seed request latencies (ns) with tracing off.
    plain: Vec<f64>,
    /// Single-seed request latencies (ns) under the span log.
    traced: Vec<f64>,
    rounds_seen: BTreeMap<&'static str, BTreeSet<usize>>,
    bytes_seen: BTreeMap<&'static str, BTreeSet<u64>>,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
        }
    }
}

/// One pass over every structure, returning its timings; counts go to
/// `tally`. With `log`, the pass runs under the
/// span log and the per-layer extras (standalone read, decode, lint and
/// reference product) are timed too.
fn pass(
    structures: &[Structure],
    store: &PlanStore,
    tally: &mut Tally,
    mut log: Option<&mut SpanLog>,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    for s in structures {
        // Cold: compile to the first verified product.
        let t0 = Instant::now();
        let plan = with_tracer!(log, |t| compile_plan_traced(
            &s.inst,
            s.algorithm,
            COMPRESS,
            t
        ))
        .map_err(|e| format!("{}: compile failed: {e}", s.name))?;
        let (compiled_digest, rounds, messages) =
            with_tracer!(log, |t| first_product(s, &plan, t))?;
        p.cold += secs(t0.elapsed());
        tally.check(compiled_digest == s.first_expected);
        p.rounds += rounds as f64;
        p.messages += messages as f64;
        tally.rounds_seen.entry(s.name).or_default().insert(rounds);
        p.triangles += plan.triangles as f64;
        p.slots += plan.linked.total_slots() as f64;

        // Persist, then drop the compiled plan.
        let key = timed(&mut log, "serve.key", || {
            StructureKey::of(&s.inst, s.algorithm, COMPRESS)
        });
        let bytes = timed(&mut log, "serve.disk.save", || store.save(key, &plan))
            .map_err(|e| format!("{}: save failed: {e}", s.name))?;
        tally.attempted += 1;
        p.plan_bytes += bytes as f64;
        tally.bytes_seen.entry(s.name).or_default().insert(bytes);
        drop(plan);

        // Restart: admission-gated load to the first verified product,
        // which must match the compiled plan's.
        let t0 = Instant::now();
        let loaded = timed(&mut log, "serve.disk.load", || store.load(key))
            .map_err(|e| format!("{}: load refused: {e}", s.name))?
            .ok_or_else(|| format!("{}: saved plan is missing", s.name))?;
        let (loaded_digest, _, _) = with_tracer!(log, |t| first_product(s, &loaded, t))?;
        p.restart += secs(t0.elapsed());
        tally.check(loaded_digest == compiled_digest && loaded_digest == s.first_expected);

        // The layers inside a disk hit, each called on its own.
        if let Some(log) = log.as_deref_mut() {
            let clean = disk_layers(log, store, key).map_err(|e| format!("{}: {e}", s.name))?;
            tally.check(clean);
            let (a, b) = operands(&s.inst, s.first_seed);
            let want = log.span("matrix.reference", |_| {
                reference_multiply(&a, &b, &s.inst.xhat)
            });
            tally.check(product_digest(&want) == s.first_expected);
        }

        // Packed batch, K = 64.
        let t0 = Instant::now();
        if let Some(log) = log.as_deref_mut() {
            log.enter("core.exec.packed");
        }
        let packed = BatchMode::Packed { lanes: 0 };
        let reports = with_tracer!(log, |t| run_plan_batch_traced::<Fp, _>(
            &s.inst, &loaded, &s.seeds, packed, t
        ));
        if let Some(log) = log.as_deref_mut() {
            log.exit("core.exec.packed");
        }
        let reports = reports.map_err(|e| format!("{}: packed batch failed: {e}", s.name))?;
        p.batch += secs(t0.elapsed());
        p.products += reports.len() as u64;
        for r in &reports {
            tally.check(r.correct);
        }

        // Single-seed requests on the restarted plan: a closed loop from
        // `nproc` threads (like the serve generator), so each figure
        // blends every CPU rather than one core's contention state.
        // Under the span log they run on one thread instead, every other
        // request untraced: the two medians give the tracing overhead.
        if log.is_none() && !s.request_seeds.is_empty() {
            let t0 = Instant::now();
            let share = s.request_seeds.len().div_ceil(nproc());
            let shards: Vec<Result<Vec<(f64, bool)>, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = s
                    .request_seeds
                    .chunks(share)
                    .map(|seeds| {
                        let loaded = &loaded;
                        scope.spawn(move || {
                            seeds
                                .iter()
                                .map(|&seed| {
                                    let t = Instant::now();
                                    let ok = request(s, loaded, seed, &mut NoopTracer)?;
                                    Ok((t.elapsed().as_nanos() as f64, ok))
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("request thread panicked".into()))
                    })
                    .collect()
            });
            p.request_time += secs(t0.elapsed());
            let mut latencies = Vec::new();
            for shard in shards {
                for (ns, ok) in shard? {
                    latencies.push(ns);
                    tally.check(ok);
                }
            }
            latencies.sort_by(f64::total_cmp);
            p.requests += latencies.len() as u64;
            p.p50 = quantile_sorted(&latencies, 0.5);
            p.p99 = quantile_sorted(&latencies, 0.99);
            tally.plain.extend(latencies);
        }
        if let Some(log) = log.as_deref_mut() {
            for (i, &seed) in s.request_seeds.iter().enumerate() {
                let t0 = Instant::now();
                let ok = if i % 2 == 0 {
                    log.set_request((tally.plain.len() + tally.traced.len()) as u64);
                    request(s, &loaded, seed, log)?
                } else {
                    request(s, &loaded, seed, &mut NoopTracer)?
                };
                let ns = t0.elapsed().as_nanos() as f64;
                if i % 2 == 0 {
                    tally.traced.push(ns);
                } else {
                    tally.plain.push(ns);
                }
                tally.check(ok);
            }
        }
        store
            .evict(key)
            .map_err(|e| format!("{}: evict failed: {e}", s.name))?;
    }
    Ok(p)
}

/// Run `f` inside a benchmark span when a log is present.
fn timed<R>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match log.as_deref_mut() {
        Some(log) => log.span(name, |_| f()),
        None => f(),
    }
}

/// One block of set-up repetitions (instance generation, expected
/// digests, a fresh store), each timed into `times`; returns the last
/// repetition's inputs and removes the other stores.
fn setup_block(
    seed: u64,
    out_dir: &Path,
    times: &mut Vec<f64>,
) -> Result<(Vec<Structure>, PlanStore), String> {
    let mut prepared: Option<(Vec<Structure>, PlanStore)> = None;
    for _ in 0..SETUP_BLOCK {
        let t0 = Instant::now();
        let structs = structures(seed);
        let root = out_dir.join(format!("store-{}-{}", std::process::id(), times.len()));
        let store = PlanStore::open(&root).map_err(|e| format!("open plan store: {e}"))?;
        times.push(secs(t0.elapsed()));
        if let Some((_, old)) = prepared.replace((structs, store)) {
            std::fs::remove_dir_all(old.root()).ok();
        }
    }
    Ok(prepared.expect("at least one set-up repetition"))
}

pub fn run(seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Result<Outcome, String> {
    // Set-up blocks run before the warm-up and after every pass, so the
    // `setup_s` samples the whole run, not one stretch of it; the
    // first block's last repetition provides the measured inputs.
    let mut setup_times = Vec::new();
    let (structs, store) = setup_block(seed, out_dir, &mut setup_times)?;
    for s in &structs {
        println!("# structure {}: n={}", s.name, s.inst.n);
    }

    let mut tally = Tally::default();
    let mut log = traced.then(SpanLog::new);
    let budget = Duration::from_secs_f64(seconds);
    // One unmeasured pass first: the first compiles of a fresh process
    // run slow while its heap grows.
    let mut result = pass(&structs, &store, &mut tally, None).map(|p| p.print("warm-up"));
    tally.plain.clear();
    let started = Instant::now();
    while result.is_ok() && (tally.passes.is_empty() || started.elapsed() < budget) {
        result = pass(&structs, &store, &mut tally, log.as_mut()).and_then(|p| {
            p.print(&format!("pass {}", tally.passes.len() + 1));
            tally.passes.push(p);
            let (_, extra) = setup_block(seed, out_dir, &mut setup_times)?;
            std::fs::remove_dir_all(extra.root()).ok();
            Ok(())
        });
    }
    std::fs::remove_dir_all(store.root()).ok();
    result?;
    print_samples_ms("setup_s", &setup_times);

    let passes = tally.passes.len() as f64;
    // Means over passes, not medians: a single-threaded pass runs wholly
    // in one core's contention state, so pass times are bimodal, and the
    // mean moves smoothly with the share of slow passes where the median
    // jumps between the modes.
    let per_pass = |f: fn(&Pass) -> f64| mean(&tally.passes.iter().map(f).collect::<Vec<_>>());
    let median_pass = |f: fn(&Pass) -> f64| median(&tally.passes.iter().map(f).collect::<Vec<_>>());
    let total = |f: fn(&Pass) -> f64| tally.passes.iter().map(f).sum::<f64>();
    let products: u64 = tally.passes.iter().map(|p| p.products).sum();
    for s in &structs {
        println!(
            "# {}: rounds seen {:?}, plan bytes seen {:?}",
            s.name, tally.rounds_seen[s.name], tally.bytes_seen[s.name]
        );
    }
    println!(
        "# {} pass(es), {} request(s), {} packed product(s)",
        tally.passes.len(),
        tally.plain.len(),
        products
    );

    let rss = peak_rss_mb(std::process::id()).unwrap_or(0.0);
    let mut out = Outcome {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        per_layer: Vec::new(),
        end_to_end: vec![
            Metric::new(
                "req_per_s",
                total(|p| p.requests as f64) / total(|p| p.request_time).max(1e-9),
                "req/s",
            ),
            Metric::new("p50_ms", per_pass(|p| p.p50) / 1e6, "ms"),
            // The median over passes: one disturbed pass can hold most
            // of a run's slowest requests and pull a mean far up.
            Metric::new("p99_ms", median_pass(|p| p.p99) / 1e6, "ms"),
            Metric::new(
                "ok_share",
                Outcome::ok_share(tally.attempted, tally.failed),
                "share",
            ),
            Metric::new("cold_s", per_pass(|p| p.cold), "s"),
            Metric::new("restart_s", per_pass(|p| p.restart), "s"),
            Metric::new(
                "products_per_s",
                total(|p| p.products as f64) / total(|p| p.batch).max(1e-9),
                "1/s",
            ),
            Metric::new("rounds", per_pass(|p| p.rounds), "count"),
            Metric::new("messages", per_pass(|p| p.messages), "count"),
            Metric::new("plan_mb", per_pass(|p| p.plan_bytes) / 1e6, "MB"),
            Metric::new("rss_peak_mb", rss, "MB"),
            Metric::new("setup_s", setup_figure(&setup_times, SETUP_BLOCK), "s"),
        ],
    };

    if let Some(log) = log {
        let path = out_dir.join("trace-plan-lifecycle.json");
        log.write_chrome(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
        let layers = log.layers();
        crate::print_self_times(&layers);
        let sum = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.total.iter().sum::<f64>())
        };
        let mean = |name: &str| {
            layers.get(name).map_or(0.0, |l| {
                l.total.iter().sum::<f64>() / l.total.len().max(1) as f64
            })
        };
        let own_sum = |name: &str| layers.get(name).map_or(0.0, |l| l.own.iter().sum::<f64>());
        // Structure-level layers: seconds per pass (all structures);
        // per-product layers: microseconds per call.
        let per_pass_s = |name: &str| sum(name) / 1e9 / passes;
        let traced_med = median(&tally.traced);
        let plain_med = median(&tally.plain);
        out.per_layer = crate::zero_layers();
        crate::set_layers(
            &mut out.per_layer,
            &[
                ("served.digest_us", mean("served.digest") / 1e3),
                ("serve.key_us", mean("serve.key") / 1e3),
                ("core.exec.linked_us", mean("lifecycle.request") / 1e3),
                (
                    "core.exec.packed_us",
                    sum("core.exec.packed") / 1e3 / products.max(1) as f64,
                ),
                ("matrix.reference_us", mean("matrix.reference") / 1e3),
                ("core.compile_s", per_pass_s("compile")),
                ("model.compress_s", per_pass_s("compress")),
                ("model.link_s", per_pass_s("link")),
                ("serve.disk.save_s", per_pass_s("serve.disk.save")),
                ("serve.disk.load_s", per_pass_s("serve.disk.load")),
                ("serve.disk.read_s", per_pass_s("serve.disk.read")),
                ("model.binser.decode_s", per_pass_s("binser.decode")),
                ("check.lint_s", per_pass_s("check.lint")),
                ("core.triangles", per_pass(|p| p.triangles)),
                ("model.linked.slots", per_pass(|p| p.slots)),
                (
                    "core.compile.rounds_distinct",
                    max_distinct(&tally.rounds_seen),
                ),
                (
                    "serve.disk.plan_bytes_distinct",
                    max_distinct(&tally.bytes_seen),
                ),
                (
                    "trace.overhead_share",
                    traced_med / plain_med.max(1e-9) - 1.0,
                ),
                (
                    "trace.unattributed_share",
                    own_sum("lifecycle.request") / sum("lifecycle.request").max(1e-9),
                ),
                ("self.load_us", mean_own(&layers, "load")),
                ("self.run_us", mean_own(&layers, "run")),
                ("self.verify_us", mean_own(&layers, "verify")),
            ],
        );
    }
    Ok(out)
}

/// Most distinct values seen for any one structure.
fn max_distinct<V>(seen: &BTreeMap<&'static str, BTreeSet<V>>) -> f64 {
    seen.values().map(BTreeSet::len).max().unwrap_or(0) as f64
}

fn mean_own(layers: &BTreeMap<&'static str, crate::spans::Layer>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| {
        l.own.iter().sum::<f64>() / l.own.len().max(1) as f64 / 1e3
    })
}
