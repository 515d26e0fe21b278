//! `serve-warm` and `serve-churn`: closed-loop traffic from one
//! generator process against the real `served` daemon over TCP.
//!
//! Set-up (repeated, reported as `setup_s`): build the seeded
//! catalog and its expected digests, start the daemon, and warm it with
//! every structure × value variant. The measured phase then runs, in
//! windows, one persistent connection per generator thread, each a
//! closed loop of zipf-distributed requests whose digests are all
//! checked; more set-up repetitions run between the windows.
//!
//! With `--trace 1` half the time budget drives the daemon as above and
//! the other half replays the same request sequence in process, through
//! the daemon's own layers (wire decode, `Supervisor`, digest, encode)
//! under the span log; the cache counters come from the daemon's `Stats`
//! frame.

use crate::spans::SpanLog;
use crate::util::{
    disk_layers, median, nproc, operands, peak_rss_mb, print_samples_ms, quantile_sorted, secs,
    setup_figure, Metric, Outcome,
};
use lowband_bench::{block_workload, mixed_workload, scattered_workload};
use lowband_core::{compile_plan_traced, run_plan_batch, Algorithm, BatchMode, Instance};
use lowband_matrix::{reference_multiply, Fp, SparseMatrix};
use lowband_model::Tracer;
use lowband_serve::{
    encode_plan, run_batch, PlanStore, ScheduleCache, StructureKey, Supervisor, SupervisorConfig,
};
use lowband_served::{
    expected_digest, product_digest, Client, ExecuteRequest, Request, Response, ServerConfig,
};
use lowband_trace::{Json, MetricsRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const ALGORITHM: Algorithm = Algorithm::BoundedTriangles;
const COMPRESS: bool = false;
/// Value-seed variants per structure (all digests precomputed).
const VARIANTS: usize = 8;
/// `serve-warm` set-up repetitions per block behind `setup_s` and
/// `cold_s`: one block before the measured phase and one after each of
/// its windows. A `serve-churn` set-up takes ~1 s, so it runs one per block.
const SETUP_BLOCK: usize = 3;
/// Daemon restarts behind `restart_s`.
const RESTARTS: usize = 7;
/// `serve-churn` daemon cache capacity: two thirds of its 24-structure
/// catalog, so the tail keeps evicting and reloading from disk.
const CHURN_CACHE: usize = 16;
const ZIPF_S: f64 = 1.1;
/// Client-side guard against a hung daemon.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One catalog structure with its prebuilt requests and expected
/// digests, one per value variant.
struct Entry {
    name: String,
    inst: Instance,
    seeds: Vec<u64>,
    requests: Vec<Request>,
    expected: Vec<u64>,
}

/// Seed of the catalog's structures (`loadgen`'s default): structures are
/// part of the workload's definition, so every run seed does the same
/// work; the run seed draws the value seeds and the request streams.
const STRUCTURE_SEED: u64 = 0x10AD;

/// The 12-structure `loadgen` head (n = 16–48), followed for
/// `serve-churn` by mid-size block/mixed/scattered structures
/// (n = 64–256) that do not fit the daemon cache.
fn catalog(churn: bool) -> Vec<(String, Instance)> {
    let seed = STRUCTURE_SEED;
    let mut shapes: Vec<(String, Instance)> = vec![
        ("scattered-32a".into(), scattered_workload(32, 3, seed)),
        (
            "scattered-32b".into(),
            scattered_workload(32, 3, seed ^ 0xA1),
        ),
        (
            "scattered-24a".into(),
            scattered_workload(24, 3, seed ^ 0xB2),
        ),
        (
            "scattered-24b".into(),
            scattered_workload(24, 3, seed ^ 0xC3),
        ),
        (
            "scattered-40".into(),
            scattered_workload(40, 4, seed ^ 0xD4),
        ),
        ("block-6x4".into(), block_workload(6, 4)),
        ("block-8x4".into(), block_workload(8, 4)),
        ("block-5x5".into(), block_workload(5, 5)),
        ("mixed-6x4a".into(), mixed_workload(6, 4, seed ^ 0xE5)),
        ("mixed-6x4b".into(), mixed_workload(6, 4, seed ^ 0xF6)),
        ("mixed-8x4".into(), mixed_workload(8, 4, seed ^ 0x17)),
        (
            "scattered-16".into(),
            scattered_workload(16, 2, seed ^ 0x28),
        ),
    ];
    if churn {
        for (i, blocks) in [8usize, 10, 12, 16].into_iter().enumerate() {
            let s = seed ^ (0x7A11 + i as u64);
            shapes.push((format!("mixed-{blocks}x8"), mixed_workload(blocks, 8, s)));
        }
        for blocks in [8usize, 12, 16, 24] {
            shapes.push((format!("block-{blocks}x8"), block_workload(blocks, 8)));
        }
        for (i, n) in [96usize, 128, 192, 256].into_iter().enumerate() {
            let s = seed ^ (0x5CA7 + i as u64);
            shapes.push((format!("scattered-{n}"), scattered_workload(n, 6, s)));
        }
    }
    shapes
}

fn entries(seed: u64, churn: bool) -> Vec<Entry> {
    catalog(churn)
        .into_iter()
        .enumerate()
        .map(|(idx, (name, inst))| {
            let seeds: Vec<u64> = (0..VARIANTS as u64)
                .map(|v| seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (v << 40))
                .collect();
            let expected = seeds
                .iter()
                .map(|&s| expected_digest::<Fp>(&inst, s))
                .collect();
            let requests = seeds
                .iter()
                .map(|&s| {
                    Request::Execute(Box::new(ExecuteRequest::clean(
                        &inst, ALGORITHM, COMPRESS, s,
                    )))
                })
                .collect();
            Entry {
                name,
                inst,
                seeds,
                requests,
                expected,
            }
        })
        .collect()
}

/// Zipf(s) sampler over catalog ranks.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    Ok(Client::from_stream(stream))
}

/// A `served` child process. Dropping it kills and reaps the process if
/// it is still running.
struct Daemon {
    child: Option<Child>,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(
        served: &Path,
        cache: Option<usize>,
        store: Option<&Path>,
        results: &Path,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(served);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &nproc().to_string()]);
        if let Some(c) = cache {
            cmd.args(["--cache", &c.to_string()]);
        }
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir);
        }
        // The daemon's shutdown snapshot lands in the run's output dir.
        cmd.env("LOWBAND_RESULTS_DIR", results)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("start {}: {e}", served.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            drain: None,
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        // Keep reading so the daemon never blocks on a full pipe.
        daemon.drain = Some(std::thread::spawn(move || for _ in reader.lines() {}));
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn stats(&self) -> Result<Json, String> {
        match connect(&self.addr)?.roundtrip(&Request::Stats) {
            Ok(Some(Response::Stats { json })) => {
                lowband_trace::json::parse(&json).map_err(|e| format!("stats JSON: {e:?}"))
            }
            other => Err(format!("stats request failed: {other:?}")),
        }
    }

    /// Graceful stop: wire shutdown, drain, reap.
    fn shutdown(mut self) -> Result<(), String> {
        let ack = connect(&self.addr)?.roundtrip(&Request::Shutdown);
        if !matches!(ack, Ok(Some(Response::ShutdownAck { .. }))) {
            return Err(format!("shutdown not acknowledged: {ack:?}"));
        }
        let mut child = self.child.take().expect("running daemon");
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        }
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }
}

#[derive(Default)]
struct Counts {
    attempted: u64,
    refused: u64,
    dropped: u64,
    wrong: u64,
}

impl Counts {
    fn failed(&self) -> u64 {
        self.refused + self.dropped + self.wrong
    }

    fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.dropped += other.dropped;
        self.wrong += other.wrong;
    }
}

/// Send one request and classify the answer; returns whether it was a
/// verified response.
fn exchange(client: &mut Client, request: &Request, expected: u64, counts: &mut Counts) -> bool {
    counts.attempted += 1;
    match client.roundtrip(request) {
        Ok(Some(Response::Ok { digest, .. })) if digest == expected => true,
        Ok(Some(Response::Ok { .. })) => {
            counts.wrong += 1;
            false
        }
        Ok(Some(_)) => {
            counts.refused += 1;
            false
        }
        Ok(None) | Err(_) => {
            counts.dropped += 1;
            false
        }
    }
}

/// A request the run cannot go on without (warm-up, first request after a
/// restart): a wrong digest is counted, and the run ends with
/// `correct: false`; a refusal or a drop is an error.
fn exchange_required(
    client: &mut Client,
    request: &Request,
    expected: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    let wrong = counts.wrong;
    if exchange(client, request, expected, counts) || counts.wrong > wrong {
        Ok(())
    } else {
        Err("refused or dropped".into())
    }
}

struct Setup {
    daemon: Daemon,
    entries: Vec<Entry>,
    store: Option<PathBuf>,
    seconds: f64,
    /// First-request latency of each structure (daemon compile).
    cold: Vec<f64>,
}

fn setup_once(
    served: &Path,
    churn: bool,
    seed: u64,
    out_dir: &Path,
    rep: usize,
    counts: &mut Counts,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let entries = entries(seed, churn);
    let store = churn.then(|| out_dir.join(format!("store-{}-{rep}", std::process::id())));
    if let Some(dir) = &store {
        std::fs::remove_dir_all(dir).ok();
    }
    let daemon = Daemon::spawn(
        served,
        churn.then_some(CHURN_CACHE),
        store.as_deref(),
        out_dir,
    )?;
    let mut client = connect(&daemon.addr)?;
    let mut cold = vec![0.0; entries.len()];
    // Tail first, so the head is what the cache holds when traffic
    // starts.
    for (idx, e) in entries.iter().enumerate().rev() {
        for (v, request) in e.requests.iter().enumerate() {
            let t = Instant::now();
            exchange_required(&mut client, request, e.expected[v], counts)
                .map_err(|err| format!("warm-up request for {}: {err}", e.name))?;
            if v == 0 {
                cold[idx] = secs(t.elapsed());
            }
        }
    }
    drop(client);
    Ok(Setup {
        daemon,
        entries,
        store,
        seconds: secs(t0.elapsed()),
        cold,
    })
}

/// Every set-up repetition's time and per-structure first-request
/// latencies.
#[derive(Default)]
struct SetupSamples {
    times: Vec<f64>,
    colds: Vec<Vec<f64>>,
}

fn setup_reps(churn: bool) -> usize {
    if churn {
        1
    } else {
        SETUP_BLOCK
    }
}

/// One block of set-up repetitions, each recorded in `samples`; returns
/// the last one, still running, and stops the others.
fn setup_block(
    served: &Path,
    churn: bool,
    seed: u64,
    out_dir: &Path,
    counts: &mut Counts,
    samples: &mut SetupSamples,
) -> Result<Setup, String> {
    let mut live: Option<Setup> = None;
    for _ in 0..setup_reps(churn) {
        if let Some(prev) = live.take() {
            prev.stop()?;
        }
        let s = setup_once(served, churn, seed, out_dir, samples.times.len(), counts)?;
        samples.times.push(s.seconds);
        samples.colds.push(s.cold.clone());
        live = Some(s);
    }
    Ok(live.expect("at least one set-up repetition"))
}

impl Setup {
    /// Shut the daemon down and remove its store.
    fn stop(self) -> Result<(), String> {
        let stopped = self.daemon.shutdown();
        if let Some(dir) = &self.store {
            std::fs::remove_dir_all(dir).ok();
        }
        stopped
    }
}

/// Start a daemon, time its first verified response, stop it.
fn restart(
    served: &Path,
    churn: bool,
    store: Option<&Path>,
    out_dir: &Path,
    entry: &Entry,
    counts: &mut Counts,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(served, churn.then_some(CHURN_CACHE), store, out_dir)?;
    let answered = exchange_required(
        &mut connect(&daemon.addr)?,
        &entry.requests[0],
        entry.expected[0],
        counts,
    );
    let took = secs(t0.elapsed());
    daemon.shutdown()?;
    answered.map_err(|err| format!("first request after restart for {}: {err}", entry.name))?;
    Ok(took)
}

/// Closed-loop traffic: per connection, zipf-drawn (structure, variant)
/// pairs, each response's digest checked.
#[derive(Default)]
struct Traffic {
    counts: Counts,
    /// Latency (ns) of every verified response.
    latencies: Vec<f64>,
    sequence: Vec<(usize, usize)>,
    /// Wall time from the first request to the last response, s.
    elapsed: f64,
}

impl Traffic {
    /// (verified responses per second, p50 ns, p99 ns).
    fn figures(&self) -> (f64, f64, f64) {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        (
            sorted.len() as f64 / self.elapsed.max(1e-9),
            quantile_sorted(&sorted, 0.5),
            quantile_sorted(&sorted, 0.99),
        )
    }

    fn absorb(&mut self, other: Traffic) {
        self.counts.add(&other.counts);
        self.latencies.extend(other.latencies);
        self.sequence.extend(other.sequence);
        self.elapsed += other.elapsed;
    }
}

/// The measured phase is cut into this many windows of closed-loop
/// traffic, with a set-up block between them. Rate and latency
/// percentiles are taken per window and reported as the median over
/// windows, so one slow stretch of a run does not move its figures.
const WINDOWS: usize = 5;

/// One window of closed-loop traffic; `stream` seeds the request draws.
fn closed_loop(
    addr: &str,
    entries: &[Entry],
    stream: u64,
    seconds: f64,
) -> Result<Traffic, String> {
    let zipf = Zipf::new(entries.len(), ZIPF_S);
    let connections = nproc().min(2);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Traffic, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let zipf = &zipf;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(stream ^ ((c as u64 + 1) << 32));
                    let mut client = connect(addr)?;
                    let mut t = Traffic::default();
                    let mut dropped = 0;
                    while Instant::now() < deadline {
                        let idx = zipf.sample(&mut rng);
                        let v = rng.gen_range(0..VARIANTS);
                        let e = &entries[idx];
                        let t0 = Instant::now();
                        let ok =
                            exchange(&mut client, &e.requests[v], e.expected[v], &mut t.counts);
                        let ns = t0.elapsed().as_nanos() as f64;
                        t.sequence.push((idx, v));
                        if ok {
                            t.latencies.push(ns);
                        } else if t.counts.dropped > dropped {
                            // The daemon closed the connection; reconnect.
                            dropped = t.counts.dropped;
                            client = connect(addr)?;
                        }
                    }
                    Ok(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut all = Traffic::default();
    for r in results {
        all.absorb(r?);
    }
    all.elapsed = secs(started.elapsed());
    Ok(all)
}

/// Catalog-wide figures from one in-process compile of every
/// structure: executed rounds and messages, persisted plan bytes,
/// triangles and linked slots; on `serve-churn` also the disk layers,
/// each called on its own.
#[derive(Default)]
struct Reference {
    rounds: f64,
    messages: f64,
    plan_bytes: f64,
    triangles: f64,
    slots: f64,
    wrong: u64,
}

fn reference_pass(
    entries: &[Entry],
    disk: Option<&PlanStore>,
    mut log: Option<&mut SpanLog>,
) -> Result<Reference, String> {
    let mut r = Reference::default();
    for e in entries {
        let plan = with_tracer!(log, |t| compile_plan_traced(
            &e.inst, ALGORITHM, COMPRESS, t
        ))
        .map_err(|err| format!("{}: compile failed: {err}", e.name))?;
        let report = run_plan_batch::<Fp>(&e.inst, &plan, &e.seeds[..1], BatchMode::Sequential)
            .map_err(|err| format!("{}: execution failed: {err}", e.name))?;
        r.wrong += report.iter().filter(|x| !x.correct).count() as u64;
        r.rounds += report[0].rounds as f64;
        r.messages += report[0].messages as f64;
        let key = StructureKey::of(&e.inst, ALGORITHM, COMPRESS);
        r.plan_bytes += encode_plan(key.as_u128(), &plan).len() as f64;
        r.triangles += plan.triangles as f64;
        r.slots += plan.linked.total_slots() as f64;
        if let (Some(store), Some(log)) = (disk, log.as_deref_mut()) {
            log.span("serve.disk.save", |_| store.save(key, &plan))
                .map_err(|err| format!("{}: save failed: {err}", e.name))?;
            log.span("serve.disk.load", |_| store.load(key))
                .map_err(|err| format!("{}: load failed: {err}", e.name))?;
            let clean = disk_layers(log, store, key).map_err(|err| format!("{}: {err}", e.name))?;
            r.wrong += u64::from(!clean);
        }
    }
    Ok(r)
}

/// Per-request timings of the in-process replay.
#[derive(Default)]
struct Replay {
    counts: Counts,
    plain: Vec<f64>,
    traced: Vec<f64>,
    encode: Vec<f64>,
    key: Vec<f64>,
    linked: Vec<f64>,
    reference: Vec<f64>,
}

/// Replay `sequence` in process through the daemon's request path,
/// alternating traced (span log) and untraced requests, until `seconds`
/// is spent.
fn replay(
    entries: &[Entry],
    sequence: &[(usize, usize)],
    config: SupervisorConfig,
    seconds: f64,
    log: &mut SpanLog,
) -> Result<Replay, String> {
    let mut sup = Supervisor::new(config);
    let mut cache = ScheduleCache::new(entries.len());
    let mut metrics = MetricsRegistry::default();
    let mut out = Replay::default();
    for e in entries {
        let warm = serve_one(&e.requests[0].encode(), &mut sup, &mut metrics, false)
            .ok_or_else(|| format!("{}: in-process warm-up request refused", e.name))?;
        out.counts.attempted += 1;
        out.counts.wrong += u64::from(warm != e.expected[0]);
        let reports = run_batch::<Fp>(
            &mut cache,
            &e.inst,
            ALGORITHM,
            &e.seeds[..1],
            COMPRESS,
            BatchMode::Sequential,
        )
        .map_err(|err| format!("{}: warm batch failed: {err}", e.name))?;
        out.counts.attempted += 1;
        out.counts.wrong += reports.iter().filter(|r| !r.correct).count() as u64;
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (i, &(idx, v)) in sequence.iter().cycle().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let e = &entries[idx];
        let seed = e.seeds[v];
        let traced = i % 2 == 0;

        let t = Instant::now();
        let bytes = e.requests[v].encode();
        out.encode.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(StructureKey::of(&e.inst, ALGORITHM, COMPRESS));
        out.key.push(t.elapsed().as_nanos() as f64);

        // The daemon's request path (`serve_connection` → `execute`).
        let t = Instant::now();
        let digest = if traced {
            log.set_request(i as u64);
            let mut pair = (&mut metrics, &mut *log);
            pair.span_enter("served.request");
            let d = serve_one(&bytes, &mut sup, &mut pair, true);
            pair.span_exit("served.request");
            d
        } else {
            serve_one(&bytes, &mut sup, &mut metrics, false)
        };
        let ns = t.elapsed().as_nanos() as f64;
        out.counts.attempted += 1;
        match digest {
            Some(d) if d == e.expected[v] => {}
            Some(_) => out.counts.wrong += 1,
            None => out.counts.refused += 1,
        }
        if traced {
            out.traced.push(ns);
        } else {
            out.plain.push(ns);
        }

        let t = Instant::now();
        let reports = run_batch::<Fp>(
            &mut cache,
            &e.inst,
            ALGORITHM,
            &[seed],
            COMPRESS,
            BatchMode::Sequential,
        )
        .map_err(|err| format!("{}: batch failed: {err}", e.name))?;
        out.linked.push(t.elapsed().as_nanos() as f64);
        out.counts.attempted += 1;
        out.counts.wrong += reports.iter().filter(|r| !r.correct).count() as u64;

        let (a, b) = operands(&e.inst, seed);
        let t = Instant::now();
        let want = reference_multiply(&a, &b, &e.inst.xhat);
        out.reference.push(t.elapsed().as_nanos() as f64);
        out.counts.attempted += 1;
        out.counts.wrong += u64::from(product_digest(&want) != e.expected[v]);
    }
    Ok(out)
}

/// One request through the daemon's layers: decode + instance, the
/// supervised execution, the digest and the response encode — the
/// daemon's `serve_connection` → `execute` path minus the socket. With
/// `spans`, each layer is also a span on `tracer`.
fn serve_one<T: Tracer>(
    bytes: &[u8],
    sup: &mut Supervisor,
    tracer: &mut T,
    spans: bool,
) -> Option<u64> {
    let layer = |tracer: &mut T, name: &'static str, enter: bool| {
        if spans {
            if enter {
                tracer.span_enter(name);
            } else {
                tracer.span_exit(name);
            }
        }
    };
    layer(tracer, "served.decode", true);
    let decoded = Request::decode(bytes);
    let Ok(Request::Execute(req)) = decoded else {
        layer(tracer, "served.decode", false);
        return None;
    };
    let inst = req.instance();
    let spec = req.fault_spec();
    let mut x: SparseMatrix<Fp> = SparseMatrix::zeros(inst.xhat.clone());
    layer(tracer, "served.decode", false);
    layer(tracer, "serve.supervise", true);
    let outcome = sup.run_supervised_traced::<Fp, _>(
        &inst,
        req.algorithm,
        req.seed,
        req.compress,
        &spec,
        Some(&mut x),
        tracer,
    );
    layer(tracer, "serve.supervise", false);
    let report = outcome.result.ok()?;
    layer(tracer, "served.digest", true);
    let digest = product_digest(&x);
    layer(tracer, "served.digest", false);
    layer(tracer, "served.encode", true);
    let response = Response::Ok {
        digest,
        rung: report.rung,
        descents: outcome.descents as u32,
        quarantined: outcome.quarantined,
        nanos: 0,
    }
    .encode();
    std::hint::black_box(response);
    layer(tracer, "served.encode", false);
    Some(digest)
}

fn cache_delta(before: &Json, after: &Json, field: &str) -> f64 {
    let get = |j: &Json| {
        j.get("cache")
            .and_then(|c| c.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    get(after) - get(before)
}

pub fn run(
    served: &Path,
    churn: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    if !served.is_file() {
        return Err(format!("daemon binary {} not found", served.display()));
    }
    // Set-up, repeated in blocks: each repetition starts a fresh daemon
    // (and, on serve-churn, a fresh store). The first block's last
    // repetition serves the traffic; the other blocks run between the
    // traffic windows, so `setup_s` samples the whole run.
    let mut counts = Counts::default();
    let mut samples = SetupSamples::default();
    let live = setup_block(served, churn, seed, out_dir, &mut counts, &mut samples)?;
    println!(
        "# catalog: {} structures, n = {}..{}, daemon cache {}",
        live.entries.len(),
        live.entries.iter().map(|e| e.inst.n).min().unwrap_or(0),
        live.entries.iter().map(|e| e.inst.n).max().unwrap_or(0),
        if churn {
            CHURN_CACHE.to_string()
        } else {
            "default".into()
        }
    );

    let loop_seconds = if traced { seconds / 2.0 } else { seconds };
    let before = live.daemon.stats()?;
    let mut traffic = Traffic::default();
    let mut windows = Vec::new();
    for w in 0..WINDOWS {
        let stream = seed ^ ((w as u64 + 1) << 56);
        let t = closed_loop(
            &live.daemon.addr,
            &live.entries,
            stream,
            loop_seconds / WINDOWS as f64,
        )?;
        windows.push(t.figures());
        traffic.absorb(t);
        setup_block(served, churn, seed, out_dir, &mut counts, &mut samples)?.stop()?;
    }
    let after = live.daemon.stats()?;
    let rss = peak_rss_mb(live.daemon.pid()).unwrap_or(0.0);
    let Setup {
        daemon,
        entries,
        store,
        ..
    } = live;
    daemon.shutdown()?;

    let setup_s = setup_figure(&samples.times, setup_reps(churn));
    print_samples_ms("setup_s", &samples.times);
    // Per structure, the median over set-ups; summed over the catalog.
    let mut cold_s = 0.0;
    for (idx, e) in entries.iter().enumerate() {
        let cold = median(&samples.colds.iter().map(|c| c[idx]).collect::<Vec<_>>());
        println!(
            "# cold {:<14} n={:<4} {:.2} ms",
            e.name,
            e.inst.n,
            cold * 1e3
        );
        cold_s += cold;
    }

    // Restarts on the same store: process start to the first verified
    // response for the most popular structure (on serve-churn a disk hit,
    // on serve-warm a compile).
    let restarts = (0..RESTARTS)
        .map(|_| {
            restart(
                served,
                churn,
                store.as_deref(),
                out_dir,
                &entries[0],
                &mut counts,
            )
        })
        .collect::<Result<Vec<f64>, String>>();
    if let Some(dir) = &store {
        std::fs::remove_dir_all(dir).ok();
    }
    let restart_s = median(&restarts?);
    counts.add(&traffic.counts);
    let mut latencies = traffic.latencies.clone();
    latencies.sort_by(f64::total_cmp);
    let over = |f: fn(&(f64, f64, f64)) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let (rate, p50, p99) = (over(|w| w.0), over(|w| w.1), over(|w| w.2));
    let q = |p: f64| quantile_sorted(&latencies, p) / 1e6;
    println!(
        "# closed loop: {} verified of {} over {} connection(s); per {:.1} s window (median of {WINDOWS}): {rate:.1} req/s, p50 {:.3} ms, p99 {:.3} ms",
        latencies.len(),
        traffic.counts.attempted,
        nproc().min(2),
        loop_seconds / WINDOWS as f64,
        p50 / 1e6,
        p99 / 1e6
    );
    println!(
        "# whole phase latency ms: p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3} (n = {})",
        q(0.10), q(0.25), q(0.5), q(0.75), q(0.9), q(0.99), q(0.999), latencies.len()
    );

    let mut log = traced.then(SpanLog::new);
    let disk_root = out_dir.join(format!("refstore-{}", std::process::id()));
    let disk = if churn && traced {
        Some(PlanStore::open(&disk_root).map_err(|e| format!("open plan store: {e}"))?)
    } else {
        None
    };
    let reference = reference_pass(&entries, disk.as_ref(), log.as_mut());
    std::fs::remove_dir_all(&disk_root).ok();
    let reference = reference?;
    counts.attempted += entries.len() as u64;
    counts.wrong += reference.wrong;

    let tcp_p50 = quantile_sorted(&latencies, 0.5);
    let mut per_layer = Vec::new();
    if let Some(mut log) = log {
        // The daemon's own supervisor configuration, as `served` sets it.
        let mut config = ServerConfig::default().supervisor;
        let replay_store = out_dir.join(format!("replaystore-{}", std::process::id()));
        if churn {
            config.cache_capacity = CHURN_CACHE;
            config.store_root = Some(replay_store.clone());
        }
        let r = replay(&entries, &traffic.sequence, config, seconds / 2.0, &mut log);
        std::fs::remove_dir_all(&replay_store).ok();
        let r = r?;
        counts.add(&r.counts);
        println!(
            "# in-process replay: {} request(s)",
            r.plain.len() + r.traced.len()
        );
        let path = out_dir.join(format!(
            "trace-{}.json",
            if churn { "serve-churn" } else { "serve-warm" }
        ));
        log.write_chrome(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
        let layers = log.layers();
        crate::print_self_times(&layers);
        let med = |name: &str| layers.get(name).map_or(0.0, |l| median(&l.total));
        let own_med = |name: &str| layers.get(name).map_or(0.0, |l| median(&l.own));
        let sum = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.total.iter().sum::<f64>())
        };
        let own_sum = |name: &str| layers.get(name).map_or(0.0, |l| l.own.iter().sum::<f64>());
        let hits = cache_delta(&before, &after, "hits");
        let misses = cache_delta(&before, &after, "misses");
        let plain_med = median(&r.plain);
        per_layer = crate::zero_layers();
        crate::set_layers(
            &mut per_layer,
            &[
                (
                    "served.wire_us",
                    (median(&r.encode) + med("served.decode") + med("served.encode")) / 1e3,
                ),
                ("served.transport_us", (tcp_p50 - plain_med) / 1e3),
                ("served.digest_us", med("served.digest") / 1e3),
                ("serve.key_us", median(&r.key) / 1e3),
                ("serve.supervise_us", med("serve.supervise") / 1e3),
                ("core.exec.linked_us", median(&r.linked) / 1e3),
                ("matrix.reference_us", median(&r.reference) / 1e3),
                ("core.compile_s", sum("compile") / 1e9),
                ("model.compress_s", sum("compress") / 1e9),
                ("model.link_s", sum("link") / 1e9),
                ("serve.disk.save_s", sum("serve.disk.save") / 1e9),
                ("serve.disk.load_s", sum("serve.disk.load") / 1e9),
                ("serve.disk.read_s", sum("serve.disk.read") / 1e9),
                ("model.binser.decode_s", sum("binser.decode") / 1e9),
                ("check.lint_s", sum("check.lint") / 1e9),
                ("serve.cache.hit_rate", hits / (hits + misses).max(1.0)),
                (
                    "serve.cache.compiles",
                    cache_delta(&before, &after, "compiles"),
                ),
                (
                    "serve.cache.disk_hits",
                    cache_delta(&before, &after, "disk_hits"),
                ),
                (
                    "serve.cache.evictions",
                    cache_delta(&before, &after, "evictions"),
                ),
                (
                    "serve.cache.disk_rejects",
                    cache_delta(&before, &after, "disk_rejects"),
                ),
                ("core.triangles", reference.triangles),
                ("model.linked.slots", reference.slots),
                (
                    "trace.overhead_share",
                    median(&r.traced) / plain_med.max(1e-9) - 1.0,
                ),
                (
                    "trace.unattributed_share",
                    own_sum("served.request") / sum("served.request").max(1e-9),
                ),
                ("self.supervise_us", own_med("serve.supervise") / 1e3),
                ("self.load_us", own_med("load") / 1e3),
                ("self.run_us", own_med("run") / 1e3),
                ("self.verify_us", own_med("verify") / 1e3),
            ],
        );
    }
    Ok(Outcome {
        correct: counts.wrong == 0,
        attempted: counts.attempted,
        failed: counts.failed(),
        end_to_end: vec![
            Metric::new("req_per_s", rate, "req/s"),
            Metric::new("p50_ms", p50 / 1e6, "ms"),
            Metric::new("p99_ms", p99 / 1e6, "ms"),
            Metric::new(
                "ok_share",
                Outcome::ok_share(counts.attempted, counts.failed()),
                "share",
            ),
            Metric::new("cold_s", cold_s, "s"),
            Metric::new("restart_s", restart_s, "s"),
            Metric::new("products_per_s", rate, "1/s"),
            Metric::new("rounds", reference.rounds, "count"),
            Metric::new("messages", reference.messages, "count"),
            Metric::new("plan_mb", reference.plan_bytes / 1e6, "MB"),
            Metric::new("rss_peak_mb", rss, "MB"),
            Metric::new("setup_s", setup_s, "s"),
        ],
        per_layer,
    })
}
