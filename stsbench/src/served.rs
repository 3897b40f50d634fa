//! Workloads `serve_grid2d` and `serve_churn`: `Client` connections over
//! loopback TCP to an in-process `sts_serve::serve` daemon (unpinned pool of
//! `nproc` workers, as deployed) holding the 2-D 200×200 Laplacian.
//!
//! * `serve_grid2d`: one connection, a closed loop of `solve` requests where
//!   every 10th request is a `submit_values` with perturbed values.
//! * `serve_churn`: connection A streams warm `solve` requests while
//!   connection B, from a second thread, keeps submitting new irregular
//!   patterns (pattern, values, one solve), filling the cache past its
//!   capacity.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use sts_krylov::KrylovWorkspace;
use sts_matrix::{generators, CsrMatrix};
use sts_numa::affinity;
use sts_serve::{serve, Client, ServiceConfig, SolverService};
use sts_trace::SpanRecorder;

use crate::check::{check_bitwise, check_solution, Tally};
use crate::inproc::{analyse, ladder, pcg_on, traced_loop, Solver, ROWS_PER_SUPER_ROW};
use crate::inputs::{churn_case, perturb_diagonal, stream, Rng};
use crate::layers;
use crate::spans::{BenchSpan, Tracer};
use crate::stats::{median, percentile};
use crate::{Config, Run};

/// Grid side of the warm pattern: n = 40,000.
const SIDE: usize = 200;
/// Every this many requests on the `serve_grid2d` stream is a refactor.
const REFACTOR_EVERY: u64 = 10;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Daemons that serve a share of the timed loop on `serve_grid2d`.
const GRID_SEGMENTS: usize = 5;
/// Daemons that serve a share of the timed loop on `serve_churn`: one, so
/// that B's patterns fill its cache past capacity.
const CHURN_SEGMENTS: usize = 1;
/// Every this many served solves, the same right-hand side is also solved
/// in process on one worker.
const ONE_WORKER_EVERY: usize = 4;
/// Patterns whose ordering, analysis and factor the traced run probes: B's
/// first patterns on `serve_churn`, the warm pattern again elsewhere.
const COLD_PROBES: u64 = 3;

/// A daemon on an ephemeral loopback port, serving from its own thread.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<u64>>,
    /// The service's per-request metrics lines, when collected.
    log: Arc<Mutex<Vec<String>>>,
}

impl Daemon {
    fn start(threads: usize, collect_metrics: bool) -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let mut service = SolverService::new(ServiceConfig {
            threads,
            ..ServiceConfig::default()
        });
        let log = Arc::new(Mutex::new(Vec::new()));
        if collect_metrics {
            let sink = Arc::clone(&log);
            service.set_metrics_sink(Box::new(move |line: &str| {
                if let Ok(mut lines) = sink.lock() {
                    lines.push(line.to_string());
                }
            }));
        }
        let service = Arc::new(Mutex::new(service));
        let thread = thread::spawn(move || serve(listener, service));
        Ok(Daemon { addr, thread, log })
    }

    /// Shuts the daemon down through `client` (its last open connection)
    /// and waits for every daemon thread.
    fn stop(self, mut client: Client) -> Result<(), String> {
        let stopped = client.shutdown().map_err(|e| e.to_string());
        drop(client);
        let joined = match self.thread.join() {
            Ok(result) => result.map(|_| ()).map_err(|e| e.to_string()),
            Err(_) => Err("daemon thread panicked".to_string()),
        };
        stopped.and(joined)
    }

    /// Median handle time, ns, of the logged requests of `op` (on `pattern`
    /// when given).
    fn handle_ns(&self, op: &str, pattern: Option<&str>) -> f64 {
        let lines = self.log.lock().map(|l| l.clone()).unwrap_or_default();
        let samples: Vec<f64> = lines
            .iter()
            .filter_map(|line| serde_json::from_str(line).ok())
            .filter(|v| v.get("op").and_then(|o| o.as_str()) == Some(op))
            .filter(|v| pattern.is_none() || v.get("pattern").and_then(|p| p.as_str()) == pattern)
            .filter_map(|v| v.get("wall_ns").and_then(|w| w.as_f64()))
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    }
}

/// A daemon holding `a`, and the connection that loaded it.
struct Loaded {
    daemon: Daemon,
    client: Client,
    key: String,
    first_x: Vec<f64>,
    ns: u64,
}

/// Time from generated inputs to the first served solution: daemon start,
/// connect, `submit_pattern`, `submit_values`, first `solve`.
fn load(a: &CsrMatrix, b: &[f64], threads: usize, collect_metrics: bool) -> Result<Loaded, String> {
    let start = Instant::now();
    let daemon = Daemon::start(threads, collect_metrics)?;
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let key = client
        .submit_pattern(a, "STS-3", ROWS_PER_SUPER_ROW)
        .map_err(|e| e.to_string())?;
    client
        .submit_values(&key, a.values())
        .map_err(|e| e.to_string())?;
    let first = client.solve(&key, b).map_err(|e| e.to_string())?;
    let ns = start.elapsed().as_nanos() as u64;
    check_solution(a, b, &first.x, first.converged)?;
    Ok(Loaded {
        daemon,
        client,
        key,
        first_x: first.x,
        ns,
    })
}

/// What one stretch of the warm request stream measured.
#[derive(Default)]
struct Stream {
    solve_ns: Vec<f64>,
    refactor_ns: Vec<f64>,
    /// Interleaved in-process 1-worker solves.
    one_ns: Vec<f64>,
    requests: u64,
}

impl Stream {
    fn append(&mut self, mut other: Stream) {
        self.solve_ns.append(&mut other.solve_ns);
        self.refactor_ns.append(&mut other.refactor_ns);
        self.one_ns.append(&mut other.one_ns);
        self.requests += other.requests;
    }
}

/// Connection A's closed loop until `until` (and at least `min_solves`
/// solves). With `refactor` every 10th request is a `submit_values` of
/// perturbed values; `current` tracks the values the daemon holds. With
/// `one`, every 4th solve is repeated in process on one worker (timed,
/// and compared bit for bit while the daemon still holds `a`'s values).
#[allow(clippy::too_many_arguments)]
fn stream(
    loaded: &mut Loaded,
    a: &CsrMatrix,
    current: &mut CsrMatrix,
    rhs: &mut Rng,
    values: &mut Rng,
    refactor: bool,
    mut one: Option<&mut Solver>,
    until: Instant,
    min_solves: usize,
    out: &mut Stream,
    mut spans: Option<(&Arc<SpanRecorder>, &mut Vec<BenchSpan>)>,
    tally: &mut Tally,
) {
    let n = a.nrows();
    let mut solves = 0usize;
    while Instant::now() < until || solves < min_solves {
        out.requests += 1;
        let id = out.requests;
        if refactor && id.is_multiple_of(REFACTOR_EVERY) {
            let next = match perturb_diagonal(a, values) {
                Ok(next) => next,
                Err(e) => {
                    tally.record(Err::<(), String>(e));
                    continue;
                }
            };
            let t0 = clock(&spans);
            let start = Instant::now();
            let reply = loaded.client.submit_values(&loaded.key, next.values());
            let ns = start.elapsed().as_nanos() as f64;
            record_span(&mut spans, "serve.refactor_round_trip", id, 0, t0);
            if tally.record(reply).is_some() {
                out.refactor_ns.push(ns);
                *current = next;
            }
            continue;
        }
        let b = rhs.rhs(n);
        let t0 = clock(&spans);
        let start = Instant::now();
        let reply = loaded.client.solve(&loaded.key, &b);
        let ns = start.elapsed().as_nanos() as f64;
        record_span(&mut spans, "serve.solve_round_trip", id, 0, t0);
        solves += 1;
        let checked = reply
            .map_err(|e| e.to_string())
            .and_then(|r| check_solution(current, &b, &r.x, r.converged).map(|()| r.x));
        let Some(served) = tally.record(checked) else {
            continue;
        };
        out.solve_ns.push(ns);
        if let Some(one) = one
            .as_deref_mut()
            .filter(|_| solves.is_multiple_of(ONE_WORKER_EVERY))
        {
            let pristine = out.refactor_ns.is_empty();
            let checked = one.solve(a, &b).and_then(|s| {
                if pristine {
                    check_bitwise(&served, &s.x)?;
                }
                Ok(s.ns)
            });
            if let Some(ns) = tally.record(checked) {
                out.one_ns.push(ns as f64);
            }
        }
    }
}

fn clock(spans: &Option<(&Arc<SpanRecorder>, &mut Vec<BenchSpan>)>) -> u64 {
    spans.as_ref().map_or(0, |(c, _)| c.now_ns())
}

fn record_span(
    spans: &mut Option<(&Arc<SpanRecorder>, &mut Vec<BenchSpan>)>,
    name: &'static str,
    solve: u64,
    track: u32,
    t_start_ns: u64,
) {
    if let Some((c, out)) = spans {
        out.push(BenchSpan {
            name,
            solve,
            track,
            t_start_ns,
            t_end_ns: c.now_ns(),
        });
    }
}

/// What connection B measured.
#[derive(Default)]
struct Churn {
    cold_ns: Vec<f64>,
    refactor_ns: Vec<f64>,
    results: Vec<Result<(), String>>,
    spans: Vec<BenchSpan>,
    /// The index of the next pattern B would submit.
    next_index: u64,
}

impl Churn {
    fn append(&mut self, mut other: Churn) {
        self.cold_ns.append(&mut other.cold_ns);
        self.refactor_ns.append(&mut other.refactor_ns);
        self.results.append(&mut other.results);
        self.spans.append(&mut other.spans);
        self.next_index = other.next_index;
    }
}

/// Connection B: new pattern, its values, one solve, over and over until
/// `stop`, starting at pattern `index`; never repeats a pattern.
fn churn(
    addr: SocketAddr,
    seed: u64,
    mut index: u64,
    stop: &AtomicBool,
    clock: Option<Arc<SpanRecorder>>,
) -> Churn {
    let mut out = Churn {
        next_index: index,
        ..Churn::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.results.push(Err(e.to_string()));
            return out;
        }
    };
    while !stop.load(Ordering::SeqCst) {
        let (a, b) = match churn_case(seed, index) {
            Ok(case) => case,
            Err(e) => {
                out.results.push(Err(e));
                break;
            }
        };
        let mut spans = clock.as_ref().map(|c| (c, &mut out.spans));
        let t0 = self::clock(&spans);
        let start = Instant::now();
        let key = client.submit_pattern(&a, "STS-3", ROWS_PER_SUPER_ROW);
        let key = match key {
            Ok(key) => key,
            Err(e) => {
                out.results.push(Err(e.to_string()));
                index += 1;
                continue;
            }
        };
        let values_start = Instant::now();
        let values = client
            .submit_values(&key, a.values())
            .map(|_| ())
            .map_err(|e| e.to_string());
        let values_ns = values_start.elapsed().as_nanos() as f64;
        out.results.push(Ok(()));
        out.results.push(values.clone());
        if values.is_ok() {
            let solved = client
                .solve(&key, &b)
                .map_err(|e| e.to_string())
                .and_then(|r| check_solution(&a, &b, &r.x, r.converged));
            let cold_ns = start.elapsed().as_nanos() as f64;
            record_span(&mut spans, "serve.cold_cycle", index, 1, t0);
            if solved.is_ok() {
                out.cold_ns.push(cold_ns);
                out.refactor_ns.push(values_ns);
            }
            out.results.push(solved);
        }
        index += 1;
    }
    out.next_index = index;
    out
}

/// Service-side layers of `a` on a short-lived daemon, for a workload whose
/// own loop runs in process: `submit_pattern`, `submit_values` and
/// `solves` checked `solve` round trips of seeded right-hand sides. Records
/// the `serve.*` handle, wire-wait, cache and request metrics.
pub fn service_probe(
    cfg: &Config,
    run: &mut Run,
    a: &CsrMatrix,
    solves: usize,
) -> Result<(), String> {
    let mut rhs = Rng::new(cfg.seed, stream::PROBE);
    let b0 = rhs.rhs(a.nrows());
    let mut loaded = load(a, &b0, cfg.threads, true)?;
    run.tally.record(Ok::<(), String>(()));
    let mut round_trip_ns = Vec::new();
    for _ in 0..solves {
        let b = rhs.rhs(a.nrows());
        let start = Instant::now();
        let reply = loaded.client.solve(&loaded.key, &b);
        let ns = start.elapsed().as_nanos() as f64;
        let checked = reply
            .map_err(|e| e.to_string())
            .and_then(|r| check_solution(a, &b, &r.x, r.converged));
        if run.tally.record(checked).is_some() {
            round_trip_ns.push(ns);
        }
    }
    let service = ServiceLayers::read(&mut loaded);
    loaded.daemon.stop(loaded.client)?;
    service?.put(run, median(&round_trip_ns));
    run.m.put("serve.requests", (solves + 4) as f64, "count");
    Ok(())
}

/// What a daemon's `stats` op and metrics sink say about its service-side
/// layers.
struct ServiceLayers {
    /// The `stats` reply.
    cache: serde::Value,
    /// Median handle time, ns, of solves of the loaded pattern, value
    /// submissions and pattern submissions.
    handle_ns: [f64; 3],
}

impl ServiceLayers {
    fn read(loaded: &mut Loaded) -> Result<ServiceLayers, String> {
        Ok(ServiceLayers {
            cache: loaded.client.stats().map_err(|e| e.to_string())?,
            handle_ns: [
                loaded.daemon.handle_ns("solve", Some(&loaded.key)),
                loaded.daemon.handle_ns("submit_values", None),
                loaded.daemon.handle_ns("submit_pattern", None),
            ],
        })
    }

    /// Records the cache, handle-time and wire-wait metrics, the wire wait
    /// against a solve round trip of `round_trip_ns`.
    fn put(&self, run: &mut Run, round_trip_ns: f64) {
        let stat = |k: &str| self.cache.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let lookups = stat("cache_hits") + stat("cache_misses");
        run.m.put(
            "serve.cache_hit_ratio",
            stat("cache_hits") / lookups.max(1.0),
            "ratio",
        );
        run.m
            .put("serve.evictions", stat("cache_evictions"), "count");
        for (op, ns) in ["solve", "submit_values", "submit_pattern"]
            .iter()
            .zip(self.handle_ns)
        {
            run.m.put(&format!("serve.handle_ns.{op}"), ns, "ns");
        }
        run.m.put(
            "serve.wire_wait_ns",
            round_trip_ns - self.handle_ns[0],
            "ns",
        );
    }
}

/// Runs `serve_grid2d` (`churning == false`) or `serve_churn`.
///
/// The run starts [`SETUP_REPS`] daemons one after another, each timed as a
/// set-up. The last `segments` of them each serve an equal share of the
/// timed loop (and on `serve_churn` their own connection B) before they are
/// stopped. Spreading the loop over several daemons spreads the set-ups
/// over the run and samples several placements of the daemons' unpinned
/// threads in every run.
pub fn run(cfg: &Config, run: &mut Run, churning: bool) -> Result<(), String> {
    let a = generators::grid2d_laplacian(SIDE, SIDE).map_err(|e| e.to_string())?;
    let n = a.nrows();
    let mut rhs = Rng::new(cfg.seed, stream::RHS);
    let b0 = rhs.rhs(n);

    // The warm operator in process on one worker: the baseline the served
    // round trip is compared against, and the bitwise oracle.
    let sys = analyse(&a)?;
    let pcg1 = pcg_on(1, &[]);
    let pre1 = ladder(&sys, &pcg1)?;
    let mut one = Solver {
        sys,
        pcg: pcg1,
        pre: pre1,
        ws: KrylovWorkspace::new(n),
    };
    let oracle = one.solve(&a, &b0)?.x;

    let segments = if churning {
        CHURN_SEGMENTS
    } else {
        GRID_SEGMENTS
    };
    let (measure, min_solves) = cfg.untraced_loop();
    let (traced_for, traced_min) = cfg.traced_loop();
    let clock = cfg.trace.then(|| Arc::new(SpanRecorder::new(1 << 17)));
    let mut values = Rng::new(cfg.seed, stream::VALUES);
    let mut setups = Vec::new();
    let mut untraced = Stream::default();
    let mut traced = Stream::default();
    let mut churned = Churn::default();
    let mut spans = Vec::new();
    let mut service = None;
    for k in 0..SETUP_REPS {
        let mut loaded = load(&a, &b0, cfg.threads, cfg.trace)?;
        run.tally.record(check_bitwise(&loaded.first_x, &oracle));
        setups.push(loaded.ns as f64);
        let segment = (k + segments).checked_sub(SETUP_REPS);
        let Some(segment) = segment else {
            loaded.daemon.stop(loaded.client)?;
            continue;
        };
        let last = segment + 1 == segments;

        let stop = Arc::new(AtomicBool::new(false));
        let churner = churning.then(|| {
            let (addr, seed, first, stop, clock) = (
                loaded.daemon.addr,
                cfg.seed,
                churned.next_index,
                Arc::clone(&stop),
                clock.clone(),
            );
            thread::spawn(move || churn(addr, seed, first, &stop, clock))
        });
        // Connection A runs on its own thread, pinned to the last core: a
        // pinned load generator cuts the scheduler's placement modes out of
        // the run-to-run spread, while the daemon, churn and later probe
        // threads keep the default affinity.
        let mut current = a.clone();
        let mut part = Stream::default();
        let tally = &mut run.tally;
        thread::scope(|scope| {
            scope.spawn(|| {
                affinity::pin_current_thread(cfg.threads - 1);
                stream(
                    &mut loaded,
                    &a,
                    &mut current,
                    &mut rhs,
                    &mut values,
                    !churning,
                    (!cfg.trace).then_some(&mut one),
                    Instant::now() + measure / segments as u32,
                    min_solves.div_ceil(segments),
                    &mut part,
                    None,
                    tally,
                );
                traced.requests = untraced.requests + part.requests;
                if let Some(clock) = clock.as_ref().filter(|_| last) {
                    stream(
                        &mut loaded,
                        &a,
                        &mut current,
                        &mut rhs,
                        &mut values,
                        !churning,
                        None,
                        Instant::now() + traced_for,
                        traced_min,
                        &mut traced,
                        Some((clock, &mut spans)),
                        tally,
                    );
                }
            });
        });
        untraced.append(part);
        stop.store(true, Ordering::SeqCst);
        if let Some(handle) = churner {
            churned.append(handle.join().map_err(|_| "churn thread panicked")?);
        }
        if !last {
            loaded.daemon.stop(loaded.client)?;
            continue;
        }
        let layers = ServiceLayers::read(&mut loaded);
        loaded.daemon.stop(loaded.client)?;
        service = Some(layers?);
    }
    for r in std::mem::take(&mut churned.results) {
        run.tally.record(r);
    }
    let service = service.ok_or("no daemon served the loop")?;

    if !cfg.trace {
        run.put_loop_metrics(false, &untraced.solve_ns)?;
        run.m
            .put("solve_1t_ms.p50", median(&untraced.one_ns) / 1e6, "ms");
        let (refactor_ns, cold_ns) = if churning {
            (&churned.refactor_ns, &churned.cold_ns)
        } else {
            (&untraced.refactor_ns, &setups)
        };
        if refactor_ns.is_empty() || cold_ns.is_empty() {
            return Err("no refactor or cold cycle completed".to_string());
        }
        run.m
            .put("refactor_ms.p50", median(refactor_ns) / 1e6, "ms");
        run.m.put("cold_ms.p50", median(cold_ns) / 1e6, "ms");
        run.put_setup(&setups);
        return Ok(());
    }

    // Traced run: in-situ service numbers from the daemon's metrics sink
    // and stats op, then the in-process layers on the same operators.
    let clock = clock.ok_or("traced run without a clock")?;
    run.put_loop_metrics(true, &untraced.solve_ns)?;
    let rt_p50 = percentile(&traced.solve_ns, 50.0)?;
    service.put(run, rt_p50);
    run.m.put("serve.requests", traced.requests as f64, "count");

    let tracer = run
        .tracer
        .get_or_insert_with(|| Tracer::new(Arc::clone(&clock)));
    for s in spans.into_iter().chain(churned.spans) {
        tracer.span(s.name, s.solve, s.track, s.t_start_ns, s.t_end_ns);
    }
    // The warm operator in process on the daemon's pool shape (nproc
    // unpinned workers): sts-krylov and kernel spans in situ.
    let pcg = pcg_on(cfg.threads, &[]);
    let pre = ladder(&one.sys, &pcg)?;
    let mut pooled = Solver {
        sys: one.sys,
        pcg,
        pre,
        ws: KrylovWorkspace::new(n),
    };
    clock.enable();
    pooled
        .pcg
        .solver_mut()
        .set_trace_recorder(Some(Arc::clone(&clock)));
    let mut probe_rhs = Rng::new(cfg.seed, stream::PROBE);
    let first_id = traced.requests + 1;
    let trace = traced_loop(
        &mut pooled,
        &a,
        &mut probe_rhs,
        run.tracer
            .get_or_insert_with(|| Tracer::new(Arc::clone(&clock))),
        &clock,
        Instant::now(),
        traced_min,
        first_id,
        &mut run.tally,
    );
    clock.disable();
    pooled.pcg.solver_mut().set_trace_recorder(None);

    let costs = layers::steady_layers(&mut run.m, &pooled.sys, pooled.pcg.solver(), cfg.seed)?;
    trace.put_metrics(&mut run.m, cfg.threads, &costs);
    let churn_patterns: Vec<CsrMatrix> = if churning {
        (0..COLD_PROBES)
            .map(|i| churn_case(cfg.seed, i).map(|(a, _)| a))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    let cold: Vec<&CsrMatrix> = if churning {
        churn_patterns.iter().collect()
    } else {
        vec![&a; COLD_PROBES as usize]
    };
    layers::cold_layers(&mut run.m, &cold, pooled.pcg.solver())?;
    layers::dispatch_layer(&mut run.m, cfg.threads, &[])?;
    let codec = layers::codec_layers(&mut run.m, &a, cfg.seed)?;
    // What the round trip spends outside the service's own handling and the
    // four codec steps: socket transfer, lock wait, scheduling.
    let unattributed = (rt_p50 - service.handle_ns[0] - codec.total_ns()) / rt_p50;
    run.put_bench_shares(unattributed, &untraced.solve_ns, &traced.solve_ns)?;
    Ok(())
}
