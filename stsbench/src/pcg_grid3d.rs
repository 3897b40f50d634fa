//! Workload `pcg_grid3d`: in-process IC(0)-PCG on the 3-D 7-point
//! Laplacian, a closed loop of back-to-back `Pcg::solve` calls on seeded
//! right-hand sides, on `nproc` workers pinned in compact order.

use std::sync::Arc;
use std::time::Instant;

use sts_krylov::KrylovWorkspace;
use sts_matrix::generators;
use sts_numa::{affinity, NumaTopology};
use sts_trace::SpanRecorder;

use crate::check::check_bitwise;
use crate::inproc::{ladder, pcg_on, setup, traced_loop, Solver};
use crate::inputs::{stream, Rng};
use crate::layers;
use crate::served;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Config, Run};

/// Grid side: n = 40³ = 64,000 rows, 438,400 nonzeros.
const SIDE: usize = 40;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The timed loop runs in this many equal blocks. Between blocks an
/// untraced run takes its other samples, so they see the same host
/// conditions as the loop without breaking up its back-to-back solves.
const BLOCKS: u32 = 12;
/// Per break: the last pooled right-hand sides solved again on the 1-worker
/// baseline solver.
const ONE_WORKER_PER_BREAK: usize = 4;
/// Per break: IC(0) ladder rebuilds.
const REFACTORS_PER_BREAK: usize = 3;
/// Served solves of the traced run's service probe.
const SERVICE_PROBE_SOLVES: usize = 10;
/// Per break: whole cold cycles.
const COLDS_PER_BREAK: usize = 1;

/// Runs the workload.
pub fn run(cfg: &Config, run: &mut Run) -> Result<(), String> {
    let a = generators::grid3d_laplacian(SIDE, SIDE, SIDE).map_err(|e| e.to_string())?;
    let n = a.nrows();
    let order = NumaTopology::detect_host().compact_core_order(cfg.threads);
    let mut rhs = Rng::new(cfg.seed, stream::RHS);
    let b0 = rhs.rhs(n);

    let mut setups = Vec::new();
    let mut solver = None;
    for _ in 0..SETUP_REPS {
        drop(solver.take());
        let (s, ns) = setup(&a, &b0, cfg.threads, &order)?;
        run.tally.record(Ok::<(), String>(()));
        setups.push(ns as f64);
        solver = Some(s);
    }
    let mut solver = solver.ok_or("no set-up ran")?;

    // The plain single-threaded baseline on the same system; its solutions
    // must equal the pooled ones bit for bit.
    let mut one = if cfg.trace {
        None
    } else {
        let pcg = pcg_on(1, &[]);
        let pre = ladder(&solver.sys, &pcg)?;
        Some(Solver {
            sys: solver.sys.clone(),
            pcg,
            pre,
            ws: KrylovWorkspace::new(n),
        })
    };
    // The calling thread (the load generator, and the 1-worker baseline's
    // only thread) is pinned to the last core like the pool's workers; an
    // unpinned caller lets the scheduler switch placement modes mid-run.
    affinity::pin_current_thread(cfg.threads - 1);
    let (measure, min_solves) = cfg.untraced_loop();
    let block = measure / BLOCKS;
    let (mut solve_ns, mut one_ns, mut refactor_ns, mut cold_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut recent: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for k in 1..=BLOCKS {
        let until = Instant::now() + block;
        while Instant::now() < until || (k == BLOCKS && solve_ns.len() < min_solves) {
            let b = rhs.rhs(n);
            if let Some(pooled) = run.tally.record(solver.solve(&a, &b)) {
                solve_ns.push(pooled.ns as f64);
                if one.is_some() {
                    if recent.len() == ONE_WORKER_PER_BREAK {
                        recent.remove(0);
                    }
                    recent.push((b, pooled.x));
                }
            }
        }
        let Some(one) = one.as_mut() else {
            continue;
        };
        for (b, x) in recent.drain(..) {
            let checked = one
                .solve(&a, &b)
                .and_then(|s| check_bitwise(&x, &s.x).map(|()| s.ns));
            if let Some(ns) = run.tally.record(checked) {
                one_ns.push(ns as f64);
            }
        }
        for _ in 0..REFACTORS_PER_BREAK {
            let t = Instant::now();
            if let Some(pre) = run.tally.record(ladder(&solver.sys, &solver.pcg)) {
                solver.pre = pre;
                refactor_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
        for _ in 0..COLDS_PER_BREAK {
            if let Some((_, ns)) = run.tally.record(setup(&a, &b0, cfg.threads, &order)) {
                cold_ns.push(ns as f64);
            }
        }
    }

    run.put_loop_metrics(cfg.trace, &solve_ns)?;
    if !cfg.trace {
        run.m.put("solve_1t_ms.p50", median(&one_ns) / 1e6, "ms");
        run.m
            .put("refactor_ms.p50", median(&refactor_ns) / 1e6, "ms");
        run.m.put("cold_ms.p50", median(&cold_ns) / 1e6, "ms");
        run.put_setup(&setups);
        return Ok(());
    }

    // Traced half: the same loop with the wrapper and kernel spans on.
    let recorder = Arc::new(SpanRecorder::new(1 << 17));
    recorder.enable();
    solver
        .pcg
        .solver_mut()
        .set_trace_recorder(Some(Arc::clone(&recorder)));
    let tracer = run
        .tracer
        .get_or_insert_with(|| Tracer::new(Arc::clone(&recorder)));
    let (traced_for, traced_min) = cfg.traced_loop();
    let trace = traced_loop(
        &mut solver,
        &a,
        &mut rhs,
        tracer,
        &recorder,
        Instant::now() + traced_for,
        traced_min,
        1,
        &mut run.tally,
    );
    recorder.disable();
    solver.pcg.solver_mut().set_trace_recorder(None);

    let costs = layers::steady_layers(&mut run.m, &solver.sys, solver.pcg.solver(), cfg.seed)?;
    let unattributed = trace.put_metrics(&mut run.m, cfg.threads, &costs);
    layers::cold_layers(&mut run.m, &[&a, &a, &a], solver.pcg.solver())?;
    layers::dispatch_layer(&mut run.m, cfg.threads, &order)?;
    layers::codec_layers(&mut run.m, &a, cfg.seed)?;
    // The same operator served once by a short-lived daemon: the
    // service-side layers this workload's in-process loop bypasses.
    served::service_probe(cfg, run, &a, SERVICE_PROBE_SOLVES)?;
    run.put_bench_shares(unattributed, &solve_ns, &trace.solve_ns)?;
    Ok(())
}
