//! In-process PCG: set-up, the closed solve loop, and its traced variant
//! with a forwarding preconditioner that times every application in situ.

use std::time::Instant;

use sts_core::{Method, ParallelSolver};
use sts_krylov::{
    build_ladder_preconditioner, KrylovWorkspace, LadderPreconditioner, Pcg, Preconditioner,
    RecoveryPolicy, SpdSystem,
};
use sts_matrix::CsrMatrix;
use sts_numa::Schedule;
use sts_trace::{Phase, SpanRecorder};

use crate::check::{check_solution, Tally};
use crate::inputs::Rng;
use crate::layers::IterationCosts;
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::median;

/// Rows per super-row of every STS-3 analysis (the paper's Intel value).
pub const ROWS_PER_SUPER_ROW: usize = 80;

/// The chunk schedule of every pool (the service's default).
pub const SCHEDULE: Schedule = Schedule::Guided { min_chunk: 1 };

/// A PCG driver on `threads` workers, pinned to `core_order` when it is
/// non-empty.
pub fn pcg_on(threads: usize, core_order: &[usize]) -> Pcg {
    let mut pcg = Pcg::new(threads, SCHEDULE);
    if !core_order.is_empty() {
        *pcg.solver_mut() = ParallelSolver::with_pinning(threads, SCHEDULE, core_order);
    }
    pcg
}

/// STS-3 analysis of `a`.
pub fn analyse(a: &CsrMatrix) -> Result<SpdSystem, String> {
    SpdSystem::build(a, Method::Sts3, ROWS_PER_SUPER_ROW).map_err(|e| e.to_string())
}

/// The IC(0) recovery-ladder preconditioner of `sys` on `pcg`'s pool.
pub fn ladder(sys: &SpdSystem, pcg: &Pcg) -> Result<LadderPreconditioner, String> {
    build_ladder_preconditioner(sys, pcg.solver(), &RecoveryPolicy::default())
        .map(|(pre, _)| pre)
        .map_err(|e| e.to_string())
}

/// Everything one in-process solve needs, built once and reused.
pub struct Solver {
    /// The analysed system.
    pub sys: SpdSystem,
    /// The driver and its worker pool.
    pub pcg: Pcg,
    /// The factored preconditioner.
    pub pre: LadderPreconditioner,
    /// The persistent workspace.
    pub ws: KrylovWorkspace,
}

/// One solve's result.
pub struct Solved {
    /// The solution, original numbering.
    pub x: Vec<f64>,
    /// Wall time of the `Pcg::solve` call, nanoseconds.
    pub ns: u64,
}

impl Solver {
    /// Solves `a x = b` and checks the result; `a` is the operator in
    /// original numbering (for the true residual). Only the `Pcg::solve`
    /// call is timed.
    pub fn solve(&mut self, a: &CsrMatrix, b: &[f64]) -> Result<Solved, String> {
        let start = Instant::now();
        let out = self
            .pcg
            .solve(&self.sys, &mut self.pre, b, &mut self.ws)
            .map_err(|e| e.to_string())?;
        let ns = start.elapsed().as_nanos() as u64;
        check_solution(a, b, &out.x, out.converged)?;
        Ok(Solved { x: out.x, ns })
    }
}

/// Sets up a solver for `a` on `threads` workers and solves `b` once:
/// analysis, pool, IC(0) ladder and first solve (lazy layout builds
/// included). Returns the solver and the set-up's wall time, nanoseconds.
pub fn setup(
    a: &CsrMatrix,
    b: &[f64],
    threads: usize,
    core_order: &[usize],
) -> Result<(Solver, u64), String> {
    let start = Instant::now();
    let sys = analyse(a)?;
    let pcg = pcg_on(threads, core_order);
    let pre = ladder(&sys, &pcg)?;
    let ws = KrylovWorkspace::new(sys.n());
    let mut solver = Solver { sys, pcg, pre, ws };
    solver.solve(a, b)?;
    Ok((solver, start.elapsed().as_nanos() as u64))
}

/// A preconditioner that forwards to the ladder preconditioner and records
/// each application's start and end on the tracer's clock.
struct TimedPre<'a> {
    inner: &'a mut LadderPreconditioner,
    clock: &'a SpanRecorder,
    applies: Vec<(u64, u64)>,
}

impl Preconditioner for TimedPre<'_> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn apply_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
    ) -> sts_krylov::Result<()> {
        let t0 = self.clock.now_ns();
        let result = self.inner.apply_into(solver, r, z, sweep);
        self.applies.push((t0, self.clock.now_ns()));
        result
    }
}

/// What a traced in-process loop measured, in situ.
#[derive(Debug, Default)]
pub struct PcgTrace {
    /// Wall time of each traced `Pcg::solve`, nanoseconds.
    pub solve_ns: Vec<f64>,
    /// Iterations of each traced solve.
    pub iterations: Vec<f64>,
    /// Preconditioner time of each traced solve, nanoseconds.
    pub precond_ns: Vec<f64>,
    /// Preconditioner applications.
    pub applies: u64,
    /// Kernel span time per phase: gather, chain, gate wait.
    pub phase_ns: [u64; 3],
    /// Kernel spans recorded.
    pub kernel_spans: u64,
}

/// Runs traced solves on `solver` until `until` (at least `min_solves`),
/// with the kernel recorder `recorder` installed on its pool. Solve ids
/// start at `first_id`.
#[allow(clippy::too_many_arguments)]
pub fn traced_loop(
    solver: &mut Solver,
    a: &CsrMatrix,
    rhs: &mut Rng,
    tracer: &mut Tracer,
    recorder: &SpanRecorder,
    until: Instant,
    min_solves: usize,
    first_id: u64,
    tally: &mut Tally,
) -> PcgTrace {
    let mut trace = PcgTrace::default();
    let n = solver.sys.n();
    let max_applies = solver.pcg.options().max_iterations + 1;
    let mut id = first_id;
    recorder.clear();
    while Instant::now() < until || trace.solve_ns.len() < min_solves {
        let b = rhs.rhs(n);
        let mut timed = TimedPre {
            inner: &mut solver.pre,
            clock: recorder,
            applies: Vec::with_capacity(max_applies),
        };
        let t0 = tracer.now();
        let out = solver
            .pcg
            .solve(&solver.sys, &mut timed, &b, &mut solver.ws);
        let t1 = tracer.now();
        tracer.span("krylov.solve", id, 0, t0, t1);
        let mut precond = 0u64;
        for &(s, e) in &timed.applies {
            tracer.span("krylov.precond", id, 0, s, e);
            precond += e - s;
        }
        trace.applies += timed.applies.len() as u64;
        for e in tracer.drain_kernel(recorder, id) {
            let slot = match e.phase {
                Phase::Gather => 0,
                Phase::Chain => 1,
                Phase::GateWait => 2,
                _ => continue,
            };
            trace.phase_ns[slot] += e.t_end_ns - e.t_start_ns;
            trace.kernel_spans += 1;
        }
        let checked = out
            .map_err(|e| e.to_string())
            .and_then(|o| check_solution(a, &b, &o.x, o.converged).map(|()| o.iterations));
        if let Some(iterations) = tally.record(checked) {
            trace.solve_ns.push((t1 - t0) as f64);
            trace.iterations.push(iterations as f64);
            trace.precond_ns.push(precond as f64);
        }
        id += 1;
    }
    trace
}

impl PcgTrace {
    /// Records the in-situ sts-krylov and kernel-span metrics of the traced
    /// solves on a pool of `threads` workers. Returns the median share of a
    /// solve that neither the in-situ preconditioner spans nor the isolated
    /// per-call costs scaled by exact call counts account for.
    pub fn put_metrics(&self, m: &mut Metrics, threads: usize, costs: &IterationCosts) -> f64 {
        let solve: f64 = self.solve_ns.iter().sum();
        let precond: f64 = self.precond_ns.iter().sum();
        let iterations: f64 = self.iterations.iter().sum();
        let applies = self.applies.max(1) as f64;
        m.put("krylov.solves", self.solve_ns.len() as f64, "count");
        m.put("krylov.iterations", median(&self.iterations), "count");
        m.put("krylov.precond_calls", self.applies as f64, "count");
        m.put("krylov.precond_ns", precond / applies, "ns");
        m.put("krylov.precond_share", precond / solve, "ratio");
        m.put(
            "krylov.rest_ns_per_iter",
            (solve - precond) / iterations.max(1.0),
            "ns",
        );
        // Each application is one forward and one transpose sweep.
        let per_sweep_worker = 2.0 * applies * threads as f64;
        m.put(
            "core.gather_ns",
            self.phase_ns[0] as f64 / per_sweep_worker,
            "ns",
        );
        m.put(
            "core.chain_ns",
            self.phase_ns[1] as f64 / per_sweep_worker,
            "ns",
        );
        m.put(
            "core.gate_wait_ns",
            self.phase_ns[2] as f64 / per_sweep_worker,
            "ns",
        );
        m.put("core.kernel_spans", self.kernel_spans as f64, "count");
        let dark: Vec<f64> = self
            .solve_ns
            .iter()
            .zip(&self.precond_ns)
            .zip(&self.iterations)
            .map(|((wall, pre), it)| {
                (wall - pre - costs.gather_scatter_ns - it * costs.per_iteration_ns()) / wall
            })
            .collect();
        median(&dark)
    }
}
