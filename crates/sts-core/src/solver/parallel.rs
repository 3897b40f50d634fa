//! The pack-parallel triangular solver.
//!
//! # One front door
//!
//! Every sweep runs through [`ParallelSolver::solve_into`]: a
//! [`SolveOptions`] request (direction × batch width × value-slab
//! precision), a caller-held [`PipelinePlan`] built once per structure and
//! direction by [`ParallelSolver::plan`], and caller-provided right-hand
//! side and solution buffers. [`ParallelSolver::solve_with`] is the
//! allocating wrapper. The only other solve entry is the paper's unsplit
//! baseline, [`ParallelSolver::solve_unsplit`]: per pack, the super-rows are
//! distributed over the worker pool with the configured OpenMP-style
//! schedule (the paper uses `dynamic,32` for the flat methods and
//! `guided,1` for the 3-level methods), the pool's completion acts as the
//! inter-pack barrier, and rows inside a super-row are solved sequentially
//! by the owning worker.
//!
//! # Stages, rows and the orchestrator
//!
//! A sweep runs on its direction's [`SplitLayout`], which stores
//! everything in **stage order**: stage `st` is pack `st` forward and pack
//! `num_packs − 1 − st` for the transpose, with the chain tasks and the
//! readiness metadata of each stage numbered the same way (the layout's
//! module docs argue why the reverse order is correct). No kernel below
//! knows which direction it runs. Each stage runs in two phases:
//!
//! 1. **external gather** — `x[i] = (b[i] − Σ L_ext·x) / L[i][i]` for every
//!    row `i` of the stage, statically chunked over the workers. Every
//!    column of the external slab belongs to an *earlier* stage, so all
//!    inputs are final: rows can run in any order and any interleaving, and
//!    the slab streams contiguously (the stage's rows are consecutive);
//! 2. **internal substitution** — `x[i] −= Σ L_int·x / L[i][i]` along the
//!    short in-pack dependence chains, one chain task per super-row that
//!    owns internal entries.
//!
//! The per-row arithmetic of both phases is written once, in two widths:
//! the single-right-hand-side bodies and the multi-RHS bodies
//! (`b[i * nrhs + r]`). The multi-RHS bodies accumulate every lane in the
//! single-RHS bodies' floating-point order, so each lane of a batch is
//! bitwise its own single-RHS sweep. One orchestrator, the **pipelined**
//! one, walks the stages of the plan it is handed: one pool dispatch for
//! the whole sweep, with the paper's per-pack barriers fused into an
//! [`EpochGate`] (below). On one worker it runs the stages inline in
//! program order (every stage's gather rows, then its chain rows) and
//! touches no atomics. Because every row runs the same body in the same
//! per-row order, results are bitwise identical across thread counts.
//!
//! # Data-race freedom
//!
//! The solution vector is shared mutably across workers through a small
//! `UnsafeCell`-style wrapper. For the unsplit kernel this is sound
//! because:
//!
//! * every row index is written by exactly one super-row, and every super-row
//!   is executed by exactly one worker within its pack;
//! * a row only *reads* components written either by earlier rows of the same
//!   super-row (same worker, program order) or by rows of earlier packs
//!   (separated by the pool's completion barrier, which synchronises memory);
//! * [`StsStructure::validate`] enforces exactly this dependency discipline at
//!   construction time.
//!
//! A multi-RHS row stands for its `nrhs` consecutive slots throughout.
//!
//! # The pipelined orchestrator (barrier fusion)
//!
//! The pipelined orchestrator fuses the two full-pool barriers a
//! two-phase stage would need into an [`EpochGate`]: one pool dispatch
//! covers the whole sweep, and workers coordinate through per-stage
//! completion counters instead of barriers. The schedule per worker `w`:
//!
//! * **phase 1** of stage `st` is statically chunked into the plan's row
//!   ranges, and chunk `c` is *owned* by worker `c` — ownership is a
//!   static function of `(st, w)`, so no two workers ever write the same
//!   row;
//! * a chunk does not wait for stage `st − 1`; it waits only until the
//!   gate's epoch covers the chunk's precomputed readiness
//!   ([`SplitLayout::range_ext_dep`] — the latest stage its external slab
//!   range actually reads). Phase 1 of stage `st + 1` therefore overlaps
//!   phase 2 of stage `st` whenever the dependency structure allows;
//! * **phase 2** chain tasks of stage `st` are claimed one at a time from a
//!   shared ticket counter once the gate reports stage `st`'s phase 1
//!   drained; a worker that finds no ticket left moves straight on to its
//!   phase-1 chunk of stage `st + 1`. While phase 1 of stage `st` is still
//!   draining, a parked worker *looks ahead*: it runs its chunks of stages
//!   `st + 1` and `st + 2` (readiness permitting) instead of spinning.
//!
//! ## Memory-ordering argument (which flag publishes which `x` entries)
//!
//! Data-race freedom needs every read of `x[j]` to happen-after the write it
//! observes. Each row `i` is written by exactly one phase-1 chunk and, if it
//! is a chain row, corrected by exactly one chain task. The gate provides
//! exactly two publication edges:
//!
//! * **`is_open(d)` / `wait_open(d)`** (epoch ≥ `d`) happens-after *every*
//!   arrival of stages `0..d` — both phases — via the release sequences on
//!   the gate's per-stage counters and the release CAS chain on the epoch.
//!   A phase-1 chunk with readiness `d` reads `x[j]` only for external
//!   columns `j` in stages `< d`, each finalized (phase-1 write, plus
//!   phase-2 correction for chain rows) before its stage's last arrival.
//!   The chunk runs behind `wait_open(d)`, so all those entries are
//!   published to it.
//! * **`phase1_drained(st)`** happens-after every phase-1 arrival of stage
//!   `st`. A phase-2 task reads `x[j]` only for internal columns `j` of its
//!   own super-row (phase-1 values published by the drained flag, or its
//!   own earlier chain-row corrections in program order) and corrects rows
//!   owned by no other task. Its writes are in turn published to later
//!   stages by its `arrive_phase2` and the epoch edge above.
//!
//! Lookahead never weakens this: a worker running a chunk of stage `st + 2`
//! early still passed that chunk's own readiness check, and writes only
//! rows of stage `st + 2`, which no other worker touches until the epoch
//! covers `st + 2` — which cannot happen before the chunk's own arrival.
//!
//! # Reusable plans
//!
//! Iterative solvers apply these kernels thousands of times on one
//! structure. A [`PipelinePlan`] holds the per-solve scheduling state (the
//! stage → row-range binding, each stage's phase-1 chunk row ranges and
//! their readiness, gate arrival counts, phase-2 ticket counters); the
//! static schedule verifier reads its chunks from a plan built by the same
//! constructor, so the proof covers the chunking the kernel runs.
//! [`ParallelSolver::solve_into`] checks the plan against the structure,
//! direction and thread count on every call and rewinds it via the gate's
//! generation-stamped [`reset`](sts_numa::EpochGate::reset), so a solve
//! performs **no heap allocation**. `&mut` on the plan is what makes the
//! reset sound: the borrow checker guarantees no concurrent solve shares
//! the scheduling state.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sts_matrix::{CsrMatrix, MatrixError};
use sts_numa::{EpochGate, GateWait, PoolError, Schedule, WorkerPool};
use sts_trace::{Phase, SpanRecorder};
use sts_verify::TaskKind;

use crate::csrk::{Result, StsStructure};
use crate::options::{PrecisionPolicy, SlabValue, SolveOptions, SweepDirection};
use crate::split::SplitLayout;

/// Maps a pool-level failure into the matrix error taxonomy the solver
/// surfaces.
pub(crate) fn pool_error_to_matrix(e: PoolError) -> MatrixError {
    match e {
        PoolError::WorkerPanicked {
            slot,
            pack,
            message,
        } => MatrixError::WorkerPanicked {
            slot,
            pack,
            message,
        },
    }
}

/// `n · nrhs`, the length of an interleaved batch; an overflowing product
/// is a [`MatrixError::DimensionMismatch`], caught before any allocation or
/// dispatch.
pub fn batch_len(n: usize, nrhs: usize) -> Result<usize> {
    n.checked_mul(nrhs).ok_or_else(|| {
        MatrixError::DimensionMismatch(format!("n * nrhs overflows: n = {n}, nrhs = {nrhs}"))
    })
}

/// Stringifies a caught panic payload for error reporting.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A hook the fault-injection harness installs to perturb worker `w` at
/// stage/pack `st` of a parallel kernel (panic, stall, …). Runs inside the
/// kernel's `catch_unwind` region, so a panicking hook behaves exactly like a
/// panicking kernel body.
pub type ChaosHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// Shared failure record of one pipelined dispatch: the first panic and the
/// first watchdog timeout, whichever workers hit them.
pub(crate) struct KernelFailure {
    panic: Mutex<Option<(usize, usize, String)>>,
    timeout_stage: AtomicUsize,
}

impl KernelFailure {
    pub(crate) fn new() -> Self {
        KernelFailure {
            panic: Mutex::new(None),
            timeout_stage: AtomicUsize::new(usize::MAX),
        }
    }

    pub(crate) fn record_panic(&self, slot: usize, pack: usize, message: String) {
        if let Ok(mut guard) = self.panic.lock() {
            if guard.is_none() {
                *guard = Some((slot, pack, message));
            }
        }
    }

    pub(crate) fn record_timeout(&self, stage: usize) {
        let _ = self.timeout_stage.compare_exchange(
            usize::MAX,
            stage,
            AtomicOrdering::Relaxed,
            AtomicOrdering::Relaxed,
        );
    }

    /// Resolves the dispatch outcome; a recorded panic outranks a timeout
    /// (the timeout is usually collateral of the panic's poisoning).
    pub(crate) fn into_result(self, timeout_ms: u64) -> Result<()> {
        if let Ok(mut guard) = self.panic.lock() {
            if let Some((slot, pack, message)) = guard.take() {
                return Err(MatrixError::WorkerPanicked {
                    slot,
                    pack,
                    message,
                });
            }
        }
        match self.timeout_stage.load(AtomicOrdering::Relaxed) {
            usize::MAX => Ok(()),
            stage => Err(MatrixError::SolveTimeout { stage, timeout_ms }),
        }
    }
}

/// Default watchdog budget for one pipelined dispatch; generous enough that
/// no healthy solve on any matrix in the suite comes near it.
pub(crate) const DEFAULT_WATCHDOG_MS: u64 = 10_000;

/// Shared mutable solution vector; see the module documentation for the
/// aliasing discipline that makes this sound.
pub(crate) struct SharedVec {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: the wrapper only forwards raw-pointer accesses; every dereference
// goes through the unsafe methods below, whose contracts require the caller
// to provide the per-slot single-writer discipline argued in the module docs.
unsafe impl Sync for SharedVec {}

impl SharedVec {
    /// Wraps a vector for shared mutable access; the vector must outlive every
    /// use of the wrapper.
    pub(crate) fn new(v: &mut [f64]) -> Self {
        SharedVec {
            ptr: v.as_mut_ptr(),
            len: v.len(),
        }
    }

    /// # Safety
    /// Caller must guarantee the index is in bounds and not concurrently
    /// accessed by another thread.
    pub(crate) unsafe fn write(&self, idx: usize, value: f64) {
        debug_assert!(idx < self.len);
        *self.ptr.add(idx) = value;
    }

    /// # Safety
    /// Caller must guarantee the index is in bounds and not concurrently
    /// written by another thread.
    pub(crate) unsafe fn read(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.len);
        *self.ptr.add(idx)
    }

    /// Exclusive view of the `len` slots starting at `start`.
    ///
    /// # Safety
    /// Caller must guarantee the range is in bounds and that no other thread
    /// reads or writes any slot of the range for the lifetime of the
    /// returned slice (the level-scheduled factorization's per-row
    /// ownership discipline provides exactly this).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [f64] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// A reusable parallel solver bound to a worker pool.
pub struct ParallelSolver {
    pool: WorkerPool,
    schedule: Schedule,
    /// Watchdog budget for one pipelined dispatch, in milliseconds: gate
    /// waits past this deadline poison the gate and surface as
    /// [`MatrixError::SolveTimeout`].
    watchdog_ms: u64,
    /// Optional fault-injection hook; see [`ChaosHook`].
    chaos: Option<ChaosHook>,
    /// Optional span recorder; see [`ParallelSolver::set_trace_recorder`].
    trace: Option<Arc<SpanRecorder>>,
    /// Optional race-shadow access log; see
    /// [`ParallelSolver::set_shadow_log`].
    #[cfg(feature = "race-shadow")]
    shadow: Option<Arc<sts_verify::AccessLog>>,
}

impl ParallelSolver {
    /// Creates a solver that runs on `threads` unpinned workers with the given
    /// intra-pack schedule.
    pub fn new(threads: usize, schedule: Schedule) -> Self {
        ParallelSolver {
            pool: WorkerPool::new(threads),
            schedule,
            watchdog_ms: DEFAULT_WATCHDOG_MS,
            chaos: None,
            trace: None,
            #[cfg(feature = "race-shadow")]
            shadow: None,
        }
    }

    /// Creates a solver whose workers are pinned to the given core order
    /// (typically [`NumaTopology::compact_core_order`]).
    ///
    /// [`NumaTopology::compact_core_order`]:
    ///     sts_numa::NumaTopology::compact_core_order
    pub fn with_pinning(threads: usize, schedule: Schedule, core_order: &[usize]) -> Self {
        ParallelSolver {
            pool: WorkerPool::with_pinning(threads, core_order),
            schedule,
            watchdog_ms: DEFAULT_WATCHDOG_MS,
            chaos: None,
            trace: None,
            #[cfg(feature = "race-shadow")]
            shadow: None,
        }
    }

    /// Sets the watchdog deadline of the pipelined kernels: a gate wait that
    /// exceeds this budget (counted from dispatch start) poisons the gate and
    /// the solve returns [`MatrixError::SolveTimeout`] instead of hanging
    /// behind a stalled worker. A stalled worker that is still *running* (as
    /// opposed to dead) is waited out before the error returns, so the caller
    /// regains control after roughly `max(stall, timeout)`, not `timeout`.
    /// Budgets below 1 ms are clamped up to 1 ms.
    pub fn set_watchdog(&mut self, budget: Duration) {
        self.watchdog_ms = (budget.as_millis() as u64).max(1);
    }

    /// The current watchdog budget of the pipelined kernels.
    pub fn watchdog(&self) -> Duration {
        Duration::from_millis(self.watchdog_ms)
    }

    /// Installs (or clears) a fault-injection hook invoked as `hook(w, st)`
    /// when worker `w` starts the phase-1 unit of stage/pack `st` in the
    /// pipelined kernels and the level-scheduled factorization. Test support:
    /// a hook that panics or stalls exercises the failure paths
    /// deterministically.
    pub fn set_chaos_hook(&mut self, hook: Option<ChaosHook>) {
        self.chaos = hook;
    }

    /// Installs (or clears) a span recorder fed by the parallel kernels:
    /// phase-1 gather chunks ([`Phase::Gather`]), phase-2 chain tasks
    /// ([`Phase::Chain`]), blocking epoch-gate waits ([`Phase::GateWait`])
    /// in the pipelined kernels, and level-scheduled IC(0) chunks
    /// ([`Phase::Factor`]).
    ///
    /// The recorder's enabled flag is sampled once per solve, so an
    /// installed-but-disabled recorder costs one `Option` check per kernel
    /// dispatch (`bench_smoke` measures this configuration and the CI gate
    /// bounds it below 2% of a PCG solve). The `worker` field of a span is
    /// the pool slot that ran it (0 on a single-worker pool). The `pack`
    /// field is the *stage* index: identical to the pack for forward
    /// sweeps, reversed for transpose sweeps.
    pub fn set_trace_recorder(&mut self, recorder: Option<Arc<SpanRecorder>>) {
        self.trace = recorder;
    }

    /// The installed span recorder, if any.
    pub fn trace_recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.trace.as_ref()
    }

    /// Installs (or clears) a race-shadow access log: the sweep bodies and
    /// the factor kernel record one [`sts_verify::RowTrace`] per produced
    /// row (the exact shared slots the inner loop read), so
    /// [`sts_verify::check_replay`] can cross-check the static schedule
    /// model against what the kernels really touch. Test support: recording
    /// serialises on the log's mutex.
    #[cfg(feature = "race-shadow")]
    pub fn set_shadow_log(&mut self, log: Option<Arc<sts_verify::AccessLog>>) {
        self.shadow = log;
    }

    /// Records one produced row into the race-shadow log, if installed.
    #[cfg(feature = "race-shadow")]
    #[inline]
    pub(crate) fn shadow_record(
        &self,
        kind: sts_verify::TaskKind,
        row: usize,
        reads: impl IntoIterator<Item = usize>,
    ) {
        if let Some(log) = self.shadow.as_deref() {
            log.record(kind, row, reads);
        }
    }

    /// No-op twin of the `race-shadow` recorder: the lazy `reads` iterator is
    /// never consumed, so release kernels pay nothing.
    #[cfg(not(feature = "race-shadow"))]
    #[inline(always)]
    pub(crate) fn shadow_record(
        &self,
        _kind: sts_verify::TaskKind,
        _row: usize,
        _reads: impl IntoIterator<Item = usize>,
    ) {
    }

    /// The recorder to feed during one kernel dispatch: installed *and*
    /// enabled (sampled once, so the per-span cost is only paid when spans
    /// are actually wanted).
    pub(crate) fn active_recorder(&self) -> Option<&SpanRecorder> {
        self.trace.as_deref().filter(|r| r.is_enabled())
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// The underlying worker pool (crate-internal: the level-scheduled
    /// factorization kernel dispatches on it).
    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The installed chaos hook, if any (crate-internal: the level-scheduled
    /// factorization invokes it per `(worker, pack)` exactly like the
    /// pipelined kernels do).
    pub(crate) fn chaos_hook(&self) -> Option<&ChaosHook> {
        self.chaos.as_ref()
    }

    /// The intra-pack schedule in use.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Builds the reusable [`PipelinePlan`] for sweeps of `s` in
    /// `direction` on this solver: the stage → row-range binding of the
    /// direction's layout, each stage's statically owned phase-1 chunks
    /// (`workers.min(m)` row blocks) with their readiness, the chain-task
    /// counts, the epoch gate and the ticket counters. One O(n) sweep over
    /// the readiness metadata, forcing the direction's lazy layout. Build it
    /// once per structure and direction: every batch width and precision
    /// shares it, and [`ParallelSolver::solve_into`] rewinds it between
    /// solves at no allocation cost.
    pub fn plan(&self, s: &StsStructure, direction: SweepDirection) -> PipelinePlan {
        PipelinePlan::new(s, direction, self.pool.num_threads())
    }

    /// Checks that a plan was built by this solver for this structure and
    /// direction. Dimensions, stage → row-range bindings and chain-task
    /// counts are verified on every call (O(num_packs)), because a stale
    /// plan would hand the gather closures row ranges that race the
    /// structure's own chain tasks through [`SharedVec`]; the phase-1 chunk
    /// ranges and their readiness values — pure functions of the (already
    /// matched) pack boundaries, the thread count and the operand's
    /// pattern — are re-derived and compared in debug builds.
    fn check_plan(
        &self,
        s: &StsStructure,
        plan: &PipelinePlan,
        direction: SweepDirection,
    ) -> Result<()> {
        let layout = s.layout(direction);
        let num_stages = layout.num_stages();
        let consistent = plan.direction == direction
            && plan.n == s.n()
            && plan.threads == self.pool.num_threads()
            && plan.stage_rows.len() == num_stages
            && (0..num_stages).all(|st| {
                plan.stage_rows[st] == layout.stage_rows(st)
                    && plan.ntasks[st] == layout.chain_super_rows(st).len()
            });
        if !consistent {
            return Err(MatrixError::InvalidParameter(format!(
                "pipeline plan mismatch: plan is {} over {} stages for n = {} on {} threads and \
                 must have been built from this exact structure, solve needs {} over {} stages \
                 for n = {} on {} threads",
                plan.direction.as_str(),
                plan.stage_rows.len(),
                plan.n,
                plan.threads,
                direction.as_str(),
                num_stages,
                s.n(),
                self.pool.num_threads(),
            )));
        }
        #[cfg(debug_assertions)]
        {
            let fresh = self.plan(s, direction);
            debug_assert_eq!(
                (&fresh.chunk_ptr, &fresh.chunk_rows, &fresh.chunk_dep),
                (&plan.chunk_ptr, &plan.chunk_rows, &plan.chunk_dep),
                "plan chunk ranges or readiness metadata are stale for this structure"
            );
        }
        Ok(())
    }

    /// Solves a triangular system described by a typed [`SolveOptions`]
    /// request into a caller-provided buffer, with a caller-held plan: the
    /// front door of every split-layout sweep, and the hot path of
    /// iterative solvers (no heap allocation).
    ///
    /// The request selects the sweep direction ([`SweepDirection`]), batch
    /// width (`nrhs`, interleaved layout `b[i * nrhs + r]`) and value-slab
    /// precision ([`PrecisionPolicy`]); every combination has a kernel, and
    /// each lane of a batch is bitwise its own single-RHS solve. `plan`
    /// must come from [`ParallelSolver::plan`] on this solver, for `s` and
    /// `opts.direction`.
    ///
    /// Mixed-precision requests ([`PrecisionPolicy::ValuesF32WithRefinement`])
    /// read the lazily demoted f32 value slabs but accumulate every partial
    /// product in f64; the sweep alone is accurate to roughly single
    /// precision, and callers needing f64 accuracy wrap it in iterative
    /// refinement (`sts-krylov`'s refinement driver does this). Call
    /// [`SplitLayout::ext_vals_f32`] ahead of timing loops to exclude the
    /// one-time demotion.
    ///
    /// # Errors
    ///
    /// `nrhs == 0`, an `n * nrhs` that overflows `usize`, or `b`/`x`
    /// lengths other than `n * nrhs`, return
    /// [`MatrixError::DimensionMismatch`]; a plan built for another
    /// structure, direction or thread count returns
    /// [`MatrixError::InvalidParameter`]. Multi-worker solves add the
    /// failure modes of the watchdog (see [`ParallelSolver::set_watchdog`]).
    pub fn solve_into(
        &self,
        s: &StsStructure,
        plan: &mut PipelinePlan,
        b: &[f64],
        x: &mut [f64],
        opts: &SolveOptions,
    ) -> Result<()> {
        let nrhs = opts.nrhs;
        if nrhs == 0 {
            return Err(MatrixError::DimensionMismatch(
                "a solve needs at least one right-hand side".into(),
            ));
        }
        let len = batch_len(s.n(), nrhs)?;
        if b.len() != len || x.len() != len {
            return Err(MatrixError::DimensionMismatch(format!(
                "B and X must both have length n * nrhs = {len}, got {} and {}",
                b.len(),
                x.len()
            )));
        }
        self.check_plan(s, plan, opts.direction)?;
        let layout = s.layout(opts.direction);
        match opts.precision {
            PrecisionPolicy::ValuesF64 => {
                let (evals, ivals) = (layout.ext_vals(), layout.int_vals());
                self.sweep(plan, layout, evals, ivals, b, x, nrhs)
            }
            PrecisionPolicy::ValuesF32WithRefinement => {
                let (evals, ivals) = (layout.ext_vals_f32(), layout.int_vals_f32());
                self.sweep(plan, layout, evals, ivals, b, x, nrhs)
            }
        }
    }

    /// [`ParallelSolver::solve_into`] with a freshly built plan and a
    /// freshly allocated solution: the convenient entry for one-off solves.
    /// Iterative callers should hold a plan and call `solve_into` instead.
    pub fn solve_with(&self, s: &StsStructure, b: &[f64], opts: &SolveOptions) -> Result<Vec<f64>> {
        let mut plan = self.plan(s, opts.direction);
        let mut x = vec![0.0f64; b.len()];
        self.solve_into(s, &mut plan, b, &mut x, opts)?;
        Ok(x)
    }

    /// Binds the row bodies of one sweep — single-RHS or multi-RHS — to the
    /// pipelined orchestrator, generic over the value-slab precision.
    #[allow(clippy::too_many_arguments)]
    fn sweep<V: SlabValue>(
        &self,
        plan: &mut PipelinePlan,
        layout: &SplitLayout,
        evals: &[V],
        ivals: &[V],
        b: &[f64],
        x: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        let rows = RowBodies {
            solver: self,
            erp: layout.ext_row_ptr(),
            ecols: layout.ext_cols(),
            evals,
            irp: layout.int_row_ptr(),
            icols: layout.int_cols(),
            ivals,
            inv_diag: layout.inv_diags(),
            b,
            x: SharedVec::new(x),
            nrhs,
        };
        let chain_rows =
            |st: usize, t: usize| layout.chain_rows_of(st, t).iter().map(|&i| i as usize);
        if nrhs == 1 {
            self.run_pipelined(
                plan,
                &|r: Range<usize>| r.for_each(|i| rows.gather(i)),
                &|st, t| chain_rows(st, t).for_each(|i| rows.chain(i)),
            )
        } else {
            self.run_pipelined(
                plan,
                &|r: Range<usize>| r.for_each(|i| rows.gather_batch(i)),
                &|st, t| chain_rows(st, t).for_each(|i| rows.chain_batch(i)),
            )
        }
    }

    /// Solves the reordered system `L' x' = b'` with the paper's unsplit
    /// STS-k kernel and returns `x'`: per pack, one pool dispatch over the
    /// super-rows under the configured schedule, each row walking its full
    /// CSR row, with the dispatch's completion as the barrier between
    /// packs. Forward, single right-hand side, `f64` only; it needs no
    /// split layout. Kept as the documented baseline the split-layout sweep
    /// is measured against.
    pub fn solve_unsplit(&self, s: &StsStructure, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != s.n() {
            return Err(MatrixError::DimensionMismatch(format!(
                "b has length {}, expected {}",
                b.len(),
                s.n()
            )));
        }
        let mut x = vec![0.0f64; s.n()];
        {
            let shared = SharedVec::new(&mut x);
            let l = s.lower();
            let row_ptr = l.row_ptr();
            let col_idx = l.col_idx();
            let values = l.values();
            for p in 0..s.num_packs() {
                let pack = s.pack_super_rows(p);
                let first_super_row = pack.start;
                let pack_len = pack.len();
                self.pool
                    .parallel_for(pack_len, self.schedule, &|t| {
                        let sr = first_super_row + t;
                        for i1 in s.super_row_rows(sr) {
                            let start = row_ptr[i1];
                            let end = row_ptr[i1 + 1];
                            let mut acc = 0.0;
                            for k in start..end - 1 {
                                // SAFETY: column k refers either to an earlier pack
                                // (completed before this pack started) or to an
                                // earlier row of this same super-row (written by
                                // this worker earlier in this closure).
                                acc += values[k] * unsafe { shared.read(col_idx[k]) };
                            }
                            // SAFETY: row i1 belongs to exactly one super-row,
                            // executed by exactly one worker.
                            unsafe { shared.write(i1, (b[i1] - acc) / values[end - 1]) };
                        }
                    })
                    .map_err(pool_error_to_matrix)?;
            }
        }
        Ok(x)
    }

    /// Sparse matrix–vector product `y = A x` on the solver's worker pool:
    /// the rows are statically chunked, each chunk writing a disjoint slice
    /// of `y`. This is the companion kernel iterative solvers need next to
    /// the triangular sweeps (one `A·p` per iteration), sharing the pool so
    /// the whole iteration runs on one set of (optionally pinned) workers.
    /// No heap allocation.
    pub fn spmv_into(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != a.ncols() || y.len() != a.nrows() {
            return Err(MatrixError::DimensionMismatch(
                "x/y lengths must match the matrix dimensions".into(),
            ));
        }
        let n = a.nrows();
        if n == 0 {
            return Ok(());
        }
        let shared = SharedVec::new(y);
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        let nchunks = self.pool.num_threads().min(n);
        self.pool
            .parallel_for(nchunks, Schedule::Static, &|c| {
                for r in c * n / nchunks..(c + 1) * n / nchunks {
                    let mut acc = 0.0;
                    for k in row_ptr[r]..row_ptr[r + 1] {
                        acc += values[k] * x[col_idx[k]];
                    }
                    // SAFETY: row r belongs to exactly one static chunk; x is
                    // never written during the product.
                    unsafe { shared.write(r, acc) };
                }
            })
            .map_err(pool_error_to_matrix)?;
        Ok(())
    }

    /// Multi-RHS sparse matrix–vector product `Y = A X` on the solver's
    /// worker pool, with the interleaved layout the batch solvers use
    /// (`x[i * nrhs + r]`). Each `(col, val)` load is amortised over the
    /// batch via a register tile. No heap allocation.
    pub fn spmv_batch_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        if nrhs == 0 {
            return Err(MatrixError::DimensionMismatch(
                "spmv_batch_into needs at least one right-hand side".into(),
            ));
        }
        let (xlen, ylen) = (batch_len(a.ncols(), nrhs)?, batch_len(a.nrows(), nrhs)?);
        if x.len() != xlen || y.len() != ylen {
            return Err(MatrixError::DimensionMismatch(
                "x/y lengths must match the matrix dimensions times nrhs".into(),
            ));
        }
        let n = a.nrows();
        if n == 0 {
            return Ok(());
        }
        let shared = SharedVec::new(y);
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        let nchunks = self.pool.num_threads().min(n);
        self.pool
            .parallel_for(nchunks, Schedule::Static, &|c| {
                for r in c * n / nchunks..(c + 1) * n / nchunks {
                    let base = r * nrhs;
                    for r0 in (0..nrhs).step_by(TILE) {
                        let w = TILE.min(nrhs - r0);
                        let mut acc = [0.0f64; TILE];
                        for k in row_ptr[r]..row_ptr[r + 1] {
                            let (j, v) = (col_idx[k], values[k]);
                            for (q, a) in acc[..w].iter_mut().enumerate() {
                                *a += v * x[j * nrhs + r0 + q];
                            }
                        }
                        for (q, a) in acc[..w].iter().enumerate() {
                            // SAFETY: the nrhs slots of row r belong to exactly
                            // one static chunk.
                            unsafe { shared.write(base + r0 + q, *a) };
                        }
                    }
                }
            })
            .map_err(pool_error_to_matrix)?;
        Ok(())
    }

    /// The pipelined orchestrator: one pool dispatch, per-stage completion
    /// counters instead of barriers, statically owned phase-1 chunks with
    /// readiness waits, ticket-claimed phase-2 chain tasks, and bounded
    /// gather lookahead for parked workers. `gather` runs one contiguous
    /// phase-1 row range and `chain(st, t)` runs chain task `t` of stage
    /// `st`.
    ///
    /// # Failure semantics
    ///
    /// Every worker's loop runs under `catch_unwind`. A panicking body (or
    /// chaos hook) records the first `(slot, stage, payload)` and poisons the
    /// gate; peers observe the poison at their next bounded wait (or the
    /// poison check ahead of each ticket claim) and bail, so the pool barrier
    /// completes and the solve returns [`MatrixError::WorkerPanicked`]. A
    /// blocking gate wait that exceeds the watchdog deadline records the
    /// stage, poisons the gate the same way, and the solve returns
    /// [`MatrixError::SolveTimeout`] — after the stalled worker's body
    /// finishes, since `parallel_for` cannot abandon a borrowed job; the
    /// caller therefore regains control after `max(stall, budget)`, never
    /// hangs. On any error the output buffer must be treated as torn.
    fn run_pipelined(
        &self,
        plan: &mut PipelinePlan,
        gather: &(dyn Fn(Range<usize>) + Sync),
        chain: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<()> {
        let workers = self.pool.num_threads();
        let num_stages = plan.stage_rows.len();
        // Rewind the gate (generation-stamped) and the ticket counters; &mut
        // exclusivity makes the plain stores race-free, and the pool dispatch
        // below publishes them to every worker. The single-worker fast path
        // never touches the gate, but still rewinds so the generation stamp
        // keeps counting solves regardless of thread count.
        plan.rewind();
        let rec = self.active_recorder();
        if workers == 1 {
            // A single worker's program order is exactly the two-phase sweep;
            // skip the gate and ticket atomics entirely. A stalling chaos
            // hook simply runs slowly here — there is no peer to starve.
            let current = Cell::new(0usize);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for st in 0..num_stages {
                    current.set(st);
                    if let Some(hook) = &self.chaos {
                        hook(0, st);
                    }
                    let rows = plan.stage_rows[st].clone();
                    if !rows.is_empty() {
                        let t0 = rec.map(|r| r.now_ns());
                        gather(rows);
                        if let Some(r) = rec {
                            r.record(0, st as u32, Phase::Gather, t0.unwrap_or(0), r.now_ns());
                        }
                    }
                    for t in 0..plan.ntasks[st] {
                        let t0 = rec.map(|r| r.now_ns());
                        chain(st, t);
                        if let Some(r) = rec {
                            r.record(0, st as u32, Phase::Chain, t0.unwrap_or(0), r.now_ns());
                        }
                    }
                }
            }));
            return match result {
                Ok(()) => Ok(()),
                Err(payload) => Err(MatrixError::WorkerPanicked {
                    slot: 0,
                    pack: current.get(),
                    message: panic_message(payload.as_ref()),
                }),
            };
        }
        let deadline = Instant::now() + Duration::from_millis(self.watchdog_ms);
        let failure = KernelFailure::new();
        let plan = &*plan;
        // Runs worker `w`'s phase-1 chunk of stage `st` (a no-op `Ran` when
        // the worker owns none). Non-blocking mode refuses — `NotReady` —
        // instead of waiting for the chunk's readiness; `Bail` means the
        // gate was poisoned (or this wait timed out and poisoned it) and the
        // worker must unwind its loop.
        let run_chunk = |w: usize, st: usize, blocking: bool, current: &Cell<usize>| -> ChunkStep {
            let (chunks, deps) = plan.stage_chunks(st);
            if let (Some(rows), Some(&dep)) = (chunks.get(w), deps.get(w)) {
                let dep = dep as usize;
                if blocking {
                    let t0 = rec.map(|r| r.now_ns());
                    let wait = plan.gate.wait_open_until(dep, deadline);
                    if let Some(r) = rec {
                        r.record(
                            w as u32,
                            st as u32,
                            Phase::GateWait,
                            t0.unwrap_or(0),
                            r.now_ns(),
                        );
                    }
                    match wait {
                        GateWait::Ready => {}
                        GateWait::Poisoned => return ChunkStep::Bail,
                        GateWait::TimedOut => {
                            failure.record_timeout(st);
                            plan.gate.poison();
                            return ChunkStep::Bail;
                        }
                    }
                } else if plan.gate.is_poisoned() {
                    return ChunkStep::Bail;
                } else if !plan.gate.is_open(dep) {
                    return ChunkStep::NotReady;
                }
                current.set(st);
                if let Some(hook) = &self.chaos {
                    hook(w, st);
                }
                let t0 = rec.map(|r| r.now_ns());
                gather(rows.clone());
                if let Some(r) = rec {
                    r.record(
                        w as u32,
                        st as u32,
                        Phase::Gather,
                        t0.unwrap_or(0),
                        r.now_ns(),
                    );
                }
                plan.gate.arrive_phase1(st);
            }
            ChunkStep::Ran
        };
        self.pool
            .parallel_for(workers, Schedule::Static, &|w| {
                let current = Cell::new(0usize);
                let body = catch_unwind(AssertUnwindSafe(|| {
                    // The next stage whose phase-1 chunk this worker still
                    // owes; lookahead advances it past the stage being
                    // processed.
                    let mut next_p1 = 0usize;
                    'stages: for st in 0..num_stages {
                        if next_p1 == st {
                            if run_chunk(w, st, true, &current) == ChunkStep::Bail {
                                break 'stages;
                            }
                            next_p1 = st + 1;
                        }
                        let ntasks = plan.ntasks[st];
                        if ntasks == 0 {
                            continue;
                        }
                        let mut spins = 0u32;
                        loop {
                            if plan.gate.is_poisoned() {
                                break 'stages;
                            }
                            if !plan.gate.phase1_drained(st) {
                                // Parked: gather ahead into the next stages
                                // instead of spinning (readiness permitting).
                                if next_p1 < num_stages && next_p1 - st <= PIPELINE_LOOKAHEAD {
                                    match run_chunk(w, next_p1, false, &current) {
                                        ChunkStep::Ran => {
                                            next_p1 += 1;
                                            spins = 0;
                                            continue;
                                        }
                                        ChunkStep::Bail => break 'stages,
                                        ChunkStep::NotReady => {}
                                    }
                                }
                                spins += 1;
                                if spins < 64 {
                                    std::hint::spin_loop();
                                } else {
                                    // Possibly oversubscribed: let the
                                    // stragglers run — and watch the clock,
                                    // in case a straggler never comes back.
                                    if spins.is_multiple_of(64) && Instant::now() >= deadline {
                                        failure.record_timeout(st);
                                        plan.gate.poison();
                                        break 'stages;
                                    }
                                    std::thread::yield_now();
                                }
                                continue;
                            }
                            let t = plan.tickets[st].fetch_add(1, AtomicOrdering::Relaxed);
                            if t >= ntasks {
                                break;
                            }
                            current.set(st);
                            let t0 = rec.map(|r| r.now_ns());
                            chain(st, t);
                            if let Some(r) = rec {
                                r.record(
                                    w as u32,
                                    st as u32,
                                    Phase::Chain,
                                    t0.unwrap_or(0),
                                    r.now_ns(),
                                );
                            }
                            plan.gate.arrive_phase2(st);
                        }
                    }
                }));
                if let Err(payload) = body {
                    failure.record_panic(w, current.get(), panic_message(payload.as_ref()));
                    plan.gate.poison();
                }
            })
            // Unreachable in practice — the catch above absorbs every panic —
            // but kept sound rather than assumed.
            .map_err(pool_error_to_matrix)?;
        failure.into_result(self.watchdog_ms)
    }
}

/// The per-row arithmetic of one sweep, written once: the external-gather
/// and chain bodies for one right-hand side, and their multi-RHS
/// counterparts in the same per-lane arithmetic order. Every body
/// records the row it produced into the race-shadow log (a no-op without
/// the `race-shadow` feature). The aliasing discipline on `x` is the module
/// docs' (a multi-RHS row stands for its `nrhs` consecutive slots).
struct RowBodies<'a, V> {
    solver: &'a ParallelSolver,
    erp: &'a [usize],
    ecols: &'a [u32],
    evals: &'a [V],
    irp: &'a [usize],
    icols: &'a [u32],
    ivals: &'a [V],
    inv_diag: &'a [f64],
    b: &'a [f64],
    x: SharedVec,
    nrhs: usize,
}

impl<V: SlabValue> RowBodies<'_, V> {
    /// Phase 1 of row `i1` with the diagonal scale folded in:
    /// `x[i] = (b[i] − Σ L_ext·x) · d_i`. Rows without internal entries are
    /// final after this.
    #[inline]
    fn gather(&self, i1: usize) {
        let (erp, ecols, evals) = (self.erp, self.ecols, self.evals);
        let mut acc = 0.0;
        for k in erp[i1]..erp[i1 + 1] {
            // SAFETY: external columns lie in earlier stages, finalized and
            // published before this row's gather runs (readiness wait, or
            // program order on one worker).
            acc += evals[k].to_f64() * unsafe { self.x.read(ecols[k] as usize) };
        }
        // SAFETY: row i1 is written by exactly one phase-1 chunk.
        unsafe { self.x.write(i1, (self.b[i1] - acc) * self.inv_diag[i1]) };
        self.solver.shadow_record(
            TaskKind::Gather,
            i1,
            ecols[erp[i1]..erp[i1 + 1]].iter().map(|&j| j as usize),
        );
    }

    /// Phase 2 of chain row `i1`: `x[i] −= d_i · Σ L_int·x`.
    #[inline]
    fn chain(&self, i1: usize) {
        let (irp, icols, ivals) = (self.irp, self.icols, self.ivals);
        let mut acc = 0.0;
        for k in irp[i1]..irp[i1 + 1] {
            // SAFETY: internal columns stay inside this super-row — written
            // earlier by this task if they are chain rows, published by the
            // drained flag (or program order) otherwise.
            acc += ivals[k].to_f64() * unsafe { self.x.read(icols[k] as usize) };
        }
        // SAFETY: row i1 belongs to exactly one chain task; its phase-1
        // value was published by the drained flag (or program order).
        let partial = unsafe { self.x.read(i1) };
        // SAFETY: as above, this task is the row's only writer.
        unsafe { self.x.write(i1, partial - acc * self.inv_diag[i1]) };
        // The recorded reads: the internal columns plus the re-read of the
        // row's own phase-1 partial.
        self.solver.shadow_record(
            TaskKind::Chain,
            i1,
            icols[irp[i1]..irp[i1 + 1]]
                .iter()
                .map(|&j| j as usize)
                .chain(std::iter::once(i1)),
        );
    }

    /// Multi-RHS [`RowBodies::gather`]: for every right-hand side `q`,
    /// `acc[q] = Σ_k v_k · x[j_k, q]` accumulates from zero in slab order and
    /// `x[i, q] = (b[i, q] − acc[q]) · d_i` — the single-RHS body's
    /// floating-point sequence, so each lane is bitwise its own single-RHS
    /// sweep. The lanes run in blocks of up to [`TILE`] stack accumulators,
    /// so each `(col, val)` load is amortised over the block.
    #[inline]
    fn gather_batch(&self, i1: usize) {
        let (erp, ecols, evals, nrhs) = (self.erp, self.ecols, self.evals, self.nrhs);
        let base = i1 * nrhs;
        let d = self.inv_diag[i1];
        for q0 in (0..nrhs).step_by(TILE) {
            let w = TILE.min(nrhs - q0);
            let mut acc = [0.0f64; TILE];
            for k in erp[i1]..erp[i1 + 1] {
                let (j, v) = (ecols[k] as usize * nrhs + q0, evals[k].to_f64());
                for (q, a) in acc[..w].iter_mut().enumerate() {
                    // SAFETY: as in `gather`, reads target earlier stages.
                    *a += v * unsafe { self.x.read(j + q) };
                }
            }
            for (q, a) in acc[..w].iter().enumerate() {
                let slot = base + q0 + q;
                // SAFETY: the nrhs slots of row i1 have exactly one phase-1
                // writer (this chunk).
                unsafe { self.x.write(slot, (self.b[slot] - a) * d) };
            }
        }
        self.solver.shadow_record(
            TaskKind::Gather,
            i1,
            ecols[erp[i1]..erp[i1 + 1]].iter().map(|&j| j as usize),
        );
    }

    /// Multi-RHS [`RowBodies::chain`]: `x[i, q] −= acc[q] · d_i` with
    /// `acc[q]` accumulated as in [`RowBodies::gather_batch`], so each lane
    /// is again bitwise its single-RHS sweep.
    #[inline]
    fn chain_batch(&self, i1: usize) {
        let (irp, icols, ivals, nrhs) = (self.irp, self.icols, self.ivals, self.nrhs);
        let base = i1 * nrhs;
        let d = self.inv_diag[i1];
        for q0 in (0..nrhs).step_by(TILE) {
            let w = TILE.min(nrhs - q0);
            let mut acc = [0.0f64; TILE];
            for k in irp[i1]..irp[i1 + 1] {
                let (j, v) = (icols[k] as usize * nrhs + q0, ivals[k].to_f64());
                for (q, a) in acc[..w].iter_mut().enumerate() {
                    // SAFETY: same-super-row reads — this task's earlier
                    // writes, or phase-1 results published by the drained
                    // flag.
                    *a += v * unsafe { self.x.read(j + q) };
                }
            }
            for (q, a) in acc[..w].iter().enumerate() {
                let slot = base + q0 + q;
                // SAFETY: row i1 belongs to exactly one chain task; its
                // phase-1 values were published by the drained flag.
                let partial = unsafe { self.x.read(slot) };
                // SAFETY: as above, this task is the row's only writer.
                unsafe { self.x.write(slot, partial - a * d) };
            }
        }
        self.solver.shadow_record(
            TaskKind::Chain,
            i1,
            icols[irp[i1]..irp[i1 + 1]]
                .iter()
                .map(|&j| j as usize)
                .chain(std::iter::once(i1)),
        );
    }
}

/// Tri-state outcome of one phase-1 chunk attempt in the pipelined loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkStep {
    /// The chunk ran (or the worker owns none at this stage).
    Ran,
    /// Non-blocking readiness check failed; try again later.
    NotReady,
    /// The gate is poisoned (or this wait timed out): unwind the worker loop.
    Bail,
}

/// Right-hand sides per block of stack accumulators in the multi-RHS
/// kernels: wide enough that typical batches (4–8 RHS) stream the
/// column/value slabs exactly once, small enough to stay in registers.
const TILE: usize = 8;

/// The reusable per-structure scheduling state of the split-layout sweeps:
/// the stage → row-range binding of one direction's layout, each stage's
/// phase-1 chunk row ranges and their readiness, gate arrival counts, and
/// the phase-2 ticket counters. Built by [`ParallelSolver::plan`] once per
/// structure and direction, rewound — never reallocated — by every
/// [`ParallelSolver::solve_into`] call, so repeated solves on one structure
/// are allocation-free.
///
/// A plan is tied to the (structure, direction, thread count) it was built
/// for; [`ParallelSolver::solve_into`] rejects mismatches.
#[derive(Debug)]
pub struct PipelinePlan {
    /// The direction of the layout the plan was built from.
    direction: SweepDirection,
    /// Dimension of the structure the plan was built for.
    n: usize,
    /// Thread count of the solver the plan was built for.
    threads: usize,
    /// The rows of each stage's pack (contiguous in the reordered
    /// numbering).
    stage_rows: Vec<Range<usize>>,
    /// Chain tasks per stage.
    ntasks: Vec<usize>,
    /// Stage pointer into `chunk_rows` / `chunk_dep` (`num_stages + 1`
    /// entries).
    chunk_ptr: Vec<usize>,
    /// The row range of every phase-1 chunk, stage by stage; chunk `c` of a
    /// stage is owned by worker `c`.
    chunk_rows: Vec<Range<usize>>,
    /// Per-chunk readiness in stage numbering.
    chunk_dep: Vec<u32>,
    /// The resettable epoch gate coordinating the stages.
    gate: EpochGate,
    /// Phase-2 ticket counters, one per stage.
    tickets: Vec<AtomicUsize>,
}

impl PipelinePlan {
    /// The one constructor of a plan for sweeps of `s` in `direction` on
    /// `workers` workers: stage `st`'s `m` rows split into
    /// `nchunks = workers.min(m)` static chunks
    /// `rows.start + c·m/nchunks .. rows.start + (c + 1)·m/nchunks`, each
    /// with its readiness ([`SplitLayout::range_ext_dep`]). The kernels run
    /// these ranges and the schedule verifier models them, so
    /// `workers = usize::MAX` gives the verifier's row-granularity chunks.
    pub(crate) fn new(s: &StsStructure, direction: SweepDirection, workers: usize) -> PipelinePlan {
        let layout = s.layout(direction);
        let workers = workers.max(1);
        let num_stages = layout.num_stages();
        let mut stage_rows = Vec::with_capacity(num_stages);
        let mut ntasks = Vec::with_capacity(num_stages);
        let mut counts = Vec::with_capacity(num_stages);
        let mut chunk_ptr = Vec::with_capacity(num_stages + 1);
        let mut chunk_rows = Vec::new();
        let mut chunk_dep: Vec<u32> = Vec::new();
        chunk_ptr.push(0usize);
        for st in 0..num_stages {
            let rows = layout.stage_rows(st);
            let m = rows.len();
            let nchunks = workers.min(m);
            for c in 0..nchunks {
                let chunk = rows.start + c * m / nchunks..rows.start + (c + 1) * m / nchunks;
                chunk_dep.push(layout.range_ext_dep(chunk.clone()));
                chunk_rows.push(chunk);
            }
            chunk_ptr.push(chunk_rows.len());
            let nt = layout.chain_super_rows(st).len();
            counts.push((nchunks, nt));
            ntasks.push(nt);
            stage_rows.push(rows);
        }
        PipelinePlan {
            direction,
            n: s.n(),
            threads: workers,
            stage_rows,
            ntasks,
            chunk_ptr,
            chunk_rows,
            chunk_dep,
            gate: EpochGate::new(&counts),
            tickets: (0..num_stages).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Stage `st`'s phase-1 chunks: their row ranges and readiness, chunk
    /// `c` at index `c`.
    pub(crate) fn stage_chunks(&self, st: usize) -> (&[Range<usize>], &[u32]) {
        let r = self.chunk_ptr[st]..self.chunk_ptr[st + 1];
        (&self.chunk_rows[r.clone()], &self.chunk_dep[r])
    }

    /// The sweep direction the plan serves.
    pub fn direction(&self) -> SweepDirection {
        self.direction
    }

    /// Number of stages (packs).
    pub fn num_stages(&self) -> usize {
        self.stage_rows.len()
    }

    /// How many pipelined solves have rewound this plan (the gate's
    /// generation stamp).
    pub fn generation(&self) -> usize {
        self.gate.generation()
    }

    /// Rewinds the gate and the ticket counters for the next solve. `&mut`
    /// exclusivity makes the plain stores race-free.
    fn rewind(&mut self) {
        self.gate.reset();
        for t in &mut self.tickets {
            *t.get_mut() = 0;
        }
    }
}

/// How many stages past the one a worker is parked on it may gather ahead
/// into (stages `st + 1` and `st + 2`): enough to hide short chains without
/// letting fast workers run arbitrarily far from the cache-resident frontier.
const PIPELINE_LOOKAHEAD: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::{generators, ops, LowerTriangularCsr};

    const FWD: SweepDirection = SweepDirection::Forward;
    const BWD: SweepDirection = SweepDirection::Transpose;

    fn opts(direction: SweepDirection) -> SolveOptions {
        SolveOptions::default().with_direction(direction)
    }

    fn check_unsplit_matches_sequential(
        a: &sts_matrix::CsrMatrix,
        method: Method,
        threads: usize,
        schedule: Schedule,
    ) {
        let l = generators::lower_operand(a).unwrap();
        let s = method.build(&l, 8).unwrap();
        let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let seq = s.solve_sequential(&b).unwrap();
        let solver = ParallelSolver::new(threads, schedule);
        let par = solver.solve_unsplit(&s, &b).unwrap();
        assert!(
            ops::relative_error_inf(&par, &seq) < 1e-12,
            "parallel must match sequential"
        );
        assert!(ops::relative_error_inf(&par, &x_true) < 1e-10);
    }

    #[test]
    fn unsplit_matches_sequential_for_all_methods() {
        let a = generators::triangulated_grid(14, 14, 2).unwrap();
        for method in Method::all() {
            check_unsplit_matches_sequential(&a, method, 4, Schedule::Dynamic { chunk: 4 });
        }
    }

    #[test]
    fn unsplit_matches_sequential_across_schedules() {
        let a = generators::grid2d_9point(13, 13).unwrap();
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 32 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            check_unsplit_matches_sequential(&a, Method::Sts3, 4, schedule);
        }
    }

    #[test]
    fn single_threaded_solver_works() {
        let a = generators::road_network(12, 12, 0.6, 4).unwrap();
        check_unsplit_matches_sequential(&a, Method::CsrCol, 1, Schedule::Static);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let l = generators::paper_figure1_l();
        let s = Method::Sts3.build(&l, 2).unwrap();
        let b = vec![1.0; 9];
        let solver = ParallelSolver::new(8, Schedule::Guided { min_chunk: 1 });
        let x_ref = s.solve_sequential(&b).unwrap();
        let x = solver.solve_unsplit(&s, &b).unwrap();
        assert!(ops::relative_error_inf(&x, &x_ref) < 1e-14);
        let x = solver.solve_with(&s, &b, &opts(FWD)).unwrap();
        assert!(ops::relative_error_inf(&x, &x_ref) < 1e-14);
    }

    #[test]
    fn wrong_rhs_length_is_rejected() {
        let l = generators::paper_figure1_l();
        let s = Method::CsrLs.build(&l, 2).unwrap();
        let solver = ParallelSolver::new(2, Schedule::Static);
        assert!(solver.solve_unsplit(&s, &[1.0; 4]).is_err());
    }

    #[test]
    fn solver_is_reusable_across_structures_and_right_hand_sides() {
        let solver = ParallelSolver::new(3, Schedule::Dynamic { chunk: 2 });
        for seed in 0..3 {
            let a = generators::triangulated_grid(9, 9, seed).unwrap();
            let l = generators::lower_operand(&a).unwrap();
            let s = Method::Sts3.build(&l, 4).unwrap();
            for shift in 0..3 {
                let x_true: Vec<f64> = (0..s.n()).map(|i| (i + shift) as f64 * 0.1 + 1.0).collect();
                let b = s.lower().multiply(&x_true).unwrap();
                let x = solver.solve_unsplit(&s, &b).unwrap();
                assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
                let x = solver.solve_with(&s, &b, &SolveOptions::default()).unwrap();
                assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
            }
        }
    }

    #[test]
    fn sweeps_match_both_oracles_for_all_methods_and_threads() {
        let a = generators::triangulated_grid(14, 14, 2).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
            let b = s.lower().multiply(&x_true).unwrap();
            let bt = s.lower().multiply_transpose(&x_true).unwrap();
            let seq = s.solve_sequential(&b).unwrap();
            let tseq = s.solve_transpose_sequential(&bt).unwrap();
            for threads in [1, 2, 4, 8] {
                let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                let x = solver.solve_with(&s, &b, &opts(FWD)).unwrap();
                let xt = solver.solve_with(&s, &bt, &opts(BWD)).unwrap();
                let tag = format!("{} {threads} threads", method.label());
                assert!(ops::relative_error_inf(&x, &seq) < 1e-12, "{tag}");
                assert!(ops::relative_error_inf(&xt, &tseq) < 1e-12, "{tag}");
            }
        }
    }

    #[test]
    fn pipelined_solves_are_stable_under_repeated_contention() {
        // The chain-heaviest ordering (level sets) re-solved many times on an
        // oversubscribed pool: races between lookahead gathers and chain
        // corrections would show up as sporadic divergence.
        let a = generators::grid2d_laplacian(24, 24).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Csr3Ls.build(&l, 6).unwrap();
        let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 7) as f64 * 0.2).collect();
        let solver = ParallelSolver::new(8, Schedule::Guided { min_chunk: 1 });
        for direction in [FWD, BWD] {
            let (b, seq) = match direction {
                FWD => {
                    let b = s.lower().multiply(&x_true).unwrap();
                    let seq = s.solve_sequential(&b).unwrap();
                    (b, seq)
                }
                BWD => {
                    let b = s.lower().multiply_transpose(&x_true).unwrap();
                    let seq = s.solve_transpose_sequential(&b).unwrap();
                    (b, seq)
                }
            };
            let mut plan = solver.plan(&s, direction);
            let mut x = vec![0.0; s.n()];
            let o = opts(direction);
            for round in 0..50 {
                solver.solve_into(&s, &mut plan, &b, &mut x, &o).unwrap();
                assert!(
                    ops::relative_error_inf(&x, &seq) < 1e-12,
                    "{direction:?} pipelined diverged on round {round}"
                );
            }
            assert_eq!(plan.generation(), 50, "each solve rewinds the plan once");
        }
    }

    #[test]
    fn one_plan_serves_every_batch_width_and_precision() {
        let a = generators::grid2d_laplacian(16, 16).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 6).unwrap();
        let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
        for direction in [FWD, BWD] {
            let mut plan = solver.plan(&s, direction);
            assert_eq!(plan.direction(), direction);
            assert_eq!(plan.num_stages(), s.num_packs());
            for nrhs in [1usize, 2] {
                let b: Vec<f64> = (0..s.n() * nrhs).map(|k| 1.0 + (k % 3) as f64).collect();
                let mut x = vec![0.0; s.n() * nrhs];
                for precision in [
                    PrecisionPolicy::ValuesF64,
                    PrecisionPolicy::ValuesF32WithRefinement,
                ] {
                    let o = opts(direction).with_nrhs(nrhs).with_precision(precision);
                    solver.solve_into(&s, &mut plan, &b, &mut x, &o).unwrap();
                    assert_eq!(x, solver.solve_with(&s, &b, &o).unwrap());
                }
            }
        }
    }

    #[test]
    fn mismatched_plans_are_rejected() {
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let solver = ParallelSolver::new(3, Schedule::Static);
        let b = vec![1.0; s.n()];
        let mut x = vec![0.0; s.n()];
        let a2 = generators::grid2d_laplacian(9, 9).unwrap();
        let l2 = generators::lower_operand(&a2).unwrap();
        let s2 = Method::Sts3.build(&l2, 4).unwrap();
        let b2 = vec![1.0; s2.n()];
        let mut x2 = vec![0.0; s2.n()];
        let other = ParallelSolver::new(2, Schedule::Static);
        let fwd = opts(FWD);
        let rejected = |r: Result<()>| matches!(r, Err(MatrixError::InvalidParameter(_)));
        // Wrong direction.
        let mut bwd_plan = solver.plan(&s, BWD);
        assert!(rejected(solver.solve_into(
            &s,
            &mut bwd_plan,
            &b,
            &mut x,
            &fwd
        )));
        // Wrong thread count.
        let mut plan2 = other.plan(&s, FWD);
        assert!(rejected(
            solver.solve_into(&s, &mut plan2, &b, &mut x, &fwd)
        ));
        // Wrong structure.
        let mut plan = solver.plan(&s, FWD);
        assert!(rejected(
            solver.solve_into(&s2, &mut plan, &b2, &mut x2, &fwd)
        ));
        assert!(solver.solve_into(&s, &mut plan, &b, &mut x, &fwd).is_ok());
        // Same n, pack count and thread count but different pack boundaries:
        // a structurally stale plan must still be rejected (the row ranges
        // it would hand the gather closures race the other structure's chain
        // tasks).
        let l9 = generators::paper_figure1_l();
        let order = vec![0usize, 1, 4, 2, 3, 5, 6, 7, 8];
        let perm = sts_graph::Permutation::from_new_to_old(order).unwrap();
        let lp = l9.permute_symmetric(perm.new_to_old()).unwrap();
        let index2: Vec<usize> = (0..=9).collect();
        let build = |index3: Vec<usize>| {
            StsStructure::new(
                1,
                crate::builder::Ordering::LevelSet,
                index3,
                index2.clone(),
                lp.clone(),
                perm.clone(),
            )
            .unwrap()
        };
        let sa = build(vec![0, 3, 5, 6, 7, 8, 9]);
        let sb = build(vec![0, 2, 5, 6, 7, 8, 9]);
        assert_eq!(sa.n(), sb.n());
        assert_eq!(sa.num_packs(), sb.num_packs());
        let b9 = vec![1.0; 9];
        let mut x9 = vec![0.0; 9];
        let mut plan_a = solver.plan(&sa, FWD);
        let o = SolveOptions::default();
        assert!(solver
            .solve_into(&sb, &mut plan_a, &b9, &mut x9, &o)
            .is_err());
        // ... and the plan still works against its own structure.
        assert!(solver
            .solve_into(&sa, &mut plan_a, &b9, &mut x9, &o)
            .is_ok());
    }

    #[test]
    fn single_worker_solves_still_stamp_the_plan_generation() {
        let a = generators::grid2d_laplacian(8, 8).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let solver = ParallelSolver::new(1, Schedule::Static);
        let mut plan = solver.plan(&s, FWD);
        let b = vec![1.0; s.n()];
        let mut x = vec![0.0; s.n()];
        for round in 1..=3 {
            solver
                .solve_into(&s, &mut plan, &b, &mut x, &SolveOptions::default())
                .unwrap();
            assert_eq!(plan.generation(), round);
        }
    }

    /// `s` with every off-diagonal value rounded through `f32` (the
    /// diagonal kept): the exact operand an f32-slab sweep solves.
    fn f32_rounded(s: &StsStructure) -> StsStructure {
        let mut csr = s.lower().to_csr();
        let (row_ptr, col_idx) = (csr.row_ptr().to_vec(), csr.col_idx().to_vec());
        let values = csr.values_mut();
        for r in 0..s.n() {
            for k in row_ptr[r]..row_ptr[r + 1] {
                if col_idx[k] != r {
                    values[k] = values[k] as f32 as f64;
                }
            }
        }
        s.with_operand(LowerTriangularCsr::from_csr(&csr).unwrap())
            .unwrap()
    }

    /// Lane `q` of an interleaved `n × nrhs` block.
    fn lane(v: &[f64], nrhs: usize, q: usize) -> Vec<f64> {
        v.iter().skip(q).step_by(nrhs).copied().collect()
    }

    #[test]
    fn every_direction_width_thread_count_and_precision_agrees_with_the_oracles() {
        // The sweep contract, over direction × nrhs × precision × threads:
        // single-RHS solves are bitwise equal across thread counts, every
        // lane of a batch is bitwise the single-RHS solve of that lane, and
        // everything is within 1e-12 of the unsplit reference sweeps (on the
        // f32-rounded operand for f32 slabs). A width above the 8-wide
        // accumulator blocks exercises the block passes.
        let precisions = [
            PrecisionPolicy::ValuesF64,
            PrecisionPolicy::ValuesF32WithRefinement,
        ];
        for method in [Method::Sts3, Method::CsrLs] {
            let l = generators::random_lower_triangular(90, 3.0, 11).unwrap();
            let s = method.build(&l, 6).unwrap();
            let s32 = f32_rounded(&s);
            let n = s.n();
            for direction in [FWD, BWD] {
                for precision in precisions {
                    let oracle_s = match precision {
                        PrecisionPolicy::ValuesF64 => &s,
                        PrecisionPolicy::ValuesF32WithRefinement => &s32,
                    };
                    let oracle = |b: &[f64]| match direction {
                        FWD => oracle_s.solve_sequential(b).unwrap(),
                        BWD => oracle_s.solve_transpose_sequential(b).unwrap(),
                    };
                    let mut scalar_ref: Option<Vec<f64>> = None;
                    for threads in [1usize, 2, 4, 8] {
                        let solver =
                            ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                        let run = |b: &[f64], nrhs: usize| {
                            let o = opts(direction).with_nrhs(nrhs).with_precision(precision);
                            solver.solve_with(&s, b, &o).unwrap()
                        };
                        for nrhs in [1usize, 3, 9] {
                            let b: Vec<f64> = (0..n * nrhs)
                                .map(|k| 1.0 + ((k * 7) % 13) as f64 * 0.37)
                                .collect();
                            let tag = format!(
                                "{} {direction:?} {precision:?} nrhs={nrhs} threads={threads}",
                                method.label()
                            );
                            let x = run(&b, nrhs);
                            if nrhs == 1 {
                                let first = scalar_ref.get_or_insert_with(|| x.clone());
                                assert_eq!(&x, first, "{tag}: thread-count dependence");
                            }
                            for q in 0..nrhs {
                                let bq = lane(&b, nrhs, q);
                                let got = lane(&x, nrhs, q);
                                assert_eq!(got, run(&bq, 1), "{tag}: lane {q} is not its solve");
                                assert!(
                                    ops::relative_error_inf(&got, &oracle(&bq)) < 1e-12,
                                    "{tag}: lane {q} misses the oracle"
                                );
                            }
                        }
                    }
                }
            }
            // Dimension and batch-width rejections.
            let solver = ParallelSolver::new(2, Schedule::Static);
            for direction in [FWD, BWD] {
                let o = opts(direction);
                let dim = |r: Result<Vec<f64>>| matches!(r, Err(MatrixError::DimensionMismatch(_)));
                assert!(dim(solver.solve_with(&s, &vec![1.0; n], &o.with_nrhs(0))));
                assert!(dim(solver.solve_with(&s, &vec![1.0; n + 1], &o)));
                assert!(dim(solver.solve_with(
                    &s,
                    &vec![1.0; 2 * n + 1],
                    &o.with_nrhs(2)
                )));
                let mut plan = solver.plan(&s, direction);
                let mut short = vec![0.0; n - 1];
                assert!(matches!(
                    solver.solve_into(&s, &mut plan, &vec![1.0; n], &mut short, &o),
                    Err(MatrixError::DimensionMismatch(_))
                ));
            }
        }
    }

    #[test]
    fn an_overflowing_batch_length_is_a_dimension_mismatch() {
        // n · nrhs = 64 · 2^58 wraps to 0 in `usize`, which empty buffers
        // would match; the check must catch the overflow before dispatch.
        let a = generators::grid2d_laplacian(8, 8).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        assert_eq!(s.n(), 64);
        let solver = ParallelSolver::new(2, Schedule::Static);
        let mut plan = solver.plan(&s, FWD);
        let o = opts(FWD).with_nrhs(1 << 58);
        assert!(matches!(
            solver.solve_into(&s, &mut plan, &[], &mut [], &o),
            Err(MatrixError::DimensionMismatch(_))
        ));
        assert!(matches!(
            solver.spmv_batch_into(&a, &[], &mut [], 1 << 58),
            Err(MatrixError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn f32_sweeps_are_accurate_to_single_precision() {
        // The sweep alone is accurate to roughly single precision before any
        // refinement.
        let a = generators::triangulated_grid(12, 12, 3).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 6).unwrap();
        let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let solver = ParallelSolver::new(2, Schedule::Guided { min_chunk: 1 });
        let o = SolveOptions::default().with_precision(PrecisionPolicy::ValuesF32WithRefinement);
        let x32 = solver.solve_with(&s, &b, &o).unwrap();
        assert!(s.layout(FWD).f32_slabs_built());
        assert!(ops::relative_error_inf(&x32, &x_true) < 1e-4);
    }

    #[test]
    fn pool_spmv_matches_the_sequential_product() {
        let a = generators::grid2d_9point(13, 11).unwrap();
        let x: Vec<f64> = (0..a.ncols()).map(|i| 0.3 + (i % 7) as f64 * 0.5).collect();
        let expected = ops::spmv(&a, &x).unwrap();
        for threads in [1, 2, 4, 8] {
            let solver = ParallelSolver::new(threads, Schedule::Static);
            let mut y = vec![0.0; a.nrows()];
            solver.spmv_into(&a, &x, &mut y).unwrap();
            assert!(ops::relative_error_inf(&y, &expected) < 1e-14);
        }
        // Batch: interleaved copies scaled per system.
        let nrhs = 3;
        let xb: Vec<f64> = (0..a.ncols() * nrhs)
            .map(|k| x[k / nrhs] * (1.0 + (k % nrhs) as f64))
            .collect();
        let solver = ParallelSolver::new(4, Schedule::Static);
        let mut yb = vec![0.0; a.nrows() * nrhs];
        solver.spmv_batch_into(&a, &xb, &mut yb, nrhs).unwrap();
        for i in 0..a.nrows() {
            for r in 0..nrhs {
                let want = expected[i] * (1.0 + r as f64);
                assert!((yb[i * nrhs + r] - want).abs() <= 1e-12 * want.abs().max(1.0));
            }
        }
        // Bad shapes are rejected.
        let mut y = vec![0.0; a.nrows()];
        assert!(solver.spmv_into(&a, &x[1..], &mut y).is_err());
        assert!(solver.spmv_batch_into(&a, &xb, &mut yb, 0).is_err());
    }

    #[test]
    fn pinned_solver_solves_correctly() {
        let topo = sts_numa::NumaTopology::detect_host();
        let order = topo.compact_core_order(2);
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let solver = ParallelSolver::with_pinning(2, Schedule::Guided { min_chunk: 1 }, &order);
        let x_true = vec![2.0; s.n()];
        let b = s.lower().multiply(&x_true).unwrap();
        let x = solver.solve_unsplit(&s, &b).unwrap();
        assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
        let x = solver.solve_with(&s, &b, &SolveOptions::default()).unwrap();
        assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
    }
}
