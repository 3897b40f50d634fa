//! The recovery ladder: graceful degradation for breakdown-prone
//! preconditioning.
//!
//! IC(0) exists for every M-matrix, but a merely-SPD operand can drive a
//! pivot of the incomplete factorization negative
//! ([`MatrixError::FactorizationBreakdown`]) even though exact Cholesky
//! would succeed — the classical Kershaw counterexample. A production
//! solver must not surface that as a hard failure when a slightly weaker
//! preconditioner finishes the job. [`RobustPcg`] climbs a ladder instead:
//!
//! 1. **IC(0)** on `A` itself — the fast path, identical to
//!    [`Ic0::new`];
//! 2. **row-boosted IC(0)** ([`Ic0::new_row_boosted`]): the breakdown
//!    reports exactly which pivot went non-positive
//!    ([`MatrixError::FactorizationBreakdown`]`::row`), so before touching
//!    the whole diagonal the ladder boosts *only that row's* diagonal under
//!    escalating boosts — a far smaller perturbation of the
//!    preconditioner, so convergence barely degrades when it works
//!    (Kershaw's counterexample factors with a single boosted pivot);
//! 3. **shifted IC(0)** on `A + α·diag(A)` under escalating α
//!    ([`Ic0::new_shifted`], Manteuffel's shift): each rung is a strictly
//!    more diagonally dominant operand, so a large enough α always
//!    factors;
//! 4. **SSOR** — no factorization at all, cannot break down at setup;
//! 5. **Identity** — plain CG, the unconditional last resort.
//!
//! Every attempt — failed or final — is recorded in a [`RecoveryReport`],
//! so degradation is *observable*: the caller learns which rung converged,
//! which shifts were burned, and how many iterations the descent cost,
//! instead of silently getting a slower solve. Only *breakdown-shaped*
//! errors descend the ladder ([`MatrixError::FactorizationBreakdown`] at
//! setup, [`MatrixError::NonFiniteResidual`] during the iteration);
//! structural errors (dimension mismatches, worker panics, timeouts)
//! propagate immediately — retrying cannot fix those, and masking them
//! would hide real faults.

use sts_core::{ParallelSolver, PrecisionPolicy};
use sts_matrix::MatrixError;

use crate::pcg::{Pcg, PcgBatchOutcome, PcgBlockOutcome, PcgOutcome};
use crate::precond::{Ic0, Identity, Preconditioner, Ssor};
use crate::system::SpdSystem;
use crate::workspace::KrylovWorkspace;
use crate::Result;

/// Which rungs the ladder may visit, and in what strength order.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Escalating single-row diagonal boosts tried on the exact row
    /// [`MatrixError::FactorizationBreakdown`] reported, before any
    /// whole-diagonal shift ([`Ic0::new_row_boosted`]). Empty disables
    /// the rung.
    pub row_boosts: Vec<f64>,
    /// Escalating Manteuffel shifts tried after the unshifted (and
    /// row-boosted) factorizations break down.
    pub shifts: Vec<f64>,
    /// Whether the ladder may degrade past shifted IC(0) to SSOR.
    pub allow_ssor: bool,
    /// Whether the ladder may degrade all the way to plain CG.
    pub allow_identity: bool,
    /// The value-slab precision every rung's preconditioner sweeps with
    /// ([`Preconditioner::set_precision`]).
    pub precision: PrecisionPolicy,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            row_boosts: vec![1e-2, 1.0],
            shifts: vec![1e-3, 1e-2, 1e-1, 1.0],
            allow_ssor: true,
            allow_identity: true,
            precision: PrecisionPolicy::ValuesF64,
        }
    }
}

/// One rung the ladder tried and abandoned.
#[derive(Debug, Clone)]
pub struct RecoveryAttempt {
    /// The rung's preconditioner label ("ic0", "ic0-rowboost",
    /// "ic0-shifted", "ssor", "none").
    pub preconditioner: &'static str,
    /// The Manteuffel shift of the rung — or, on "ic0-rowboost" rungs,
    /// the single-row boost (0.0 off both).
    pub shift: f64,
    /// Why the rung was abandoned.
    pub error: MatrixError,
    /// Iterations the rung consumed before failing (0 for setup-time
    /// breakdowns).
    pub iterations: usize,
}

/// What the descent looked like: every abandoned rung, plus where the
/// ladder came to rest.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The rungs tried and abandoned, in order. Empty when the fast path
    /// succeeded.
    pub attempts: Vec<RecoveryAttempt>,
    /// The shifts whose factorizations were attempted (successful final
    /// rung included).
    pub shifts_tried: Vec<f64>,
    /// Label of the preconditioner that produced the returned outcome.
    pub final_preconditioner: &'static str,
    /// The shift of the final rung — or its single-row boost when
    /// `final_preconditioner` is "ic0-rowboost" (0.0 when unshifted).
    pub final_shift: f64,
    /// Whether the returned outcome came from anything but the fast path.
    pub degraded: bool,
    /// Iterations consumed by abandoned rungs — the descent's cost on top
    /// of the final solve's own count.
    pub extra_iterations: usize,
}

/// A [`PcgOutcome`] plus the story of how it was obtained.
#[derive(Debug, Clone)]
pub struct RobustOutcome {
    /// The final rung's solve outcome.
    pub outcome: PcgOutcome,
    /// The descent record.
    pub report: RecoveryReport,
}

/// A [`PcgBatchOutcome`] plus the descent record — the batched analogue of
/// [`RobustOutcome`]. The whole batch descends together: a breakdown on any
/// system restarts the lockstep iteration on the next rung for all of them.
#[derive(Debug, Clone)]
pub struct RobustBatchOutcome {
    /// The final rung's batched solve outcome.
    pub outcome: PcgBatchOutcome,
    /// The descent record.
    pub report: RecoveryReport,
}

/// A [`PcgBlockOutcome`] plus the descent record — the block-CG analogue of
/// [`RobustOutcome`].
#[derive(Debug, Clone)]
pub struct RobustBlockOutcome {
    /// The final rung's block solve outcome.
    pub outcome: PcgBlockOutcome,
    /// The descent record.
    pub report: RecoveryReport,
}

/// A preconditioner produced by climbing the setup-time rungs of the
/// recovery ladder ([`build_ladder_preconditioner`]): whichever rung's setup
/// succeeded first, behind one concrete type so callers (e.g. a factor
/// cache) can store it without boxing.
#[derive(Debug)]
pub enum LadderPreconditioner {
    /// An IC(0) factor (possibly Manteuffel-shifted) whose setup succeeded.
    Ic0(Ic0),
    /// The SSOR fallback — no factorization, setup cannot break down.
    Ssor(Ssor),
    /// Plain CG, the unconditional last resort.
    Identity(Identity),
}

impl Preconditioner for LadderPreconditioner {
    fn label(&self) -> &'static str {
        match self {
            LadderPreconditioner::Ic0(p) => p.label(),
            LadderPreconditioner::Ssor(p) => p.label(),
            LadderPreconditioner::Identity(p) => p.label(),
        }
    }

    fn apply_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
    ) -> Result<()> {
        match self {
            LadderPreconditioner::Ic0(p) => p.apply_into(solver, r, z, sweep),
            LadderPreconditioner::Ssor(p) => p.apply_into(solver, r, z, sweep),
            LadderPreconditioner::Identity(p) => p.apply_into(solver, r, z, sweep),
        }
    }

    fn apply_batch_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        match self {
            LadderPreconditioner::Ic0(p) => p.apply_batch_into(solver, r, z, sweep, nrhs),
            LadderPreconditioner::Ssor(p) => p.apply_batch_into(solver, r, z, sweep, nrhs),
            LadderPreconditioner::Identity(p) => p.apply_batch_into(solver, r, z, sweep, nrhs),
        }
    }

    fn set_precision(&mut self, precision: PrecisionPolicy) {
        match self {
            LadderPreconditioner::Ic0(p) => p.set_precision(precision),
            LadderPreconditioner::Ssor(p) => p.set_precision(precision),
            LadderPreconditioner::Identity(p) => p.set_precision(precision),
        }
    }

    fn precision(&self) -> PrecisionPolicy {
        match self {
            LadderPreconditioner::Ic0(p) => p.precision(),
            LadderPreconditioner::Ssor(p) => p.precision(),
            LadderPreconditioner::Identity(p) => p.precision(),
        }
    }
}

/// Climbs the *setup-time* rungs of the ladder without running a solve:
/// IC(0), then shifted IC(0) under the policy's escalating shifts, then SSOR
/// / Identity if permitted. Returns the first rung whose setup succeeded plus
/// a [`RecoveryReport`] of the setup breakdowns burned on the way down.
///
/// This is the factor-cache entry point: a solver service factors once at
/// value-submission time and then reuses the returned preconditioner across
/// many solves, so setup-time degradation must be decided (and reported)
/// once, up front. Iteration-time breakdowns
/// ([`MatrixError::NonFiniteResidual`]) can of course still surface later;
/// only the full [`RobustPcg`] entry points descend on those.
pub fn build_ladder_preconditioner(
    sys: &SpdSystem,
    solver: &ParallelSolver,
    policy: &RecoveryPolicy,
) -> Result<(LadderPreconditioner, RecoveryReport)> {
    let mut attempts: Vec<RecoveryAttempt> = Vec::new();
    let mut shifts_tried: Vec<f64> = Vec::new();
    let mut breakdown_row: Option<usize> = None;
    let finish = |mut pre: LadderPreconditioner, report: RecoveryReport| {
        pre.set_precision(policy.precision);
        Ok((pre, report))
    };

    // Rung 1: plain IC(0). A breakdown names the offending pivot row,
    // which rung 2 targets.
    shifts_tried.push(0.0);
    match Ic0::new(sys, solver) {
        Ok(pre) => {
            return finish(
                LadderPreconditioner::Ic0(pre),
                report_for(attempts, shifts_tried, "ic0", 0.0),
            );
        }
        Err(e) if descends(&e) => {
            if let MatrixError::FactorizationBreakdown { row, .. } = e {
                breakdown_row = Some(row);
            }
            attempts.push(RecoveryAttempt {
                preconditioner: "ic0",
                shift: 0.0,
                error: e,
                iterations: 0,
            });
        }
        Err(e) => return Err(e),
    }

    // Rung 2: boost only the reported pivot row's diagonal, escalating.
    if let Some(row) = breakdown_row {
        for &beta in policy.row_boosts.iter() {
            match Ic0::new_row_boosted(sys, solver, row, beta) {
                Ok(pre) => {
                    return finish(
                        LadderPreconditioner::Ic0(pre),
                        report_for(attempts, shifts_tried, "ic0-rowboost", beta),
                    );
                }
                Err(e) if descends(&e) => {
                    attempts.push(RecoveryAttempt {
                        preconditioner: "ic0-rowboost",
                        shift: beta,
                        error: e,
                        iterations: 0,
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    // Rung 3: whole-diagonal Manteuffel shifts, escalating.
    for &alpha in policy.shifts.iter() {
        shifts_tried.push(alpha);
        match Ic0::new_shifted(sys, solver, alpha) {
            Ok(pre) => {
                return finish(
                    LadderPreconditioner::Ic0(pre),
                    report_for(attempts, shifts_tried, "ic0-shifted", alpha),
                );
            }
            Err(e) if descends(&e) => {
                attempts.push(RecoveryAttempt {
                    preconditioner: "ic0-shifted",
                    shift: alpha,
                    error: e,
                    iterations: 0,
                });
            }
            Err(e) => return Err(e),
        }
    }
    if policy.allow_ssor {
        return finish(
            LadderPreconditioner::Ssor(Ssor::new(sys, solver)),
            report_for(attempts, shifts_tried, "ssor", 0.0),
        );
    }
    if policy.allow_identity {
        return finish(
            LadderPreconditioner::Identity(Identity),
            report_for(attempts, shifts_tried, "none", 0.0),
        );
    }
    Err(attempts.pop().map(|a| a.error).unwrap_or_else(|| {
        MatrixError::InvalidParameter("recovery ladder has no permitted rungs".into())
    }))
}

/// The fault-tolerant PCG driver: [`Pcg`] plus the recovery ladder.
pub struct RobustPcg {
    pcg: Pcg,
    policy: RecoveryPolicy,
}

impl RobustPcg {
    /// Wraps `pcg` with the default policy (four escalating shifts, SSOR
    /// and Identity both allowed).
    pub fn new(pcg: Pcg) -> Self {
        RobustPcg {
            pcg,
            policy: RecoveryPolicy::default(),
        }
    }

    /// Wraps `pcg` with an explicit policy.
    pub fn with_policy(pcg: Pcg, policy: RecoveryPolicy) -> Self {
        RobustPcg { pcg, policy }
    }

    /// The wrapped driver.
    pub fn pcg(&self) -> &Pcg {
        &self.pcg
    }

    /// The wrapped driver, mutably (watchdog configuration, fault hooks).
    pub fn pcg_mut(&mut self) -> &mut Pcg {
        &mut self.pcg
    }

    /// The ladder policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Solves `A x = b`, descending the ladder on breakdown. Returns the
    /// first rung's outcome that produced a clean solve (converged or
    /// not), together with the [`RecoveryReport`]. Errs only when every
    /// permitted rung failed with a breakdown-shaped error, or any rung
    /// failed with a structural one.
    pub fn solve(
        &self,
        sys: &SpdSystem,
        b: &[f64],
        ws: &mut KrylovWorkspace,
    ) -> Result<RobustOutcome> {
        let (outcome, report) =
            self.solve_ladder(sys, self.policy.precision, &mut |pcg, pre| {
                pcg.solve(sys, pre, b, ws)
            })?;
        self.observe_recovery(&report);
        Ok(RobustOutcome { outcome, report })
    }

    /// [`RobustPcg::solve`] behind the unified
    /// [`SolveOptions`](sts_core::SolveOptions) front door. Only the
    /// `precision` and `nrhs` fields are consumed: the requested precision
    /// overrides [`RecoveryPolicy::precision`] for this solve (every rung's
    /// preconditioner sweeps with it), and `nrhs` must be 1.
    pub fn solve_with(
        &self,
        sys: &SpdSystem,
        b: &[f64],
        ws: &mut KrylovWorkspace,
        opts: &sts_core::SolveOptions,
    ) -> Result<RobustOutcome> {
        if opts.nrhs != 1 {
            return Err(MatrixError::DimensionMismatch(format!(
                "solve_with is the single-RHS entry (got nrhs = {}); use solve_batch",
                opts.nrhs
            )));
        }
        let (outcome, report) = self.solve_ladder(sys, opts.precision, &mut |pcg, pre| {
            pcg.solve(sys, pre, b, ws)
        })?;
        self.observe_recovery(&report);
        Ok(RobustOutcome { outcome, report })
    }

    /// Solves `nrhs` systems at once ([`Pcg::solve_batch`]) behind the
    /// ladder. The lockstep batch shares one preconditioner, so a breakdown
    /// on any system descends the whole batch to the next rung and restarts
    /// the lockstep iteration there; abandoned-rung iteration counts land in
    /// [`RecoveryReport::extra_iterations`] as usual.
    pub fn solve_batch(
        &self,
        sys: &SpdSystem,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
    ) -> Result<RobustBatchOutcome> {
        let (outcome, report) =
            self.solve_ladder(sys, self.policy.precision, &mut |pcg, pre| {
                pcg.solve_batch(sys, pre, b, nrhs, ws)
            })?;
        self.observe_recovery(&report);
        Ok(RobustBatchOutcome { outcome, report })
    }

    /// Solves `nrhs` systems on a shared block Krylov space
    /// ([`Pcg::solve_block`]) behind the ladder, descending the whole block
    /// together on breakdown like [`RobustPcg::solve_batch`].
    pub fn solve_block(
        &self,
        sys: &SpdSystem,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
    ) -> Result<RobustBlockOutcome> {
        let (outcome, report) =
            self.solve_ladder(sys, self.policy.precision, &mut |pcg, pre| {
                pcg.solve_block(sys, pre, b, nrhs, ws)
            })?;
        self.observe_recovery(&report);
        Ok(RobustBlockOutcome { outcome, report })
    }

    /// Feeds the descent into the wrapped driver's metrics registry (if one
    /// is installed): every abandoned rung counts one
    /// `pcg_recovery_rungs_total` — the trend line a weakening default
    /// shift schedule shows up on first.
    fn observe_recovery(&self, report: &RecoveryReport) {
        if report.attempts.is_empty() {
            return;
        }
        if let Some(reg) = self.pcg.metrics_registry() {
            reg.counter("pcg_recovery_rungs_total")
                .add(report.attempts.len() as u64);
        }
    }

    /// The shared descent: builds each rung's preconditioner in ladder order
    /// and hands it to `run` (one of the three [`Pcg`] solve entries).
    /// Breakdown-shaped failures — at setup or inside `run` — are recorded
    /// and descend; structural failures propagate immediately.
    fn solve_ladder<O>(
        &self,
        sys: &SpdSystem,
        precision: PrecisionPolicy,
        run: &mut dyn FnMut(&Pcg, &mut dyn Preconditioner) -> Result<O>,
    ) -> Result<(O, RecoveryReport)> {
        let mut attempts: Vec<RecoveryAttempt> = Vec::new();
        let mut shifts_tried: Vec<f64> = Vec::new();
        let mut breakdown_row: Option<usize> = None;

        // Rung 1: plain IC(0). A setup breakdown names the offending pivot
        // row, which rung 2 targets.
        shifts_tried.push(0.0);
        match Ic0::new(sys, self.pcg.solver()) {
            Ok(mut pre) => {
                pre.set_precision(precision);
                if let Some(outcome) =
                    Self::try_rung(run, &self.pcg, &mut pre, "ic0", 0.0, &mut attempts)?
                {
                    return Ok((outcome, report_for(attempts, shifts_tried, "ic0", 0.0)));
                }
            }
            Err(e) if descends(&e) => {
                if let MatrixError::FactorizationBreakdown { row, .. } = e {
                    breakdown_row = Some(row);
                }
                attempts.push(RecoveryAttempt {
                    preconditioner: "ic0",
                    shift: 0.0,
                    error: e,
                    iterations: 0,
                });
            }
            Err(e) => return Err(e),
        }

        // Rung 2: boost only the reported pivot row's diagonal, escalating.
        if let Some(row) = breakdown_row {
            for &beta in self.policy.row_boosts.iter() {
                let mut pre = match Ic0::new_row_boosted(sys, self.pcg.solver(), row, beta) {
                    Ok(pre) => pre,
                    Err(e) if descends(&e) => {
                        attempts.push(RecoveryAttempt {
                            preconditioner: "ic0-rowboost",
                            shift: beta,
                            error: e,
                            iterations: 0,
                        });
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                pre.set_precision(precision);
                if let Some(outcome) = Self::try_rung(
                    run,
                    &self.pcg,
                    &mut pre,
                    "ic0-rowboost",
                    beta,
                    &mut attempts,
                )? {
                    return Ok((
                        outcome,
                        report_for(attempts, shifts_tried, "ic0-rowboost", beta),
                    ));
                }
            }
        }

        // Rung 3: whole-diagonal shifted IC(0) under escalating α.
        for &alpha in self.policy.shifts.iter() {
            shifts_tried.push(alpha);
            let mut pre = match Ic0::new_shifted(sys, self.pcg.solver(), alpha) {
                Ok(pre) => pre,
                Err(e) if descends(&e) => {
                    attempts.push(RecoveryAttempt {
                        preconditioner: "ic0-shifted",
                        shift: alpha,
                        error: e,
                        iterations: 0,
                    });
                    continue;
                }
                Err(e) => return Err(e),
            };
            pre.set_precision(precision);
            if let Some(outcome) = Self::try_rung(
                run,
                &self.pcg,
                &mut pre,
                "ic0-shifted",
                alpha,
                &mut attempts,
            )? {
                return Ok((
                    outcome,
                    report_for(attempts, shifts_tried, "ic0-shifted", alpha),
                ));
            }
        }

        // Rung 4: SSOR — setup cannot break down.
        if self.policy.allow_ssor {
            let mut pre = Ssor::new(sys, self.pcg.solver());
            pre.set_precision(precision);
            if let Some(outcome) =
                Self::try_rung(run, &self.pcg, &mut pre, "ssor", 0.0, &mut attempts)?
            {
                return Ok((outcome, report_for(attempts, shifts_tried, "ssor", 0.0)));
            }
        }

        // Rung 5: plain CG.
        if self.policy.allow_identity {
            let mut pre = Identity;
            if let Some(outcome) =
                Self::try_rung(run, &self.pcg, &mut pre, "none", 0.0, &mut attempts)?
            {
                return Ok((outcome, report_for(attempts, shifts_tried, "none", 0.0)));
            }
        }

        // Every permitted rung broke down. Surface the last breakdown.
        Err(attempts.pop().map(|a| a.error).unwrap_or_else(|| {
            MatrixError::InvalidParameter("recovery ladder has no permitted rungs".into())
        }))
    }

    /// Runs one rung's solve. `Ok(Some(outcome))` means the rung produced
    /// a clean outcome; `Ok(None)` means it broke down (recorded in
    /// `attempts`) and the ladder should descend; `Err` propagates
    /// structural failures.
    fn try_rung<O>(
        run: &mut dyn FnMut(&Pcg, &mut dyn Preconditioner) -> Result<O>,
        pcg: &Pcg,
        pre: &mut dyn Preconditioner,
        label: &'static str,
        shift: f64,
        attempts: &mut Vec<RecoveryAttempt>,
    ) -> Result<Option<O>> {
        match run(pcg, pre) {
            Ok(outcome) => Ok(Some(outcome)),
            Err(e) if descends(&e) => {
                let iterations = match &e {
                    MatrixError::NonFiniteResidual { iteration } => *iteration,
                    _ => 0,
                };
                attempts.push(RecoveryAttempt {
                    preconditioner: label,
                    shift,
                    error: e,
                    iterations,
                });
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// Assembles the descent record once a rung has come to rest.
fn report_for(
    attempts: Vec<RecoveryAttempt>,
    shifts_tried: Vec<f64>,
    final_preconditioner: &'static str,
    final_shift: f64,
) -> RecoveryReport {
    let extra_iterations = attempts.iter().map(|a| a.iterations).sum();
    let degraded = !attempts.is_empty();
    RecoveryReport {
        attempts,
        shifts_tried,
        final_preconditioner,
        final_shift,
        degraded,
        extra_iterations,
    }
}

/// Whether an error is breakdown-shaped — fixable by a weaker
/// preconditioner — as opposed to structural (wrong sizes, poisoned pool,
/// timeout), which retrying under a different preconditioner cannot cure.
fn descends(e: &MatrixError) -> bool {
    matches!(
        e,
        MatrixError::FactorizationBreakdown { .. } | MatrixError::NonFiniteResidual { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_core::Method;
    use sts_matrix::{generators, ops};
    use sts_numa::Schedule;

    #[test]
    fn clean_system_takes_the_fast_path_with_an_empty_report() {
        let a = generators::grid2d_laplacian(12, 12).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
        let robust = RobustPcg::new(Pcg::new(2, Schedule::Guided { min_chunk: 1 }));
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = robust.solve(&sys, &b, &mut ws).unwrap();
        assert!(out.outcome.converged);
        assert!(!out.report.degraded);
        assert!(out.report.attempts.is_empty());
        assert_eq!(out.report.final_preconditioner, "ic0");
        assert_eq!(out.report.final_shift, 0.0);
        assert_eq!(out.report.extra_iterations, 0);
        assert_eq!(out.report.shifts_tried, vec![0.0]);
    }

    #[test]
    fn batch_and_block_entries_descend_the_same_ladder() {
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let nrhs = 3;
        let mut b = vec![0.0; sys.n() * nrhs];
        for (k, slot) in b.iter_mut().enumerate() {
            *slot = 1.0 + (k % 7) as f64;
        }
        let robust = RobustPcg::new(Pcg::new(2, Schedule::Guided { min_chunk: 1 }));
        let mut ws = KrylovWorkspace::with_nrhs(sys.n(), nrhs);
        let batch = robust.solve_batch(&sys, &b, nrhs, &mut ws).unwrap();
        assert!(batch.outcome.converged.iter().all(|&c| c));
        assert!(!batch.report.degraded);
        assert_eq!(batch.report.final_preconditioner, "ic0");
        let block = robust.solve_block(&sys, &b, nrhs, &mut ws).unwrap();
        assert!(block.outcome.converged.iter().all(|&c| c));
        assert!(!block.report.degraded);
        // Batch/batch entries surface structural errors (wrong-size B)
        // without descending, like the scalar entry.
        let e = robust
            .solve_batch(&sys, &b[..5], nrhs, &mut ws)
            .unwrap_err();
        assert!(matches!(e, MatrixError::DimensionMismatch(_)));
    }

    #[test]
    fn setup_ladder_builds_the_fast_path_on_a_clean_operand() {
        let a = generators::grid2d_laplacian(9, 9).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let pcg = Pcg::new(2, Schedule::Static);
        let (mut pre, report) =
            build_ladder_preconditioner(&sys, pcg.solver(), &RecoveryPolicy::default()).unwrap();
        assert_eq!(pre.label(), "ic0");
        assert!(!report.degraded);
        assert_eq!(report.shifts_tried, vec![0.0]);
        // The returned preconditioner drives an ordinary solve.
        let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
        assert!(out.converged);
    }

    #[test]
    fn setup_ladder_with_no_rungs_is_rejected() {
        let a = generators::grid2d_laplacian(6, 6).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let pcg = Pcg::new(1, Schedule::Static);
        let policy = RecoveryPolicy {
            shifts: vec![],
            row_boosts: vec![],
            allow_ssor: false,
            allow_identity: false,
            ..RecoveryPolicy::default()
        };
        // IC(0) itself still runs (the Laplacian factors), so this succeeds…
        let (pre, _) = build_ladder_preconditioner(&sys, pcg.solver(), &policy).unwrap();
        assert_eq!(pre.label(), "ic0");
    }

    #[test]
    fn structural_errors_do_not_descend_the_ladder() {
        let a = generators::grid2d_laplacian(8, 8).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let robust = RobustPcg::new(Pcg::new(2, Schedule::Static));
        let mut ws = KrylovWorkspace::new(sys.n());
        // Wrong-length b: a DimensionMismatch must propagate, not trigger
        // an SSOR retry that would also fail confusingly.
        let e = robust.solve(&sys, &[1.0; 3], &mut ws).unwrap_err();
        assert!(matches!(e, MatrixError::DimensionMismatch(_)));
    }

    #[test]
    fn ladder_with_no_rungs_is_rejected() {
        let a = generators::grid2d_laplacian(6, 6).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        // A policy that forbids every fallback still runs IC(0) itself.
        let policy = RecoveryPolicy {
            shifts: vec![],
            row_boosts: vec![],
            allow_ssor: false,
            allow_identity: false,
            ..RecoveryPolicy::default()
        };
        let robust = RobustPcg::with_policy(Pcg::new(1, Schedule::Static), policy);
        let b = vec![1.0; sys.n()];
        let mut ws = KrylovWorkspace::new(sys.n());
        // The Laplacian factors fine, so the fast path still succeeds.
        let out = robust.solve(&sys, &b, &mut ws).unwrap();
        assert!(out.outcome.converged);
        assert!(!out.report.degraded);
    }
}
