//! Correctness checks every measured operation passes through.

use std::fmt::Display;

use sts_matrix::{ops, CsrMatrix};

/// Largest accepted true relative residual `‖b − A·x‖ / ‖b‖`: ten times the
/// solver's default 1e-8 tolerance, which leaves room for recurrence drift.
pub const RESIDUAL_LIMIT: f64 = 1e-7;

/// True relative residual `‖b − A·x‖₂ / ‖b‖₂`, recomputed from `A` itself
/// rather than trusted from the solver's recurrence.
fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> Result<f64, String> {
    let ax = ops::spmv(a, x).map_err(|e| e.to_string())?;
    let diff: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    let b_norm = ops::norm2(b);
    if b_norm == 0.0 {
        return Err("right-hand side is zero".to_string());
    }
    Ok(ops::norm2(&diff) / b_norm)
}

/// Checks one solve: it must report convergence and its true residual must
/// be within [`RESIDUAL_LIMIT`].
pub fn check_solution(a: &CsrMatrix, b: &[f64], x: &[f64], converged: bool) -> Result<(), String> {
    if !converged {
        return Err("solve did not converge".to_string());
    }
    let residual = relative_residual(a, x, b)?;
    if residual.is_nan() || residual > RESIDUAL_LIMIT {
        return Err(format!(
            "true relative residual {residual:e} exceeds {RESIDUAL_LIMIT:e}"
        ));
    }
    Ok(())
}

/// Checks a solution bit for bit against a reference solution of the same
/// system (a served one against in process, a pooled one against 1 worker).
pub fn check_bitwise(x: &[f64], reference: &[f64]) -> Result<(), String> {
    if x.len() != reference.len() {
        return Err(format!(
            "x has {} entries, the reference has {}",
            x.len(),
            reference.len()
        ));
    }
    match x
        .iter()
        .zip(reference)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "x[{i}] = {:e} differs from the reference {:e}",
            x[i], reference[i]
        )),
    }
}

/// Attempted and failed operations. A failure is an error reply, a solve
/// that did not converge, or a failed check; each is counted, never hidden.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Records one operation's outcome, passing a success's value through.
    pub fn record<T, E: Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(e.to_string());
                }
                None
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted` (0 before any attempt).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The first failure's description, if any.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;
    use sts_serve::ClientError;

    #[test]
    fn residual_checker_rejects_a_perturbed_solution() {
        let a = generators::grid2d_laplacian(6, 5).unwrap();
        let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + i as f64 * 0.1).collect();
        let b = ops::spmv(&a, &x).unwrap();
        assert!(check_solution(&a, &b, &x, true).is_ok());
        let mut bad = x.clone();
        bad[7] *= 1.0 + 1e-5;
        assert!(check_solution(&a, &b, &bad, true).is_err());
        assert!(check_solution(&a, &b, &x, false).is_err());
    }

    #[test]
    fn bitwise_check_sees_a_single_ulp() {
        let x = vec![1.0, 2.0, 3.0];
        assert!(check_bitwise(&x, &x.clone()).is_ok());
        let mut y = x.clone();
        y[1] = f64::from_bits(y[1].to_bits() + 1);
        assert!(check_bitwise(&x, &y).is_err());
        assert!(check_bitwise(&x, &x[..2]).is_err());
    }

    #[test]
    fn failed_share_counts_error_replies_and_unconverged_solves() {
        let mut tally = Tally::default();
        assert_eq!(tally.record(Ok::<u32, String>(7)), Some(7));
        let reply: Result<(), ClientError> = Err(ClientError::Server {
            code: "unknown_pattern".to_string(),
            message: "evicted".to_string(),
        });
        assert!(tally.record(reply).is_none());
        let a = generators::grid2d_laplacian(3, 3).unwrap();
        let b = vec![1.0; 9];
        assert!(tally.record(check_solution(&a, &b, &b, false)).is_none());
        assert_eq!((tally.attempted(), tally.failed()), (3, 2));
        assert!((tally.failed_share() - 2.0 / 3.0).abs() < 1e-15);
        assert!(tally.first_failure().unwrap().contains("unknown_pattern"));
    }
}
