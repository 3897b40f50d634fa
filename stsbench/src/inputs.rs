//! Seeded input generation. Every right-hand side, value perturbation and
//! churn pattern is derived from `--seed`, so one seed always yields the same
//! inputs; the solver only ever sees the generated data.

use sts_matrix::{generators, CsrMatrix};

/// SplitMix64: a small, well-mixed generator with independent streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A right-hand side of length `n`, entries uniform in `[-1, 1)`.
    pub fn rhs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.unit() - 1.0).collect()
    }
}

/// Stream ids, so adding a consumer never shifts another's inputs.
pub mod stream {
    /// Right-hand sides of the main closed loop.
    pub const RHS: u64 = 1;
    /// Value perturbations of the refactor requests.
    pub const VALUES: u64 = 2;
    /// Churn patterns and their right-hand sides.
    pub const CHURN: u64 = 3;
    /// Vectors for the isolated layer probes.
    pub const PROBE: u64 = 4;
}

/// `a` with every diagonal entry scaled by `1 + 0.02·u`, `u` uniform in
/// `[0, 1)`: same pattern, still symmetric and diagonally dominant, so the
/// IC(0) ladder and PCG behave as on the original.
pub fn perturb_diagonal(a: &CsrMatrix, rng: &mut Rng) -> Result<CsrMatrix, String> {
    let mut values = a.values().to_vec();
    for row in 0..a.nrows() {
        let entries = a.row_ptr()[row]..a.row_ptr()[row + 1];
        for (v, &col) in values[entries.clone()]
            .iter_mut()
            .zip(&a.col_idx()[entries])
        {
            if col == row {
                *v *= 1.0 + 0.02 * rng.unit();
            }
        }
    }
    CsrMatrix::from_raw(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        values,
    )
    .map_err(|e| e.to_string())
}

/// Rows of one churn pattern.
const CHURN_N: usize = 20_000;
/// Target mean degree of one churn pattern.
const CHURN_DEGREE: f64 = 8.0;

/// The `index`-th churn case of a run: an irregular pattern (a random
/// geometric graph whose point set comes from the run seed, so no two
/// indices repeat) and a right-hand side for it.
pub fn churn_case(seed: u64, index: u64) -> Result<(CsrMatrix, Vec<f64>), String> {
    let mut rng = Rng::new(seed, stream::CHURN + (index << 8));
    let a = generators::random_geometric(CHURN_N, CHURN_DEGREE, rng.next_u64())
        .map_err(|e| e.to_string())?;
    let b = rng.rhs(a.nrows());
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Rng::new(7, stream::RHS).rhs(64);
        assert_eq!(a, Rng::new(7, stream::RHS).rhs(64));
        assert_ne!(a, Rng::new(8, stream::RHS).rhs(64));
        assert_ne!(a, Rng::new(7, stream::VALUES).rhs(64));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn perturbation_keeps_pattern_and_symmetry() {
        let a = generators::grid2d_laplacian(5, 4).unwrap();
        let p = perturb_diagonal(&a, &mut Rng::new(1, stream::VALUES)).unwrap();
        assert_eq!(p.col_idx(), a.col_idx());
        assert!(p.is_symmetric(0.0));
        assert_ne!(p.values(), a.values());
    }
}
