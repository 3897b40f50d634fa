//! Order statistics over timing samples.

/// How many samples must lie strictly beyond a reported percentile: a
/// percentile with fewer is mostly noise, so the helper refuses it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`.
///
/// Refuses (`Err`) when fewer than [`MIN_BEYOND`] samples lie beyond the
/// rank: `p95` needs at least 200 samples, `p50` at least 20.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a small sample set (mean of the middle pair when even); `NaN`
/// when empty. For repeated set-ups and probes, where too few samples exist
/// for [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&few, 95.0).is_err());
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&enough, 95.0).unwrap(), 190.0);
    }

    #[test]
    fn p50_needs_twenty_samples_and_ignores_order() {
        let mut v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).unwrap(), 10.0);
        v.pop();
        assert!(percentile(&v, 50.0).is_err());
        assert!(percentile(&v, 100.0).is_err());
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
