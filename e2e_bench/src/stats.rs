//! Order statistics with their sample counts.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer would let one outlier decide the value.
pub const MIN_BEYOND: usize = 10;

/// A percentile value and the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`. Refuses when
/// fewer than [`MIN_BEYOND`] samples lie above the chosen rank, so p50
/// needs 20 samples, p90 100 and p99 1000.
pub fn percentile(samples: &[f64], p: f64) -> Result<Pct, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The plain median of a few repetitions (set-up times); not a
/// percentile claim, so no sample floor.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean, 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `part / whole`, 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let p = percentile(&ramp(200), 50.0).unwrap();
        assert_eq!(
            p,
            Pct {
                value: 100.0,
                samples: 200
            }
        );
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!(
            p,
            Pct {
                value: 990.0,
                samples: 1000
            }
        );
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p50 of 20 leaves exactly 10 beyond: allowed; 19 leaves 9.
        assert!(percentile(&ramp(20), 50.0).is_ok());
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&ramp(100), 90.0).is_ok());
        assert!(percentile(&ramp(99), 90.0).is_err());
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(100);
        v.reverse();
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
