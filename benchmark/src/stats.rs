//! The benchmark's only order statistics: one `quantile`, used for every
//! latency percentile, every median of repetitions and every quartile a
//! report prints.

/// The `q`-quantile of `sorted` (ascending) by linear interpolation between
/// the two nearest ranks — the "inclusive" definition, so `q = 0.5` of an
/// even-length sample is the mean of the middle pair and the result never
/// leaves `[min, max]`.
///
/// # Panics
/// Panics on an empty sample or a `q` outside `[0, 1]`: both are harness
/// bugs, not measurements.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` and returns them (NaNs are harness bugs and panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Median, quartiles and count of a sample of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let s = sorted(values.to_vec());
        Spread {
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            n: s.len(),
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// regression bounds are compared against.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A latency phase summarised the way every phase of this benchmark is:
/// the samples are cut into `windows` consecutive windows, each window's
/// percentile is taken, and the phase reports the median window.  A stall
/// of the shared host lands in one window and moves the phase's number by
/// at most one rank, where a single pooled percentile would carry it whole.
pub fn windowed_quantile(samples: &[f64], windows: usize, q: f64) -> f64 {
    assert!(!samples.is_empty(), "windowed quantile of an empty sample");
    let windows = windows.clamp(1, samples.len());
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            let lo = w * samples.len() / windows;
            let hi = (w + 1) * samples.len() / windows;
            quantile(&sorted(samples[lo..hi].to_vec()), q)
        })
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_stays_in_range() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        // Matches Python's statistics.quantiles(..., method="inclusive").
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.25), 3.25);
        assert_eq!(quantile(&ten, 0.75), 7.75);
    }

    #[test]
    fn spread_reports_quartiles_and_relative_iqr() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        assert!((s.relative_iqr() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_quantile_shrugs_off_one_stalled_window() {
        let mut samples = vec![10.0; 800];
        for s in &mut samples[100..200] {
            *s = 1000.0;
        }
        assert_eq!(windowed_quantile(&samples, 8, 0.95), 10.0);
        assert_eq!(windowed_quantile(&[5.0, 6.0], 8, 0.5), 5.5);
    }
}
