//! Order statistics over small samples: the estimators every reported
//! number goes through.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty sample. Non-finite values
/// are the caller's bug and sort last.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`; 0 for an empty sample (a run that measured
/// nothing has already failed its attempted-count check).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// A per-round series reduced to what a result file keeps: the median
/// across rounds (the reported value) and the quartiles `compare` uses
/// to tell a regression from noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median across rounds.
    pub median: f64,
    /// First quartile across rounds.
    pub q1: f64,
    /// Third quartile across rounds.
    pub q3: f64,
    /// Number of rounds.
    pub samples: usize,
}

impl Summary {
    /// Summarises one value per round.
    pub fn of_rounds(per_round: &[f64]) -> Summary {
        Summary {
            median: median(per_round),
            q1: percentile(per_round, 0.25).unwrap_or(0.0),
            q3: percentile(per_round, 0.75).unwrap_or(0.0),
            samples: per_round.len(),
        }
    }

    /// A single measurement with no spread of its own.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// The spread the reported median inherits from its rounds: their
    /// interquartile range as a share of the median, divided by the
    /// square root of their number (a median of `n` independent rounds
    /// varies about `1/√n` as widely as one round does). An estimate of
    /// the run-to-run spread from inside a single run.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 || self.samples == 0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs() / (self.samples as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(percentile(&v, 0.25), Some(1.75));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn p90_of_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 0.9).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn median_of_rounds_ignores_one_noisy_round() {
        // Nine steady rounds and one noisy-neighbour burst: the burst
        // must not move the reported value.
        let mut rounds = vec![100.0; 9];
        rounds.push(10.0);
        let s = Summary::of_rounds(&rounds);
        assert_eq!(s.median, 100.0);
        assert_eq!(s.samples, 10);
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median_over_root_n() {
        let s = Summary::of_rounds(&[90.0, 100.0, 110.0, 100.0, 100.0]);
        assert_eq!(s.median, 100.0);
        assert_eq!(s.q1, 100.0);
        assert_eq!(s.q3, 100.0);
        let wide = Summary::of_rounds(&[80.0, 90.0, 100.0, 110.0]);
        // Quartiles 87.5 and 102.5 around a median of 95, four rounds.
        assert!((wide.spread() - 15.0 / 95.0 / 2.0).abs() < 1e-12);
        assert_eq!(Summary::single(3.0).spread(), 0.0);
    }
}
