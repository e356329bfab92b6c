//! Latency percentiles that refuse to extrapolate.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! strictly beyond it; otherwise the tail is too thin for the figure to mean
//! anything and the caller gets an error naming the shortfall. Every
//! reported latency carries its sample count. Figures cover the whole
//! timed phase; where a workload repeats identical requests, latencies are
//! summarised through each request's [`REQUEST_QUANTILE`].

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A latency summary: the value at one quantile plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the quantile (nearest rank).
    pub value: f64,
    /// Number of samples the quantile was taken from.
    pub n: usize,
}

/// The `q`-quantile of `samples` by the nearest-rank method: the sample at
/// 1-based rank `ceil(q * n)` of the sorted samples.
///
/// # Errors
///
/// Fewer than [`MIN_BEYOND`] samples beyond that rank, a `q` outside
/// `(0, 1]`, or a non-finite sample.
pub fn quantile(samples: &[f64], q: f64) -> Result<Quantile, String> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(format!("quantile {q} outside (0, 1]"));
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err("non-finite latency sample".to_owned());
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Quantile {
        value: sorted[rank - 1],
        n,
    })
}

/// One latency sample: its value and, where the workload repeats
/// identical requests, which request it timed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Latency, milliseconds.
    pub ms: f64,
    /// The distinct request timed, on workloads that repeat each request
    /// dozens of times a run (`serve`, `ingest`); `None` elsewhere.
    pub key: Option<u64>,
}

/// Samples a mean asks for.
const MIN_FOR_MEAN: usize = 20;

/// The mean of all samples of a timed phase. Whole-run figures are the
/// steadiest this shared machine gives: its speed drifts over seconds as
/// other tenants come and go, and a whole run averages the drift where a
/// figure taken from a few seconds of it follows the drift. Unlike a
/// median, a mean moves smoothly when a request type mixes columns or
/// codecs of very different cost.
///
/// # Errors
///
/// Fewer than [`MIN_FOR_MEAN`] samples, or a non-finite sample.
pub fn mean(samples: &[Sample]) -> Result<Quantile, String> {
    if samples.len() < MIN_FOR_MEAN || samples.iter().any(|s| !s.ms.is_finite()) {
        return Err(format!(
            "a mean needs {MIN_FOR_MEAN} finite samples; got {}",
            samples.len()
        ));
    }
    Ok(Quantile {
        value: samples.iter().map(|s| s.ms).sum::<f64>() / samples.len() as f64,
        n: samples.len(),
    })
}

/// The median of a small set of repeated measurements (set-up times),
/// with no tail requirement: the mean of the two
/// middle values for even counts.
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The quantile of a request's own repetitions that stands for its cost.
///
/// This machine's vCPUs are shared with other tenants, and every request
/// runs in one of two speed modes about a third apart, in proportions that
/// change from minute to minute. A request's median then falls in one mode
/// or the other from run to run, and a mean follows the proportions; its
/// 5th percentile sits at the floor of the fast mode, which a request
/// repeated dozens of times reaches in every run. So the figure is the
/// request's cost when the machine leaves it alone.
pub const REQUEST_QUANTILE: f64 = 0.05;

/// Each sample's latency replaced by the [`REQUEST_QUANTILE`] (nearest
/// rank) of its request's latencies (the samples sharing its key), in
/// sample order.
///
/// # Errors
///
/// A sample without a key, or a non-finite sample.
fn request_floors(samples: &[Sample]) -> Result<Vec<f64>, String> {
    let mut by_key: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in samples {
        if !s.ms.is_finite() {
            return Err("non-finite latency sample".to_owned());
        }
        let key = s.key.ok_or("a sample names no request")?;
        by_key.entry(key).or_default().push(s.ms);
    }
    let floors: BTreeMap<u64, f64> = by_key
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_by(f64::total_cmp);
            let rank = ((REQUEST_QUANTILE * v.len() as f64).ceil() as usize).max(1);
            (k, v[rank - 1])
        })
        .collect();
    Ok(samples
        .iter()
        .map(|s| floors[&s.key.expect("checked above")])
        .collect())
}

/// The mean over requests of their [`REQUEST_QUANTILE`] latencies,
/// weighted by how often each ran: the mean latency of the mix with every
/// request at its cost on an otherwise idle machine.
///
/// # Errors
///
/// Fewer than [`MIN_FOR_MEAN`] samples, or as [`request_floors`].
pub fn request_mean(samples: &[Sample]) -> Result<Quantile, String> {
    if samples.len() < MIN_FOR_MEAN {
        return Err(format!(
            "a mean needs {MIN_FOR_MEAN} samples; got {}",
            samples.len()
        ));
    }
    let floors = request_floors(samples)?;
    Ok(Quantile {
        value: floors.iter().sum::<f64>() / floors.len() as f64,
        n: samples.len(),
    })
}

/// The `q`-quantile of the samples with every latency replaced by its
/// request's [`REQUEST_QUANTILE`]: the tail of the mix's costs, as
/// [`request_mean`] is its mean.
///
/// # Errors
///
/// As [`quantile`] and [`request_floors`].
pub fn request_quantile(samples: &[Sample], q: f64) -> Result<Quantile, String> {
    quantile(&request_floors(samples)?, q)
}

/// Whether a series is summarised per request: every sample names the
/// request it timed.
fn keyed(samples: &[Sample]) -> bool {
    !samples.is_empty() && samples.iter().all(|s| s.key.is_some())
}

/// The mean a latency series reports: [`request_mean`] where its samples
/// name their requests, else [`mean`].
///
/// # Errors
///
/// As the chosen summary.
pub fn series_mean(samples: &[Sample]) -> Result<Quantile, String> {
    if keyed(samples) {
        request_mean(samples)
    } else {
        mean(samples)
    }
}

/// The `q`-quantile a latency series reports: [`request_quantile`] where
/// its samples name their requests, else the [`quantile`] of all samples.
///
/// # Errors
///
/// As the chosen summary.
pub fn series_quantile(samples: &[Sample], q: f64) -> Result<Quantile, String> {
    if keyed(samples) {
        request_quantile(samples, q)
    } else {
        quantile(&samples.iter().map(|s| s.ms).collect::<Vec<_>>(), q)
    }
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`), following
/// the library's own `CacheStats::hit_rate` convention.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(100);
        assert_eq!(
            quantile(&s, 0.5).unwrap(),
            Quantile {
                value: 50.0,
                n: 100
            }
        );
        assert_eq!(quantile(&s, 0.9).unwrap().value, 90.0);
        let s = ramp(1000);
        assert_eq!(quantile(&s, 0.99).unwrap().value, 990.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut s = ramp(200);
        s.reverse();
        assert_eq!(quantile(&s, 0.5).unwrap().value, 100.0);
    }

    #[test]
    fn refuses_thin_tails() {
        // p99 of 999 samples: rank 990, 9 beyond — refused.
        assert!(quantile(&ramp(999), 0.99).is_err());
        // p99 of 1000 samples: rank 990, exactly 10 beyond — reported.
        assert!(quantile(&ramp(1000), 0.99).is_ok());
        // A median needs 20 samples (rank 10, 10 beyond).
        assert!(quantile(&ramp(19), 0.5).is_err());
        assert!(quantile(&ramp(20), 0.5).is_ok());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(quantile(&ramp(100), 0.0).is_err());
        assert!(quantile(&ramp(100), 1.5).is_err());
        let mut s = ramp(100);
        s[3] = f64::NAN;
        assert!(quantile(&s, 0.5).is_err());
    }

    fn sample(ms: f64) -> Sample {
        Sample { ms, key: None }
    }

    fn keyed_sample(ms: f64, key: u64) -> Sample {
        Sample { ms, key: Some(key) }
    }

    #[test]
    fn mean_of_all_samples() {
        let s: Vec<Sample> = (0..30).map(|i| sample(i as f64)).collect();
        assert_eq!(mean(&s).unwrap(), Quantile { value: 14.5, n: 30 });
        assert!(mean(&s[..19]).is_err());
        let mut bad = s.clone();
        bad[0].ms = f64::INFINITY;
        assert!(mean(&bad).is_err());
    }

    #[test]
    fn request_summaries_use_each_requests_floor() {
        // Request 0 runs 30 times: twice at 0.5 ms, 14 times at 1 ms and
        // 14 times slowed to 9 ms; its p5 is rank ceil(1.5) = 2 of the
        // sorted 30: 0.5. Request 1 runs 10 times at 4 ms, one slowed to
        // 20 ms; its p5 is rank 1: 4. The weighted mean is
        // (30 × 0.5 + 10 × 4) / 40.
        let request0 = [vec![9.0; 14], vec![1.0; 14], vec![0.5; 2]].concat();
        let mut s: Vec<Sample> = request0.into_iter().map(|ms| keyed_sample(ms, 0)).collect();
        s.extend((0..10).map(|i| keyed_sample(if i == 0 { 20.0 } else { 4.0 }, 1)));
        let m = request_mean(&s).unwrap();
        assert_eq!(m.n, 40);
        assert!((m.value - 55.0 / 40.0).abs() < 1e-12, "{}", m.value);
        // p50 of 30 halves and 10 fours is 0.5; p75 (rank 30, 10 beyond)
        // is still 0.5; nothing above p75 has 10 samples beyond it.
        assert_eq!(request_quantile(&s, 0.5).unwrap().value, 0.5);
        assert_eq!(request_quantile(&s, 0.75).unwrap().value, 0.5);
        assert!(request_quantile(&s, 0.8).is_err());
        // Too few samples for a mean, or a sample without a request.
        assert!(request_mean(&s[..19]).is_err());
        s[5].key = None;
        assert!(request_floors(&s).is_err());
    }

    #[test]
    fn series_summaries_follow_the_keys() {
        // Unkeyed samples get the summaries of all samples, keyed ones the
        // per-request summaries.
        let plain: Vec<Sample> = (1..=40).map(|i| sample(i as f64)).collect();
        assert_eq!(series_mean(&plain), mean(&plain));
        assert_eq!(series_quantile(&plain, 0.5).unwrap().value, 20.0);
        let keyed: Vec<Sample> = (0..40).map(|i| keyed_sample(i as f64, i % 2)).collect();
        assert_eq!(series_mean(&keyed), request_mean(&keyed));
        assert_eq!(series_quantile(&keyed, 0.5), request_quantile(&keyed, 0.5));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
