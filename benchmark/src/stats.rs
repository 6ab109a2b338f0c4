//! Order statistics: percentiles within one window, medians across
//! windows, and the quartile spread `compare` judges run-to-run noise by.

/// The `q` quantile (`0..=1`) of `values` by nearest rank on the sorted
/// sample; `values` is sorted in place. Empty input gives 0.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values` (mean of the two middle values when the count
/// is even). Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is how the spread of a set
/// of runs is defined. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4, 1-based, clamped into the sample and
        // interpolated linearly.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread of one metric. `None` with fewer than two values or a zero
/// median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Samples of one phase bucketed into windows of one second, so that
/// each figure is a median over windows and one scheduling hiccup cannot
/// move it.
pub struct Windows {
    width_us: u64,
    windows: Vec<Window>,
}

#[derive(Default, Clone)]
struct Window {
    latencies_us: Vec<f64>,
    bytes: u64,
}

/// What a phase measured, window by window.
pub struct WindowSummary {
    /// Windows the figures are medians over.
    pub windows: usize,
    /// Operations completed in those windows.
    pub samples: usize,
    pub ops_per_s: f64,
    pub mib_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Operations per second and p99 of each window, in order: how
    /// steady the phase was.
    pub ops_by_window: Vec<f64>,
    pub p99_by_window: Vec<f64>,
}

impl Windows {
    /// One window per whole second of `duration`, at least one, sharing
    /// it equally.
    pub fn new(duration: std::time::Duration) -> Windows {
        let count = (duration.as_secs() as usize).max(1);
        Windows {
            width_us: (duration.as_micros() as u64 / count as u64).max(1),
            windows: vec![Window::default(); count],
        }
    }

    /// Records an operation that completed `at_us` into the phase after
    /// `latency_us`, having delivered `bytes` checked bytes. Completions
    /// past the last window (the drain after the phase's end) are left
    /// out.
    pub fn record(&mut self, at_us: u64, latency_us: f64, bytes: u64) {
        if let Some(w) = self.windows.get_mut((at_us / self.width_us) as usize) {
            w.latencies_us.push(latency_us);
            w.bytes += bytes;
        }
    }

    pub fn summarize(&mut self) -> WindowSummary {
        let per_s = 1e6 / self.width_us as f64;
        let mut ops = Vec::new();
        let mut mib = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut samples = 0;
        for w in &mut self.windows {
            samples += w.latencies_us.len();
            ops.push(w.latencies_us.len() as f64 * per_s);
            mib.push(w.bytes as f64 * per_s / (1024.0 * 1024.0));
            if !w.latencies_us.is_empty() {
                p50.push(percentile(&mut w.latencies_us, 0.50));
                p99.push(percentile(&mut w.latencies_us, 0.99));
            }
        }
        WindowSummary {
            windows: self.windows.len(),
            samples,
            ops_per_s: median(&ops),
            ops_by_window: ops.clone(),
            p99_by_window: p99.clone(),
            mib_per_s: median(&mib),
            p50_us: median(&p50),
            p99_us: median(&p99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn window_medians_ignore_one_bad_window() {
        let mut w = Windows::new(Duration::from_secs(3));
        for i in 0..100u64 {
            w.record(i * 10_000, 100.0, 1024);
            // The middle window is stalled: few, slow completions.
            if i < 10 {
                w.record(1_000_000 + i * 100_000, 9_000.0, 1024);
            }
            w.record(2_000_000 + i * 10_000, 102.0, 1024);
        }
        // Past the last window: ignored.
        w.record(3_000_001, 1e9, 1);
        let mut short = Windows::new(Duration::from_millis(250));
        short.record(100_000, 5.0, 0);
        let s = short.summarize();
        assert_eq!((s.windows, s.ops_per_s, s.p50_us), (1, 4.0, 5.0));
        let s = w.summarize();
        assert_eq!((s.windows, s.samples), (3, 210));
        assert_eq!(s.ops_per_s, 100.0);
        assert_eq!(s.p50_us, 102.0);
        assert_eq!(s.p99_us, 102.0);
        assert!((s.mib_per_s - 100.0 / 1024.0).abs() < 1e-9);
    }
}
