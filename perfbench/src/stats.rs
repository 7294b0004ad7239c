//! Order statistics over host-time samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints
//! match the ones a reader recomputes from its JSON output.

/// Sorted copy of `xs` (NaN-free input; panics on NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `xs`; the mean of the middle pair for even lengths.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points `[q1, q2, q3]` of `statistics.quantiles(xs, n=4)`.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are compared against.
#[must_use]
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2
}

/// Linear-interpolated percentile `p` (0–100) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `0..=100`.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let v = sorted(xs);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest of the usual reporting percentiles (50, 75, 90, 99, 99.9)
/// that leaves at least ten of `n` samples beyond it, or `None` when even
/// the median has fewer than ten samples above it.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (100.0 - p) * n as f64 >= 1000.0 - 1e-6)
}
