//! Median, quartile and percentile helpers. Expected quartiles are the
//! values Python's `statistics.quantiles(xs, n=4)` returns.

use thoth_perfbench::stats::{median, percentile, quartiles, relative_spread, tail_percentile};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_and_even_lengths() {
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    assert!(close(median(&[7.0]), 7.0));
}

#[test]
fn quartiles_match_python_exclusive_method() {
    let cases: [(&[f64], [f64; 3]); 5] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
        (&[5.0, 1.0], [0.0, 3.0, 6.0]),
        (&[3.5, 1.25, 9.0, 2.0, 7.75], [1.625, 3.5, 8.375]),
        (&[4.0, 4.0, 4.0], [4.0, 4.0, 4.0]),
    ];
    for (xs, want) in cases {
        let got = quartiles(xs);
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{xs:?}: got {got:?}, want {want:?}");
        }
    }
    assert_eq!(quartiles(&[2.5]), [2.5; 3]);
}

#[test]
fn relative_spread_is_iqr_over_median() {
    let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    assert!(close(relative_spread(&xs), (8.25 - 2.75) / 5.5));
    assert!(close(relative_spread(&[3.0, 3.0, 3.0]), 0.0));
}

#[test]
fn percentile_interpolates_between_ranks() {
    let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert!(close(percentile(&xs, 0.0), 10.0));
    assert!(close(percentile(&xs, 50.0), 30.0));
    assert!(close(percentile(&xs, 100.0), 50.0));
    assert!(close(percentile(&xs, 75.0), 40.0));
    assert!(close(percentile(&xs, 90.0), 46.0));
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(5), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}
