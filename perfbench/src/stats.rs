//! The arithmetic behind the reported figures.

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Parallel efficiency of one pass: busy time summed over sessions,
/// divided by the time the workers were available (`workers × wall`).
/// 1.0 means no worker ever idled.
pub fn efficiency(busy_s: f64, workers: usize, wall_s: f64) -> f64 {
    busy_s / (workers as f64 * wall_s)
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// never reaches).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of `values`, 0 for none.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    ratio(sum, count as f64)
}
