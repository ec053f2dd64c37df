//! Order statistics over measured samples.

/// The samples in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    // fhp-audit: allow(float-in-ordering) — orders measured samples for percentiles; never feeds program output
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (`0..=100`), interpolating linearly between the
/// closest ranks; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    let frac = rank - lo as f64;
    match (v.get(lo), v.get(hi)) {
        (Some(a), Some(b)) => a + (b - a) * frac,
        _ => 0.0,
    }
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The first and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default `exclusive`
/// method), so spreads read the same as in external tooling.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / n).clamp(1, ld - 1);
        // i·m − j·n may be negative after clamping (extrapolation), as in Python.
        let delta = (i * m) as f64 - (j * n) as f64;
        match (v.get(j - 1), v.get(j)) {
            (Some(a), Some(b)) => (a * (n as f64 - delta) + b * delta) / n as f64,
            _ => 0.0,
        }
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (`inf` when the median
/// is 0 but the quartiles differ).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if q3 == q1 {
        0.0
    } else if med == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 6.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
