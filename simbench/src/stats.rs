//! Small order statistics over measured samples.

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile (0 < p ≤ 1) of integer samples.
pub fn quantile_u32(values: &mut [u32], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    let (_, x, _) = values.select_nth_unstable(rank - 1);
    f64::from(*x)
}

/// The nearest-rank `p`-quantile (0 < p ≤ 1) of real samples.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
