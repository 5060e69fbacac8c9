//! Order statistics over latency samples.

/// Percentile `p` (0..=100) by nearest rank over an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// The ladder a tail percentile is chosen from.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest ladder percentile with at least ten samples beyond it:
/// `(percentile, value, samples beyond)`.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    let mut best = (TAIL_LADDER[0], percentile(sorted, TAIL_LADDER[0]));
    for p in TAIL_LADDER {
        if (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0 {
            best = (p, percentile(sorted, p));
        }
    }
    let beyond = sorted.iter().filter(|&&x| x > best.1).count();
    (best.0, best.1, beyond)
}
