//! Order statistics over latency samples.

/// Sort a sample in place and return it (NaN-free inputs only).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Nearest-rank percentile `p` (0..=100) of an ascending sample; 0 when
/// the sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Mean of a sample; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentile a sample supports: `want` (e.g. 99) when at least
/// ten samples lie beyond it, otherwise the highest percentile that
/// leaves ten samples beyond it. Returns `(percentile, value)`.
pub fn tail(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len() as f64;
    let supported = if n > 10.0 { (100.0 * (1.0 - 10.0 / n)).max(50.0) } else { 50.0 };
    let p = want.min(supported);
    (p, percentile(sorted, p))
}

/// The reference job's time on an undisturbed core of the machine the
/// benchmark was calibrated on (2.1 GHz x86-64).
pub const NOMINAL_REFERENCE_S: f64 = 0.0006;

/// The machine's current speed relative to the nominal one: nominal
/// reference time over the fastest of seven reference jobs run now.
/// Interference only adds time, so the fastest job is the one least
/// disturbed. A figure measured next to it, multiplied by this factor,
/// is scaled to the nominal machine; on a shared machine whose speed
/// drifts with its neighbours' load this removes most of the drift
/// between runs.
pub fn speed() -> f64 {
    let fastest = (0..7).map(|_| reference_job()).fold(f64::INFINITY, f64::min);
    NOMINAL_REFERENCE_S / fastest
}

/// A fixed CPU job that uses no code of this repository and allocates
/// nothing: fill a 16 KiB array (it stays in the core's L1 cache) with
/// pseudo-random numbers and sort it, eight times. Timing it next to the
/// measured work gives the machine's current speed.
pub fn reference_job() -> f64 {
    let t = std::time::Instant::now();
    let mut z: u64 = 0x2545_F491_4F6C_DD1D;
    let mut values = [0u32; 4096];
    let mut sum = 0u64;
    for _ in 0..8 {
        for v in values.iter_mut() {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            *v = z as u32;
        }
        values.sort_unstable();
        sum = sum.wrapping_add(u64::from(values[values.len() / 2]));
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64()
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = sorted((1..=200).map(f64::from).collect());
        assert_eq!(tail(&s, 99.0).0, 95.0);
        let big = sorted((1..=5000).map(f64::from).collect());
        assert_eq!(tail(&big, 99.0), (99.0, 4950.0));
    }
}
