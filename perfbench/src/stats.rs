//! The benchmark's own arithmetic: percentiles with their tail-sample
//! count, the geometric mean of ratios, and medians.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q·n` samples at or below it. `q` is in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted values (mean of the middle two for even `n`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency distribution, reported the way the benchmark
/// reports every timing: the highest whole percentile, at most p99, that
/// still has at least [`MIN_TAIL_SAMPLES`] samples strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, in percent (e.g. `99.0`).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples lie strictly beyond it (at least ten).
    pub beyond: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// [`Tail`] of an ascending slice, or `None` when there are too few
/// samples for even the median to have ten beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n < 2 * MIN_TAIL_SAMPLES {
        return None;
    }
    // Largest whole percent p ≤ 99 with n·(1 − p/100) ≥ 10; integer
    // arithmetic keeps the boundary exact (n = 1000 gives exactly p99).
    let pct = (100 - (100 * MIN_TAIL_SAMPLES).div_ceil(n)).min(99);
    let rank = (pct * n).div_ceil(100);
    Some(Tail {
        pct: pct as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// Geometric mean of `num/den` over pairs. This is how the paper
/// aggregates per-program speedups, and it is invariant to which program
/// dominates in absolute cycles.
///
/// # Panics
///
/// Panics on an empty slice or a zero in either position.
pub fn geomean_ratio(pairs: &[(u64, u64)]) -> f64 {
    assert!(!pairs.is_empty(), "geomean of no ratios");
    let log_sum: f64 = pairs
        .iter()
        .map(|&(num, den)| {
            assert!(num > 0 && den > 0, "ratio {num}/{den} has a zero");
            (num as f64).ln() - (den as f64).ln()
        })
        .sum();
    (log_sum / pairs.len() as f64).exp()
}

/// Count, p50, p99 and sum of a set of durations, as the per-layer
/// metrics report them. The p99 is nearest-rank over all samples even
/// when fewer than a thousand exist; the count says how much to trust it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Sum of all samples.
    pub sum: f64,
}

/// [`Summary`] of unsorted values; all zero when there are none.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        count: v.len(),
        p50: percentile(&v, 0.5),
        p99: percentile(&v, 0.99),
        sum: v.iter().sum(),
    }
}

/// The quieter half (rounded up) of `items`, ranked by the share of CPU
/// time the hypervisor stole while each was measured; ties keep their
/// order. On a shared host, another tenant's burst slows every timing in
/// its path by far more than any change under test; dropping the
/// noisiest half of the sub-windows (ranked by that external signal,
/// never by the measured value) keeps such bursts out of the medians
/// unless they cover most of a run.
pub fn quieter_half<T>(mut items: Vec<(f64, T)>) -> Vec<T> {
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = items.len().div_ceil(2);
    items.into_iter().take(keep).map(|(_, t)| t).collect()
}

/// Requests a sub-window needs before it counts.
pub const MIN_WINDOW_SAMPLES: usize = 20;

/// Latency and rate of a closed-loop client over the quieter half of its
/// sub-windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over kept sub-windows of the sub-window's median latency.
    pub p50: f64,
    /// Median over kept sub-windows of the sub-window's 90th percentile.
    pub p90: f64,
    /// Median over kept sub-windows of requests started per second.
    pub per_s: f64,
    /// Sub-windows kept.
    pub windows: usize,
}

/// Split requests (`(start offset in s, latency)` pairs) into sub-windows
/// of `len` seconds by start time, one per entry of `steal` (the stolen
/// CPU share during that sub-window). Sub-windows with fewer than
/// [`MIN_WINDOW_SAMPLES`] requests are skipped, the [`quieter_half`] of
/// the rest is kept, and the result is the median of their p50s, p90s
/// and rates. `None` if no sub-window qualifies.
pub fn windowed(requests: &[(f64, f64)], len: f64, steal: &[f64]) -> Option<Windowed> {
    let n = steal.len();
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(start, lat) in requests {
        let i = (start / len).floor();
        if i >= 0.0 && (i as usize) < n {
            buckets[i as usize].push(lat);
        }
    }
    let mut scored = Vec::new();
    for (mut b, &st) in buckets.into_iter().zip(steal) {
        if b.len() < MIN_WINDOW_SAMPLES {
            continue;
        }
        b.sort_by(f64::total_cmp);
        let rate = b.len() as f64 / len;
        scored.push((st, (percentile(&b, 0.5), percentile(&b, 0.9), rate)));
    }
    let kept = quieter_half(scored);
    if kept.is_empty() {
        return None;
    }
    let pick = |f: fn(&(f64, f64, f64)) -> f64| median(&kept.iter().map(f).collect::<Vec<_>>());
    Some(Windowed {
        p50: pick(|w| w.0),
        p90: pick(|w| w.1),
        per_s: pick(|w| w.2),
        windows: kept.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p99_once_a_thousand_samples_exist() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.beyond, 50);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        // 999 samples: p99 would leave only 9 beyond it.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.pct, 98.0);
        assert!(t.beyond >= MIN_TAIL_SAMPLES);
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        let t = tail(&ramp(20)).unwrap();
        assert_eq!(t.pct, 50.0);
        assert_eq!(t.beyond, 10);
        assert!(tail(&ramp(19)).is_none());
    }

    #[test]
    fn tail_always_leaves_at_least_ten_beyond() {
        for n in 20..3000 {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= MIN_TAIL_SAMPLES, "n={n}: {t:?}");
            assert!(t.pct <= 99.0);
            // And the next whole percentile up would leave fewer than ten.
            if t.pct < 99.0 {
                let next = (t.pct as usize + 1) * n;
                assert!(n - next.div_ceil(100) < MIN_TAIL_SAMPLES, "n={n}: {t:?}");
            }
        }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean_ratio(&[(2, 1), (1, 2)]) - 1.0).abs() < 1e-12);
        assert!((geomean_ratio(&[(4, 1), (1, 1)]) - 2.0).abs() < 1e-12);
        assert!((geomean_ratio(&[(300, 100)]) - 3.0).abs() < 1e-12);
        // Scale-free: multiplying one program's cycles by k moves the
        // geomean by k^(1/n), whatever that program's magnitude.
        let a = geomean_ratio(&[(10, 5), (1_000_000, 1_000_000)]);
        let b = geomean_ratio(&[(20, 5), (1_000_000, 1_000_000)]);
        assert!((b / a - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quieter_half_ranks_by_steal_and_keeps_ties_in_order() {
        let kept = quieter_half(vec![
            (0.3, 'a'),
            (0.0, 'b'),
            (0.1, 'c'),
            (0.0, 'd'),
            (0.9, 'e'),
        ]);
        assert_eq!(kept, vec!['b', 'd', 'c']);
        assert_eq!(quieter_half(vec![(5.0, 1)]), vec![1]);
        assert!(quieter_half::<u8>(Vec::new()).is_empty());
    }

    #[test]
    fn windowed_takes_medians_over_the_quieter_windows() {
        // Four 1-second windows of 40 requests. Window 1 stalls while the
        // host steals CPU; window 3 is slow with no steal and is kept.
        let mut reqs = Vec::new();
        for w in 0..4 {
            for i in 0..40 {
                let lat = match w {
                    1 => 100.0,
                    3 => 2.0 * (i + 1) as f64,
                    _ => (i + 1) as f64,
                };
                reqs.push((w as f64 + i as f64 / 40.0, lat));
            }
        }
        let got = windowed(&reqs, 1.0, &[0.0, 0.5, 0.0, 0.01]).unwrap();
        assert_eq!(got.windows, 2);
        assert_eq!(got.p50, 20.0);
        assert_eq!(got.p90, 36.0);
        assert_eq!(got.per_s, 40.0);
        let got = windowed(&reqs, 1.0, &[0.0, 0.0, 0.1, 0.1]).unwrap();
        assert_eq!(got.p50, 60.0, "median of 20 and 100");
    }

    #[test]
    fn windowed_skips_thin_and_out_of_range_windows() {
        let mut reqs: Vec<(f64, f64)> = (0..30).map(|i| (0.5, i as f64)).collect();
        reqs.extend((0..5).map(|_| (1.5, 1000.0))); // too few to count
        reqs.push((7.0, 1000.0)); // past the last window
        reqs.push((-1.0, 1000.0));
        let got = windowed(&reqs, 1.0, &[0.9, 0.0]).unwrap();
        assert_eq!(got.windows, 1);
        assert_eq!(got.p50, 14.0);
        assert_eq!(got.per_s, 30.0);
        assert!(windowed(&reqs[30..], 1.0, &[0.0, 0.0]).is_none());
    }

    #[test]
    fn summary_of_durations() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.sum, 9.0);
        assert_eq!(summarize(&[]), Summary::default());
    }
}
