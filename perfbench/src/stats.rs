//! Order statistics and open-loop accounting shared by every workload.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`): the smallest
/// sample with at least a `q` share of the samples at or below it. Sorts
/// a copy; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median as the midpoint of the two central samples (so two
/// samples give their mean, not the lower one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The mean of the middle half of `values`: a quarter of the samples
/// (rounded down) is dropped from each end. Outliers do not move it, and
/// when the samples come from two modes, as a host that switches between
/// a fast and a slow state gives, it moves with their mixture instead of
/// jumping from one mode to the other as the median does. One to three
/// samples give their mean.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The interquartile mean over consecutive windows of each window's
/// quantile `q`: `samples` are `(time, value)` pairs, grouped into
/// windows of `window` by time. A burst of noise then moves one window's
/// figure, which the interquartile mean drops, not the result.
pub fn windowed_quantile(samples: &[(f64, f64)], window: f64, q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let w = (t / window).max(0.0) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(v);
    }
    let each: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    interquartile_mean(&each)
}

/// Nearest-rank quantile `q` of the observations a cumulative histogram
/// gained between two snapshots, each a list of `(upper bound,
/// cumulative count)` over the same bounds: the upper bound of the
/// bucket holding it, the largest finite bound for the catch-all bucket,
/// and `0.0` if nothing was added.
pub fn bucket_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> f64 {
    let gained: Vec<(f64, f64)> = after
        .iter()
        .zip(before)
        .map(|(&(le, now), &(_, then))| (le, now - then))
        .collect();
    let total = gained.last().map_or(0.0, |&(_, n)| n);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (q * total).ceil().clamp(1.0, total);
    let largest_finite = gained
        .iter()
        .map(|&(le, _)| le)
        .filter(|le| le.is_finite())
        .fold(0.0, f64::max);
    gained
        .iter()
        .find(|&&(_, n)| n >= rank)
        .map_or(largest_finite, |&(le, _)| le.min(largest_finite))
}

/// How one scheduled open-loop request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// A 2xx answer.
    Answered,
    /// A typed admission refusal (`429`/`503`).
    Refused,
    /// Any other status, or no answer at all.
    Failed,
}

/// One scheduled request of an open-loop run. Times are seconds from the
/// start of the schedule.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the sender actually sent it (never before `due`).
    pub sent: f64,
    /// When its answer (or failure) was complete.
    pub done: f64,
    /// How it ended.
    pub fate: Fate,
}

impl Sent {
    /// Latency counted from the due time, so a stalled sender charges
    /// its wait to every request queued behind it. A request that was
    /// not answered misses any latency limit: it counts as `penalty`
    /// seconds when that is longer than its measured time.
    pub fn latency(&self, penalty: f64) -> f64 {
        let measured = (self.done - self.due).max(0.0);
        match self.fate {
            Fate::Answered => measured,
            Fate::Refused | Fate::Failed => measured.max(penalty),
        }
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// A fixed-rate arrival schedule: every due time before `until`, one
/// each `1 / rate` seconds, the first `phase / rate` seconds in (`phase`
/// in `(0, 1]`).
pub fn paced_schedule(rate: f64, until: f64, phase: f64) -> Vec<f64> {
    (0u32..)
        .map(|i| (f64::from(i) + phase) / rate)
        .take_while(|&t| t < until)
        .collect()
}

/// A uniform draw in `(0, 1]` from a 64-bit random word.
pub fn unit_interval(word: u64) -> f64 {
    ((word >> 11) + 1) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[3.0]), 3.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0]), 1.5);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 4.0, 0.0]), 3.0);
        // Two modes: the median sits on one of them, the mean of the
        // middle half between them, by their shares.
        let mix = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0];
        assert_eq!(median(&mix), 1.0);
        assert_eq!(interquartile_mean(&mix), 1.25);
    }

    #[test]
    fn windowed_quantile_drops_the_outlying_windows() {
        // Four windows of ten samples; the second is slow throughout,
        // the last has one outlier that dominates its p99.
        let mut samples = Vec::new();
        for i in 0..10 {
            let t = f64::from(i) * 0.1;
            samples.push((t, 1.0));
            samples.push((t + 1.0, 5.0));
            samples.push((t + 2.0, 2.0));
            samples.push((t + 3.0, if i == 9 { 100.0 } else { 3.0 }));
        }
        // Per-window medians 1, 5, 2, 3: the middle two average to 2.5.
        assert_eq!(windowed_quantile(&samples, 1.0, 0.5), 2.5);
        // Per-window p99s 1, 5, 2, 100: the outlier window is dropped.
        assert_eq!(windowed_quantile(&samples, 1.0, 0.99), 3.5);
        // One window is a plain quantile.
        assert_eq!(windowed_quantile(&samples, 10.0, 0.99), 100.0);
        assert_eq!(windowed_quantile(&[], 1.0, 0.5), 0.0);
    }

    #[test]
    fn bucket_quantile_reads_only_the_gained_observations() {
        let inf = f64::INFINITY;
        // Before: 10 observations, all ≤ 100. After: 3 more ≤ 100, 4 in
        // (100, 300], 2 in (300, 1000] and 1 beyond every bound.
        let before = [(100.0, 10.0), (300.0, 10.0), (1000.0, 10.0), (inf, 10.0)];
        let after = [(100.0, 13.0), (300.0, 17.0), (1000.0, 19.0), (inf, 20.0)];
        assert_eq!(bucket_quantile(&before, &after, 0.3), 100.0);
        assert_eq!(bucket_quantile(&before, &after, 0.5), 300.0);
        assert_eq!(bucket_quantile(&before, &after, 0.9), 1000.0);
        assert_eq!(bucket_quantile(&before, &after, 1.0), 1000.0);
        // Nothing gained.
        assert_eq!(bucket_quantile(&after, &after, 0.5), 0.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let late = Sent {
            due: 1.0,
            sent: 1.25,
            done: 1.5,
            fate: Fate::Answered,
        };
        assert_eq!(late.latency(30.0), 0.5);
        assert_eq!(late.lag(), 0.25);
        let on_time = Sent {
            due: 2.0,
            sent: 2.0,
            done: 2.125,
            fate: Fate::Answered,
        };
        assert_eq!(on_time.latency(30.0), 0.125);
        assert_eq!(on_time.lag(), 0.0);
    }

    #[test]
    fn unanswered_requests_miss_the_limit() {
        for fate in [Fate::Refused, Fate::Failed] {
            let s = Sent {
                due: 0.0,
                sent: 0.0,
                done: 0.001,
                fate,
            };
            assert_eq!(s.latency(30.0), 30.0);
        }
        // A failure slower than the penalty keeps its measured time.
        let slow = Sent {
            due: 0.0,
            sent: 0.0,
            done: 40.0,
            fate: Fate::Failed,
        };
        assert_eq!(slow.latency(30.0), 40.0);
    }

    #[test]
    fn failed_requests_move_the_tail() {
        let mut sent: Vec<Sent> = (0..99)
            .map(|i| Sent {
                due: f64::from(i),
                sent: f64::from(i),
                done: f64::from(i) + 0.001,
                fate: Fate::Answered,
            })
            .collect();
        let p99 =
            |s: &[Sent]| quantile(&s.iter().map(|s| s.latency(30.0)).collect::<Vec<_>>(), 0.99);
        assert!((p99(&sent) - 0.001).abs() < 1e-9);
        sent.push(Sent {
            due: 99.0,
            sent: 99.0,
            done: 99.0005,
            fate: Fate::Refused,
        });
        sent.push(Sent {
            due: 100.0,
            sent: 100.0,
            done: 100.0005,
            fate: Fate::Refused,
        });
        assert_eq!(p99(&sent), 30.0);
    }

    #[test]
    fn paced_schedule_is_evenly_spaced_and_sized_by_rate() {
        let a = paced_schedule(100.0, 10.0, 0.5);
        assert_eq!(a.len(), 1000);
        assert!((a[0] - 0.005).abs() < 1e-12);
        assert!(a.windows(2).all(|w| (w[1] - w[0] - 0.01).abs() < 1e-9));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // A phase of 1 starts one full gap in, so one slot fewer fits.
        let b = paced_schedule(100.0, 10.0, 1.0);
        assert_eq!(b.len(), 999);
        assert!(paced_schedule(100.0, 0.001, 0.5).is_empty());
    }

    #[test]
    fn unit_interval_excludes_zero() {
        assert!(unit_interval(0) > 0.0);
        assert!(unit_interval(u64::MAX) <= 1.0);
    }
}
