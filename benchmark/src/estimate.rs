//! Estimator for host-time metrics on a shared machine.
//!
//! Interference (steal, co-tenants' cache pressure, scheduler delay)
//! only ever adds time, so the low tail of repeated runs of one
//! deterministic job is the repeatable part. A run therefore keeps the
//! reps the hypervisor left alone and takes the mean of their fastest
//! quarter.
//!
//! A neighbour that thrashes memory for as long as a whole rep leaves no
//! rep untouched, but it does not slow every part of every rep alike. So
//! the job is cut into segments at fixed places (see
//! `workloads::Segments`), each segment is estimated across the reps on
//! its own, and the estimates are summed: every part of the job only has
//! to have been left alone in a few reps, not all parts in the same rep.

/// A rep is dropped when steal exceeds this share of its wall time.
pub const STEAL_LIMIT: f64 = 0.05;

/// Which reps survive the steal filter. Reps above [`STEAL_LIMIT`] go,
/// unless that would leave fewer than half: then the half with the least
/// steal stays, so a uniformly noisy host still yields a (flagged) value
/// instead of none.
pub fn steal_filter(steal_share: &[f64]) -> Vec<bool> {
    let n = steal_share.len();
    let mut keep: Vec<bool> = steal_share.iter().map(|&s| s <= STEAL_LIMIT).collect();
    let need = n.div_ceil(2);
    if keep.iter().filter(|&&k| k).count() < need {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| steal_share[a].total_cmp(&steal_share[b]));
        keep = vec![false; n];
        for &i in &order[..need] {
            keep[i] = true;
        }
    }
    keep
}

/// Mean of the fastest quarter of `values`, at least three of them (all
/// of them when there are fewer). `NaN` for an empty slice.
pub fn fast_quarter_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(4).max(3).min(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// [`fast_quarter_mean`] over the reps `keep` marks.
pub fn estimate(values: &[f64], keep: &[bool]) -> f64 {
    let kept: Vec<f64> = values
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(&v, _)| v)
        .collect();
    fast_quarter_mean(&kept)
}

/// Sum over the segments of a job of each segment's [`estimate`] across
/// the reps. `reps[r][i]` is segment `i` of rep `r`; every rep has the
/// same segments.
pub fn segmented_estimate(reps: &[&[f64]], keep: &[bool]) -> f64 {
    let Some(first) = reps.first() else {
        return f64::NAN;
    };
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "every rep of a job passes the same checkpoints"
    );
    let mut across = Vec::with_capacity(reps.len());
    (0..first.len())
        .map(|i| {
            across.clear();
            across.extend(reps.iter().map(|r| r[i]));
            estimate(&across, keep)
        })
        .sum()
}

/// Interquartile range over the median (the spread the driver gates on);
/// 0 for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The "exclusive" quantile method of Python's statistics.quantiles.
    let q = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let median = q(0.5);
    if median == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_quarter_takes_at_least_three() {
        // 8 values: quarter is 2, floor of 3 applies.
        let v = [5.0, 1.0, 9.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(fast_quarter_mean(&v), 2.0);
        // 16 values: quarter is 4.
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(fast_quarter_mean(&v), 2.5);
        // Fewer than three: all of them.
        assert_eq!(fast_quarter_mean(&[4.0, 2.0]), 3.0);
        assert!(fast_quarter_mean(&[]).is_nan());
    }

    #[test]
    fn one_sided_noise_does_not_move_the_estimate() {
        let quiet = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.01, 1.00];
        let mut noisy = quiet;
        noisy[1] = 4.2;
        noisy[5] = 2.9;
        noisy[6] = 1.7;
        let a = fast_quarter_mean(&quiet);
        let b = fast_quarter_mean(&noisy);
        assert!((a - b).abs() / a < 0.01, "{a} vs {b}");
    }

    #[test]
    fn steal_filter_drops_stolen_reps() {
        let keep = steal_filter(&[0.0, 0.20, 0.01, 0.35, 0.04, 0.0]);
        assert_eq!(keep, [true, false, true, false, true, true]);
        assert_eq!(estimate(&[3.0, 1.0, 2.0, 1.0, 4.0, 5.0], &keep), 3.0);
    }

    #[test]
    fn all_reps_noisy_keeps_the_least_stolen_half() {
        let keep = steal_filter(&[0.30, 0.10, 0.50, 0.20, 0.40]);
        assert_eq!(keep, [true, true, false, true, false]);
        // Exactly half clean is enough; nothing is added back.
        let keep = steal_filter(&[0.0, 0.9, 0.0, 0.9]);
        assert_eq!(keep, [true, false, true, false]);
    }

    #[test]
    fn segments_need_not_be_quiet_in_the_same_rep() {
        // Four segments of 1, 2, 3 and 4 s; in every rep but three a
        // different one is slowed threefold, so no rep is quiet throughout.
        let quiet = [1.0, 2.0, 3.0, 4.0];
        let reps: Vec<Vec<f64>> = (0..8)
            .map(|r| {
                let mut rep = quiet.to_vec();
                if r >= 3 {
                    rep[r % 4] *= 3.0;
                }
                rep
            })
            .collect();
        let rows: Vec<&[f64]> = reps.iter().map(Vec::as_slice).collect();
        let keep = [true; 8];
        assert_eq!(segmented_estimate(&rows, &keep), 10.0);
        let totals: Vec<f64> = reps.iter().map(|r| r.iter().sum()).collect();
        assert!(fast_quarter_mean(&totals) == 10.0);
        // With every rep hit somewhere, whole-rep totals cannot recover
        // the quiet cost; the segments can.
        let all_hit: Vec<Vec<f64>> = (0..8)
            .map(|r| {
                let mut rep = quiet.to_vec();
                rep[r % 4] *= 3.0;
                rep
            })
            .collect();
        let rows: Vec<&[f64]> = all_hit.iter().map(Vec::as_slice).collect();
        assert_eq!(segmented_estimate(&rows, &keep), 10.0);
        let totals: Vec<f64> = all_hit.iter().map(|r| r.iter().sum()).collect();
        assert!(fast_quarter_mean(&totals) > 11.9);
        // Dropped reps stay out of every segment: the two left are both
        // slow in the first one.
        let keep = [true, false, false, false, true, false, false, false];
        assert_eq!(segmented_estimate(&rows, &keep), 12.0);
        assert!(segmented_estimate(&[], &[]).is_nan());
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
