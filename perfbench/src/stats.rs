//! The benchmark's own arithmetic: order statistics over timing
//! samples and span self time.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// 1-based nearest rank of percentile `p` in `n` samples:
/// `ceil(p·n/100)`, at least 1.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` (1..=100) of an ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// The highest whole percentile (50..=99) of `n` samples that has at
/// least `beyond` samples ranked above it, or `None` when not even the
/// median does.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n >= rank(p, n) + beyond)
}

/// A timing sample summarised the way the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// The highest percentile with [`MIN_BEYOND`] samples beyond it,
    /// and its value.
    pub top: Option<(u32, f64)>,
}

pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        p50: median(&v),
        p90: percentile_sorted(&v, 90),
        top: highest_supported_percentile(v.len(), MIN_BEYOND)
            .map(|p| (p, percentile_sorted(&v, p))),
    }
}

/// One recorded span: a half-open interval in nanoseconds and the
/// index of its parent within the same span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of it that
/// its direct children cover (overlapping children count once,
/// children running past the parent are clipped to it).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// The part of a whole-burst time its measured parts do not account
/// for (negative when the parts took longer than the whole).
pub fn uncovered(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50), 50.0);
        assert_eq!(percentile_sorted(&v, 90), 90.0);
        assert_eq!(percentile_sorted(&v, 99), 99.0);
        assert_eq!(percentile_sorted(&v[..10], 90), 9.0);
        assert_eq!(percentile_sorted(&[7.0], 90), 7.0);
    }

    #[test]
    fn percentile_pick_keeps_ten_samples_beyond() {
        // 100 samples: p90 sits at rank 90, exactly 10 beyond it.
        assert_eq!(highest_supported_percentile(100, 10), Some(90));
        // 99 samples: p90 is rank 90 with 9 beyond, so p89 (rank 89).
        assert_eq!(highest_supported_percentile(99, 10), Some(89));
        // 1000 samples: p99 is rank 990, 10 beyond.
        assert_eq!(highest_supported_percentile(1000, 10), Some(99));
        // 500 samples: p98 is rank 490 (10 beyond); p99 has only 5.
        assert_eq!(highest_supported_percentile(500, 10), Some(98));
        // 20 samples: the median (rank 10) has exactly 10 beyond.
        assert_eq!(highest_supported_percentile(20, 10), Some(50));
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(0, 10), None);
        for n in 20..3000 {
            let p = highest_supported_percentile(n, 10).unwrap();
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(p + 1, n) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn summary_reports_count_and_top_percentile() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.p90, 180.0);
        assert_eq!(s.top, Some((95, 190.0)));
    }

    fn iv(start: u64, end: u64, parent: Option<usize>) -> Interval {
        Interval { start, end, parent }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips() {
        let spans = [
            iv(0, 100, None),
            iv(10, 30, Some(0)),
            iv(20, 40, Some(0)),  // overlaps its sibling: [10, 40) counts once
            iv(90, 120, Some(0)), // runs past the parent: clipped at 100
            iv(12, 18, Some(1)),  // a grandchild is its parent's business
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn self_time_of_leaves_and_disjoint_children() {
        let spans = [
            iv(5, 50, None),
            iv(10, 20, Some(0)),
            iv(30, 35, Some(0)),
            iv(60, 61, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 5, 1]);
        // A child covering its parent entirely leaves no self time.
        assert_eq!(
            self_times(&[iv(0, 10, None), iv(0, 10, Some(0))]),
            vec![0, 10]
        );
    }

    #[test]
    fn uncovered_is_whole_minus_parts() {
        assert_eq!(uncovered(100.0, &[30.0, 50.0]), 20.0);
        assert_eq!(uncovered(100.0, &[]), 100.0);
        assert_eq!(uncovered(80.0, &[50.0, 40.0]), -10.0);
    }
}
