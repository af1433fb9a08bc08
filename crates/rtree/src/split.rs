//! The R\*-tree split algorithm (\[BKSS90\] §4.2).
//!
//! The split proceeds in two steps:
//!
//! 1. **ChooseSplitAxis**: for each axis, sort the entries by their lower
//!    and by their upper rectangle value; for every legal distribution
//!    (first group sizes `m … count − m`) of both sortings compute the sum
//!    of the two group margins; the axis with the minimum total margin sum
//!    wins.
//! 2. **ChooseSplitIndex**: along the chosen axis, pick the distribution
//!    with minimal overlap between the two group rectangles, resolving
//!    ties by minimal total area.

use crate::entry::SplitItem;
use spatialdb_geom::Rect;

/// A chosen distribution: indices of the items in each group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Distribution {
    /// Indices (into the input slice) of the first group.
    pub first: Vec<usize>,
    /// Indices of the second group.
    pub second: Vec<usize>,
}

/// One axis-sorted candidate order (indices sorted by a key).
fn sorted_indices<T: SplitItem, F: Fn(&Rect) -> (f64, f64)>(items: &[T], key: F) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    idx.sort_by(|&a, &b| {
        let ka = key(&items[a].rect());
        let kb = key(&items[b].rect());
        ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
    });
    idx
}

/// Margin sum over all legal distributions of one sorted order, and the
/// best (min overlap, tie min area) distribution seen.
struct AxisScan {
    margin_sum: f64,
    best_overlap: f64,
    best_area: f64,
    best_split: usize,
}

fn scan_order<T: SplitItem>(items: &[T], order: &[usize], min_entries: usize) -> AxisScan {
    let n = order.len();
    debug_assert!(min_entries >= 1 && 2 * min_entries <= n);
    // Prefix and suffix group rectangles for O(n) scanning.
    let mut prefix = Vec::with_capacity(n);
    let mut acc = Rect::empty();
    for &i in order {
        acc = acc.union(&items[i].rect());
        prefix.push(acc);
    }
    let mut suffix = vec![Rect::empty(); n];
    let mut acc = Rect::empty();
    for k in (0..n).rev() {
        acc = acc.union(&items[order[k]].rect());
        suffix[k] = acc;
    }
    let mut scan = AxisScan {
        margin_sum: 0.0,
        best_overlap: f64::INFINITY,
        best_area: f64::INFINITY,
        best_split: min_entries,
    };
    for split in min_entries..=(n - min_entries) {
        let r1 = prefix[split - 1];
        let r2 = suffix[split];
        scan.margin_sum += r1.margin() + r2.margin();
        let overlap = r1.overlap_area(&r2);
        let area = r1.area() + r2.area();
        if overlap < scan.best_overlap || (overlap == scan.best_overlap && area < scan.best_area) {
            scan.best_overlap = overlap;
            scan.best_area = area;
            scan.best_split = split;
        }
    }
    scan
}

/// Compute the R\*-tree split of `items` with the given minimum group
/// size.
///
/// # Panics
///
/// Panics if fewer than two items are supplied or `min_entries` does not
/// leave both groups non-empty.
pub(crate) fn rstar_split<T: SplitItem>(items: &[T], min_entries: usize) -> Distribution {
    let n = items.len();
    assert!(n >= 2, "cannot split fewer than 2 items");
    let m = min_entries.clamp(1, n / 2);

    // Four candidate orders: lower/upper value of each axis.
    let by_xmin = sorted_indices(items, |r| (r.xmin, r.xmax));
    let by_xmax = sorted_indices(items, |r| (r.xmax, r.xmin));
    let by_ymin = sorted_indices(items, |r| (r.ymin, r.ymax));
    let by_ymax = sorted_indices(items, |r| (r.ymax, r.ymin));

    let sx_min = scan_order(items, &by_xmin, m);
    let sx_max = scan_order(items, &by_xmax, m);
    let sy_min = scan_order(items, &by_ymin, m);
    let sy_max = scan_order(items, &by_ymax, m);

    let x_margin = sx_min.margin_sum + sx_max.margin_sum;
    let y_margin = sy_min.margin_sum + sy_max.margin_sum;

    // Pick the winning axis, then the better of its two sortings.
    let (order, scan) = if x_margin <= y_margin {
        if (sx_min.best_overlap, sx_min.best_area) <= (sx_max.best_overlap, sx_max.best_area) {
            (&by_xmin, sx_min)
        } else {
            (&by_xmax, sx_max)
        }
    } else if (sy_min.best_overlap, sy_min.best_area) <= (sy_max.best_overlap, sy_max.best_area) {
        (&by_ymin, sy_min)
    } else {
        (&by_ymax, sy_max)
    };

    Distribution {
        first: order[..scan.best_split].to_vec(),
        second: order[scan.best_split..].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{LeafEntry, ObjectId};

    /// The MBRs of the two groups of a distribution.
    fn distribution_rects<T: SplitItem>(items: &[T], d: &Distribution) -> (Rect, Rect) {
        let group = |idx: &[usize]| {
            idx.iter()
                .fold(Rect::empty(), |acc, &i| acc.union(&items[i].rect()))
        };
        (group(&d.first), group(&d.second))
    }

    fn e(xmin: f64, ymin: f64, xmax: f64, ymax: f64, id: u64) -> LeafEntry {
        LeafEntry::new(Rect::new(xmin, ymin, xmax, ymax), ObjectId(id), 0)
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two groups far apart along x: the split must separate them.
        let mut items = Vec::new();
        for i in 0..5 {
            items.push(e(i as f64 * 0.1, 0.0, i as f64 * 0.1 + 0.05, 0.1, i));
        }
        for i in 0..5 {
            items.push(e(
                10.0 + i as f64 * 0.1,
                0.0,
                10.0 + i as f64 * 0.1 + 0.05,
                0.1,
                100 + i,
            ));
        }
        let d = rstar_split(&items, 2);
        let (r1, r2) = distribution_rects(&items, &d);
        assert_eq!(r1.overlap_area(&r2), 0.0);
        assert_eq!(d.first.len() + d.second.len(), 10);
        // All of one cluster on each side.
        let left: Vec<usize> = (0..5).collect();
        let first_is_left = d.first.contains(&0);
        let (f, s) = if first_is_left {
            (&d.first, &d.second)
        } else {
            (&d.second, &d.first)
        };
        for i in left {
            assert!(f.contains(&i));
        }
        for i in 5..10 {
            assert!(s.contains(&i));
        }
    }

    #[test]
    fn split_respects_min_entries() {
        let items: Vec<LeafEntry> = (0..10)
            .map(|i| e(i as f64, 0.0, i as f64 + 0.5, 1.0, i))
            .collect();
        for m in 1..=5 {
            let d = rstar_split(&items, m);
            assert!(d.first.len() >= m);
            assert!(d.second.len() >= m);
            assert_eq!(d.first.len() + d.second.len(), 10);
        }
    }

    #[test]
    fn split_covers_all_indices_exactly_once() {
        let items: Vec<LeafEntry> = (0..37)
            .map(|i| {
                let x = (i as f64 * 7.3) % 10.0;
                let y = (i as f64 * 3.1) % 10.0;
                e(x, y, x + 0.4, y + 0.7, i)
            })
            .collect();
        let d = rstar_split(&items, 14);
        let mut all: Vec<usize> = d.first.iter().chain(d.second.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn split_two_items() {
        let items = vec![e(0.0, 0.0, 1.0, 1.0, 0), e(5.0, 5.0, 6.0, 6.0, 1)];
        let d = rstar_split(&items, 1);
        assert_eq!(d.first.len(), 1);
        assert_eq!(d.second.len(), 1);
    }

    #[test]
    fn vertical_clusters_split_on_y() {
        let mut items = Vec::new();
        for i in 0..6 {
            items.push(e(0.0, i as f64 * 0.1, 1.0, i as f64 * 0.1 + 0.05, i));
        }
        for i in 0..6 {
            items.push(e(
                0.0,
                20.0 + i as f64 * 0.1,
                1.0,
                20.0 + i as f64 * 0.1 + 0.05,
                10 + i,
            ));
        }
        let d = rstar_split(&items, 2);
        let (r1, r2) = distribution_rects(&items, &d);
        assert_eq!(r1.overlap_area(&r2), 0.0);
    }
}
