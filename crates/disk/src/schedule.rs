//! SLM read schedules (\[SLM93\], §5.4.2 of the paper).
//!
//! When several pages of one cluster unit are requested, it can be cheaper
//! to read requested *and* non-requested pages with one request than to
//! pay a rotational delay for every requested run: transferring a
//! non-requested page costs `t_t` (1 ms) whereas interrupting and
//! re-starting the request costs at least `t_l` (6 ms).
//!
//! Seeger, Larson and McFadyen derived the close-to-optimal rule: a read
//! request is interrupted exactly when a gap of at least
//! `l = t_l / t_t − 1/2` consecutive non-requested pages occurs. With the
//! paper's parameters `l = 5.5`, i.e. gaps of up to 5 pages are bridged.

use crate::model::DiskParams;

/// One scheduled read request within a cluster unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduledRun {
    /// Offset (within the cluster extent) of the first transferred page.
    pub start: u64,
    /// Total number of pages transferred (requested + bridged).
    pub len: u64,
    /// Number of *requested* pages within the run.
    pub requested: u64,
}

impl ScheduledRun {
    /// Pages transferred although not requested (bridged gap pages).
    #[inline]
    pub fn bridged(&self) -> u64 {
        self.len - self.requested
    }
}

/// The largest gap of non-requested pages that one read request bridges:
/// `⌊t_l / t_t − 1/2⌋`.
///
/// A gap strictly longer than `l = t_l/t_t − 1/2` interrupts the request
/// (the trailing `(…)` term of the paper's formula is ignored, as the
/// paper itself does).
pub fn slm_gap_limit(params: &DiskParams) -> u64 {
    let l = params.latency_ms / params.transfer_ms - 0.5;
    if l <= 0.0 {
        0
    } else {
        l.floor() as u64
    }
}

/// The SLM read schedule for the sorted, deduplicated `offsets` of
/// requested pages, bridging gaps of at most `max_gap` pages: one
/// [`ScheduledRun`] per resulting read request, in order, computed as
/// the caller takes them.
pub fn slm_schedule(offsets: &[u64], max_gap: u64) -> impl Iterator<Item = ScheduledRun> + '_ {
    let mut offsets = offsets.iter().copied().peekable();
    std::iter::from_fn(move || {
        let start = offsets.next()?;
        let mut end = start; // inclusive, last requested page so far
        let mut requested = 1u64;
        while let Some(o) = offsets.next_if(|&o| {
            debug_assert!(o > end, "offsets must be sorted and deduplicated");
            o - end - 1 <= max_gap
        }) {
            end = o;
            requested += 1;
        }
        Some(ScheduledRun {
            start,
            len: end - start + 1,
            requested,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_limit_default_params() {
        // l = 6/1 - 0.5 = 5.5 → bridge gaps up to 5 pages.
        assert_eq!(slm_gap_limit(&DiskParams::default()), 5);
    }

    #[test]
    fn gap_limit_fast_seek_disk() {
        let p = DiskParams {
            seek_ms: 1.0,
            latency_ms: 0.4,
            transfer_ms: 1.0,
        };
        assert_eq!(slm_gap_limit(&p), 0);
    }

    #[test]
    fn single_offset_single_run() {
        let runs: Vec<_> = slm_schedule(&[7], 5).collect();
        assert_eq!(
            runs,
            vec![ScheduledRun {
                start: 7,
                len: 1,
                requested: 1
            }]
        );
    }

    #[test]
    fn small_gaps_bridged() {
        // Paper's Figure 9 example: requested pattern y n y y n n n y y n y y
        // (offsets 0,2,3,7,8,10,11), l = 3 → the 3-page gap (4,5,6) splits.
        let runs: Vec<_> = slm_schedule(&[0, 2, 3, 7, 8, 10, 11], 2).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0],
            ScheduledRun {
                start: 0,
                len: 4,
                requested: 3
            }
        );
        assert_eq!(
            runs[1],
            ScheduledRun {
                start: 7,
                len: 5,
                requested: 4
            }
        );
    }

    #[test]
    fn figure9_cost_comparison() {
        // Reading also non-required pages: 2 requests instead of 4.
        // Paper: 4 tl + 7 tt = 31 ms page-runs vs 2 tl + 9 tt = 21 ms SLM
        // (costs without the initial seek, which both variants share).
        let p = DiskParams::default();
        let naive: Vec<_> = slm_schedule(&[0, 2, 3, 7, 8, 10, 11], 0).collect();
        assert_eq!(naive.len(), 4);
        let naive_cost: f64 = naive
            .iter()
            .map(|r| p.latency_ms + r.len as f64 * p.transfer_ms)
            .sum();
        assert_eq!(naive_cost, 4.0 * 6.0 + 7.0);
        let slm: Vec<_> = slm_schedule(&[0, 2, 3, 7, 8, 10, 11], 2).collect();
        let slm_cost: f64 = slm
            .iter()
            .map(|r| p.latency_ms + r.len as f64 * p.transfer_ms)
            .sum();
        assert_eq!(slm_cost, 2.0 * 6.0 + 9.0);
        assert!(slm_cost < naive_cost);
    }

    #[test]
    fn all_pages_requested_one_run() {
        let runs: Vec<_> = slm_schedule(&[0, 1, 2, 3], 5).collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].requested, 4);
        assert_eq!(runs[0].bridged(), 0);
    }

    #[test]
    fn zero_gap_limit_splits_everything() {
        let runs: Vec<_> = slm_schedule(&[0, 2, 4], 0).collect();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.len == 1 && r.requested == 1));
    }

    #[test]
    fn empty_offsets() {
        assert_eq!(slm_schedule(&[], 5).count(), 0);
    }

    #[test]
    fn bridged_counts() {
        let runs: Vec<_> = slm_schedule(&[0, 3], 3).collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 4);
        assert_eq!(runs[0].bridged(), 2);
    }

    #[test]
    fn schedule_cost_skips_seek_after_first() {
        let p = DiskParams::default();
        let runs: Vec<_> = slm_schedule(&[0, 10], 5).collect();
        assert_eq!(runs.len(), 2);
        // One seek per cluster unit (§5.4.3): first 9 + 6 + 1, second
        // 6 + 1.
        let cost: f64 = runs
            .iter()
            .enumerate()
            .map(|(i, r)| p.request_ms(r.len, i > 0))
            .sum();
        assert_eq!(cost, 16.0 + 7.0);
    }
}
