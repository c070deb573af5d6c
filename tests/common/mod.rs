//! Sweep bounds shared by the torture suites (`store_torture`,
//! `objstore_torture`, `fabric_torture`).
//!
//! Each suite enumerates a fault-free schedule (backend ops, fabric steps,
//! wire exchanges, one replica's ops) and re-runs the workload once per
//! swept point with a fault there. By default the sweep is a deterministic
//! stride subset of the schedule, CI-fast; `BFU_TORTURE_FULL=1` sweeps
//! every point.

/// True when `BFU_TORTURE_FULL=1` asks for the exhaustive sweep. Any other
/// value, `0` included, keeps the bounded default.
pub fn torture_full() -> bool {
    std::env::var("BFU_TORTURE_FULL").is_ok_and(|v| v == "1")
}

/// The points of `0..total` to sweep: every point under
/// [`torture_full`] or when `total <= budget`, otherwise every
/// `ceil(total / budget)`-th point plus the last one (the final
/// commit/clean edge), so at most `budget + 1` points.
pub fn sweep_points(total: u64, budget: u64) -> Vec<u64> {
    if torture_full() {
        return (0..total).collect();
    }
    bounded_points(total, budget)
}

fn bounded_points(total: u64, budget: u64) -> Vec<u64> {
    if total <= budget {
        return (0..total).collect();
    }
    let stride = total.div_ceil(budget);
    let mut points: Vec<u64> = (0..total).step_by(stride as usize).collect();
    if points.last() != Some(&(total - 1)) {
        points.push(total - 1);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::{bounded_points, sweep_points, torture_full};

    #[test]
    fn bounded_points_cover_small_schedules_and_stride_large_ones() {
        assert!(bounded_points(0, 48).is_empty());
        assert_eq!(bounded_points(5, 48), vec![0, 1, 2, 3, 4]);
        assert_eq!(bounded_points(48, 48), (0..48).collect::<Vec<_>>());
        for (total, budget) in [(49u64, 48u64), (97, 48), (100, 12), (1_000, 16), (37, 8)] {
            let points = bounded_points(total, budget);
            assert_eq!(points.first(), Some(&0), "{total}/{budget}");
            assert_eq!(points.last(), Some(&(total - 1)), "{total}/{budget}");
            assert!(points.len() as u64 <= budget + 1, "{total}/{budget}");
            assert!(points.windows(2).all(|w| w[0] < w[1]), "{total}/{budget}");
        }
        // The stride is ceil(total / budget): 100 ops at budget 12 sweep
        // every 9th op, then the last.
        assert_eq!(
            bounded_points(100, 12),
            vec![0, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 99]
        );
        let expected: Vec<u64> = if torture_full() {
            (0..100).collect()
        } else {
            bounded_points(100, 12)
        };
        assert_eq!(sweep_points(100, 12), expected);
    }
}
