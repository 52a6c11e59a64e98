//! Property test: recording an arithmetic progression in closed form
//! leaves a histogram exactly as recording its terms one at a time does.

use bc_sim::snapshot::to_bytes;
use bc_sim::stats::Histogram;
use proptest::prelude::*;

/// First values: 0 and 1, powers of two and their neighbours (the bucket
/// edges), values near 2^62, and anything.
fn first_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        (0u32..64).prop_map(|b| 1u64 << b),
        (1u32..64).prop_map(|b| (1u64 << b) - 1),
        (0u32..63).prop_map(|b| (1u64 << b) + 1),
        (1u64 << 62) - 4_096..(1u64 << 62) + 4_096,
        0u64..100_000,
        any::<u64>(),
    ]
}

/// Steps: 0, small ones (DRAM services are a few cycles), powers of two,
/// and anything.
fn step() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..9,
        1u64..70_000,
        (0u32..64).prop_map(|b| 1u64 << b),
        any::<u64>(),
    ]
}

/// Whether `k` terms from `first` by `step` can be recorded one at a
/// time on top of `sum` without overflowing a `u64`: the last term and
/// the running sum must both fit, or `record` itself overflows.
fn fits(first: u64, step: u64, k: u64, sum: u64) -> bool {
    let (first, step, k) = (u128::from(first), u128::from(step), u128::from(k));
    if k == 0 {
        return true;
    }
    let last = first + (k - 1) * step;
    let total = u128::from(sum) + k * first + step * (k * (k - 1) / 2);
    last <= u128::from(u64::MAX) && total <= u128::from(u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// `record_progression(first, step, k)` on a histogram that already
    /// holds a few values equals `k` calls of `record`: every bucket (the
    /// snapshot bytes list all 64), count, sum, min and max. `k` is cut
    /// to the longest progression `record` can take without overflowing.
    #[test]
    fn progression_records_what_repeated_records_record(
        prior in proptest::collection::vec(0u64..1 << 40, 0..4),
        first in first_value(),
        step in step(),
        k in 0u64..4_097,
    ) {
        let mut closed = Histogram::new();
        for &v in &prior {
            closed.record(v);
        }
        let mut repeated = closed.clone();
        let sum = closed.sum();
        let k = (0..=k).rev().find(|&k| fits(first, step, k, sum)).unwrap_or(0);

        closed.record_progression(first, step, k);
        for j in 0..k {
            repeated.record(first + j * step);
        }
        prop_assert_eq!(closed.count(), repeated.count());
        prop_assert_eq!(closed.sum(), repeated.sum());
        prop_assert_eq!(closed.min(), repeated.min());
        prop_assert_eq!(closed.max(), repeated.max());
        prop_assert!(
            to_bytes(&mut closed) == to_bytes(&mut repeated),
            "buckets differ: first {} step {} k {}", first, step, k
        );
    }
}
