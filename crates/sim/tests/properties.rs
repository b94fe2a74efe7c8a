//! Property-based tests of the simulation kernel.

use proptest::prelude::*;

use aum_sim::attrib::{
    Cause, IntervalLedger, Ledger, Region, RegionSample, WorkFractions, EPSILON,
};
use aum_sim::hist::{LogHistogram, SUB_BUCKETS};
use aum_sim::rng::DetRng;
use aum_sim::stats::{quantile_in_place, Samples, Summary};
use aum_sim::time::{SimDuration, SimTime};

/// An arbitrary (possibly degenerate) work split — negatives and all-zero
/// vectors included, which `RegionSample` construction must normalize.
fn work_fractions() -> impl Strategy<Value = WorkFractions> {
    (
        -0.2f64..2.0,
        -0.2f64..1.0,
        -0.2f64..1.0,
        -0.2f64..1.0,
        -0.2f64..2.0,
        -0.2f64..1.0,
    )
        .prop_map(|(compute, l1, l2, llc, dram, contention)| WorkFractions {
            compute,
            l1,
            l2,
            llc,
            dram,
            contention,
        })
}

/// An arbitrary region sample with physically-plausible ranges plus edge
/// cases (zero busy, thermal drop exceeding the license gap, shed on/off).
fn region_sample(region: Region) -> impl Strategy<Value = RegionSample> {
    (
        0.0f64..=1.0,
        0.4f64..4.0,
        0.4f64..4.0,
        0.0f64..2.0,
        work_fractions(),
        0.0f64..500.0,
        0.0f64..2000.0,
        any::<bool>(),
    )
        .prop_map(
            move |(busy_frac, freq_ghz, unlicensed_ghz, thermal_drop_ghz, work, s, d, shed)| {
                RegionSample {
                    region,
                    busy_frac,
                    freq_ghz,
                    unlicensed_ghz,
                    thermal_drop_ghz,
                    work,
                    static_j: s,
                    dynamic_j: d,
                    shed,
                }
            },
        )
}

/// The sort-based quantile rule: the window's finite values in a fresh
/// vector, stable-sorted, interpolated between the order statistics around
/// rank `q·(n−1)`.
fn sorted_quantile(window: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = window.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[test]
fn quantiles_of_an_empty_window_are_zero() {
    for q in [0.5, 0.9] {
        assert_eq!(quantile_in_place(&mut [], q).to_bits(), 0.0f64.to_bits());
    }
}

/// A full interval's worth of samples, one per region.
fn interval_samples() -> impl Strategy<Value = Vec<RegionSample>> {
    (
        region_sample(Region::AuHigh),
        region_sample(Region::AuLow),
        region_sample(Region::Shared),
        region_sample(Region::Uncore),
    )
        .prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

proptest! {
    #[test]
    fn quantiles_are_bounded_and_monotone(
        values in prop::collection::vec(-1e9f64..1e9, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..8),
    ) {
        let s: Samples = values.iter().copied().collect();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for q in sorted_qs {
            let v = s.quantile(q);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            prop_assert!(v >= last - 1e-9, "quantiles must be monotone in q");
            last = v;
        }
    }

    // Sensing selects p50/p90 over the last 30 TTFTs and the last 300 token
    // times in one reused scratch vector. Decode records carry one execution
    // time per batch, so inputs are runs of repeated values, with zeros and
    // a NaN among them; every quantile must equal the sort-based one bit for
    // bit, including after earlier selections have permuted the scratch.
    #[test]
    fn quantile_in_place_matches_a_sorted_copy_bit_for_bit(
        runs in prop::collection::vec(
            (prop_oneof![Just(0.0), Just(0.05), 0.0f64..0.5], 1usize..17),
            0..121,
        ),
        nan_at in 0usize..1000,
    ) {
        let mut values: Vec<f64> = runs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .take(999)
            .collect();
        values.insert(nan_at.min(values.len()), f64::NAN);
        let mut scratch = Vec::new();
        for window in [30, 300] {
            let tail = &values[values.len().saturating_sub(window)..];
            scratch.clear();
            scratch.extend(tail.iter().copied().filter(|v| v.is_finite()));
            for q in [0.0, 0.5, 0.9, 1.0] {
                prop_assert_eq!(
                    quantile_in_place(&mut scratch, q).to_bits(),
                    sorted_quantile(tail, q).to_bits(),
                    "window {} at q {}", window, q
                );
            }
        }
    }

    #[test]
    fn summary_merge_matches_sequential(values in prop::collection::vec(-1e6f64..1e6, 2..100), split in 1usize..99) {
        let split = split.min(values.len() - 1);
        let mut all = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        for (i, &v) in values.iter().enumerate() {
            all.record(v);
            if i < split { left.record(v) } else { right.record(v) }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() <= 1e-6 * (1.0 + all.mean().abs()));
        prop_assert!((left.variance() - all.variance()).abs() <= 1e-4 * (1.0 + all.variance().abs()));
        prop_assert_eq!(left.min().to_bits(), all.min().to_bits());
        prop_assert_eq!(left.max().to_bits(), all.max().to_bits());
    }

    #[test]
    fn cdf_is_a_distribution_function(values in prop::collection::vec(0.0f64..1e6, 1..300), points in 1usize..40) {
        let s: Samples = values.iter().copied().collect();
        let cdf = s.cdf(points);
        prop_assert_eq!(cdf.len(), points);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 < w[1].1);
        }
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        // Every CDF point is consistent with fraction_at_most.
        for &(v, p) in &cdf {
            prop_assert!(s.fraction_at_most(v) >= p - 1e-9);
        }
    }

    #[test]
    fn time_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        let later = t + d;
        prop_assert_eq!(later - t, d);
        prop_assert_eq!(later.saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(later), SimDuration::ZERO);
    }

    #[test]
    fn exponential_draws_are_positive(seed in any::<u64>(), mean in 1e-6f64..1e6) {
        let mut rng = DetRng::from_seed(seed);
        for _ in 0..50 {
            let v = rng.exponential(mean);
            prop_assert!(v >= 0.0 && v.is_finite());
        }
    }

    #[test]
    fn lognormal_is_positive_and_finite(seed in any::<u64>(), mean in 0.1f64..1e5, cv in 0.0f64..3.0) {
        let mut rng = DetRng::from_seed(seed);
        for _ in 0..50 {
            let v = rng.lognormal_mean_cv(mean, cv);
            prop_assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn labelled_streams_are_reproducible(seed in any::<u64>(), label in "[a-z]{1,16}") {
        let mut a = DetRng::from_seed(seed).stream(&label);
        let mut b = DetRng::from_seed(seed).stream(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
        }
    }

    #[test]
    fn ledger_conserves_time_and_energy_for_any_samples(
        intervals in prop::collection::vec((interval_samples(), 1e-3f64..10.0), 1..20),
    ) {
        let mut ledger = Ledger::new();
        let mut at = SimTime::ZERO;
        for (samples, dt_secs) in &intervals {
            let energy_j: f64 = samples.iter().map(|s| s.static_j + s.dynamic_j).sum();
            ledger.intervals.push(IntervalLedger::build(at, *dt_secs, energy_j, samples));
            at += SimDuration::from_secs_f64(*dt_secs);
        }
        // The two hard invariants hold for arbitrary inputs: attributed
        // time sums to wall time and attributed joules to modeled energy,
        // within the relative epsilon, with no negative cell.
        prop_assert!(ledger.verify(EPSILON).is_ok());
        for iv in &ledger.intervals {
            for region in &iv.regions {
                prop_assert!((region.time.sum() - iv.dt_secs).abs() <= EPSILON * iv.dt_secs.max(1.0));
                for (cause, v) in region.time.iter().chain(region.energy.iter()) {
                    prop_assert!(v >= 0.0, "negative {cause} attribution: {v}");
                }
            }
            prop_assert!(
                (iv.attributed_energy() - iv.energy_j).abs() <= EPSILON * iv.energy_j.abs().max(1.0)
            );
        }
    }

    #[test]
    fn ledger_shed_labelling_and_serde_round_trip(
        samples in interval_samples(),
        dt_secs in 1e-3f64..5.0,
    ) {
        let energy_j: f64 = samples.iter().map(|s| s.static_j + s.dynamic_j).sum();
        let mut ledger = Ledger::new();
        ledger.intervals.push(IntervalLedger::build(SimTime::ZERO, dt_secs, energy_j, &samples));
        // Off time lands on exactly the cause the sample's shed flag names.
        let iv = &ledger.intervals[0];
        for (sample, region) in samples.iter().zip(iv.regions.iter()) {
            let (labelled, opposite) = if sample.shed {
                (Cause::SafeModeShed, Cause::Idle)
            } else {
                (Cause::Idle, Cause::SafeModeShed)
            };
            let off = (1.0 - sample.busy_frac) * dt_secs;
            prop_assert!(region.time.get(labelled) >= off - EPSILON * dt_secs.max(1.0) - 1e-9);
            prop_assert!(region.time.get(opposite) <= EPSILON * dt_secs.max(1.0) + 1e-9);
        }
        // Serialization preserves the ledger bit-for-bit semantics.
        let json = serde_json::to_string(&ledger).expect("ledger serializes");
        let back: Ledger = serde_json::from_str(&json).expect("ledger deserializes");
        prop_assert!(back.verify(EPSILON).is_ok());
        prop_assert!((back.wall_secs() - ledger.wall_secs()).abs() < 1e-12);
        prop_assert!((back.energy_j() - ledger.energy_j()).abs() < 1e-12);
    }

    // Both `LogHistogram::quantile` and `Samples::quantile` map q to rank
    // q * (n - 1); the sample counts below keep that rank integral for
    // p50/p90/p99, so the exact quantile is a single order statistic that
    // lies inside the bucket the histogram interpolates in — the estimate
    // must agree within one bucket's relative width (1/SUB_BUCKETS).
    #[test]
    fn hist_quantiles_track_exact_on_lognormal(
        seed in any::<u64>(),
        mean in 0.01f64..5.0,
        cv in 0.1f64..1.5,
    ) {
        let mut rng = DetRng::from_seed(seed).stream("hist-lognormal");
        let values: Vec<f64> = (0..301)
            .map(|_| rng.lognormal_mean_cv(mean, cv).clamp(1e-4, 1000.0))
            .collect();
        let hist: LogHistogram = values.iter().copied().collect();
        let exact: Samples = values.iter().copied().collect();
        for q in [0.5, 0.9, 0.99] {
            let truth = exact.quantile(q);
            let est = hist.quantile(q);
            prop_assert!(
                (est - truth).abs() <= truth / SUB_BUCKETS as f64 + 1e-12,
                "p{} off by more than a bucket: est {est}, exact {truth}",
                q * 100.0
            );
        }
    }

    #[test]
    fn hist_quantiles_track_exact_on_bimodal(
        seed in any::<u64>(),
        lo_mean in 0.002f64..0.02,
        hi_mean in 0.5f64..5.0,
        p_lo in 0.1f64..0.9,
    ) {
        let mut rng = DetRng::from_seed(seed).stream("hist-bimodal");
        let values: Vec<f64> = (0..201)
            .map(|_| {
                let mean = if rng.chance(p_lo) { lo_mean } else { hi_mean };
                rng.lognormal_mean_cv(mean, 0.3).clamp(1e-4, 1000.0)
            })
            .collect();
        let hist: LogHistogram = values.iter().copied().collect();
        let exact: Samples = values.iter().copied().collect();
        for q in [0.5, 0.9, 0.99] {
            let truth = exact.quantile(q);
            let est = hist.quantile(q);
            prop_assert!(
                (est - truth).abs() <= truth / SUB_BUCKETS as f64 + 1e-12,
                "p{} off by more than a bucket: est {est}, exact {truth}",
                q * 100.0
            );
        }
    }

    #[test]
    fn hist_merge_equals_histogramming_the_union(
        values in prop::collection::vec(1e-7f64..1e5, 2..400),
        split in 0usize..400,
    ) {
        // The value range deliberately straddles both ends of the bucketed
        // range so the under/overflow counters are exercised too.
        let split = split.min(values.len());
        let a: LogHistogram = values[..split].iter().copied().collect();
        let b: LogHistogram = values[split..].iter().copied().collect();
        let mut merged = a.clone();
        merged.merge(&b);
        let union: LogHistogram = values.iter().copied().collect();
        prop_assert_eq!(
            merged.nonzero_buckets().collect::<Vec<_>>(),
            union.nonzero_buckets().collect::<Vec<_>>()
        );
        prop_assert_eq!(merged.count(), union.count());
        prop_assert_eq!(merged.underflow(), union.underflow());
        prop_assert_eq!(merged.overflow(), union.overflow());
        prop_assert!(
            (merged.sum() - union.sum()).abs() <= 1e-9 * union.sum().abs().max(1.0)
        );
        // Quantiles depend only on bucket counts, so they match bit-exactly.
        for i in 0..=10 {
            let q = f64::from(i) / 10.0;
            prop_assert_eq!(merged.quantile(q).to_bits(), union.quantile(q).to_bits());
        }
    }
}

proptest! {
    /// The flight-recorder ring is a pure function of the record stream:
    /// after any sequence of records it holds exactly the newest
    /// `min(len, capacity)` of them, in arrival order, and has evicted
    /// precisely the rest.
    #[test]
    fn ring_sink_retains_exactly_the_newest_capacity_records(
        capacity in 1usize..64,
        stream in prop::collection::vec((0u64..10_000u64, 0u64..1_000u64), 0..300),
    ) {
        use aum_sim::flight::RingSink;
        use aum_sim::telemetry::{Event, TraceRecord, TraceSink};

        let records: Vec<TraceRecord> = stream
            .iter()
            .map(|&(at_ms, id)| TraceRecord {
                at: SimTime::from_secs_f64(at_ms as f64 / 1e3),
                event: Event::RequestAdmitted { id, input_len: 16, output_len: 4 },
            })
            .collect();
        let mut ring = RingSink::new(capacity);
        for r in &records {
            ring.record(r);
        }
        let kept = records.len().min(capacity);
        prop_assert_eq!(ring.len(), kept);
        prop_assert_eq!(ring.evicted(), (records.len() - kept) as u64);
        prop_assert_eq!(ring.to_vec(), records[records.len() - kept..].to_vec());
    }
}
