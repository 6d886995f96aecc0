//! Order statistics, span self-time arithmetic and output comparison
//! helpers shared by every workload.

use rapid_telemetry::span::SpanRecord;
use std::collections::BTreeMap;

/// Percentile `q` in `[0, 1]` of `xs` by linear interpolation between the
/// closest ranks (the `numpy` default). `xs` need not be sorted; an empty
/// slice yields 0.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap in a forest that
/// passed `validate_forest`, so their durations simply add up.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent_id != 0) {
        *covered.entry(s.parent_id).or_default() += s.dur();
    }
    spans
        .iter()
        .map(|s| {
            (
                s.span_id,
                s.dur()
                    .saturating_sub(covered.get(&s.span_id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Self time per span name within each root's forest, one map per root
/// in root-id order. Spans nest at most one level under their root.
pub fn self_time_per_root(spans: &[SpanRecord]) -> Vec<BTreeMap<&'static str, u64>> {
    let own = self_times(spans);
    let mut by_root: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for s in spans {
        let root = if s.parent_id == 0 {
            s.span_id
        } else {
            s.parent_id
        };
        *by_root.entry(root).or_default().entry(s.name).or_default() += own[&s.span_id];
    }
    by_root.into_values().collect()
}

/// Share of root time covered by child spans: `1 − Σ root self / Σ root`.
pub fn coverage(spans: &[SpanRecord]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent_id == 0) {
        total += s.dur();
        uncovered += own[&s.span_id];
    }
    if total == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

/// Signal-to-quantization-noise ratio of `test` against `reference` in
/// dB. Identical outputs are reported as 300 dB rather than infinity.
pub fn sqnr_db(reference: &[f32], test: &[f32]) -> f64 {
    let (mut sig, mut noise) = (0.0f64, 0.0f64);
    for (&r, &t) in reference.iter().zip(test) {
        sig += f64::from(r) * f64::from(r);
        let d = f64::from(r) - f64::from(t);
        noise += d * d;
    }
    if noise == 0.0 {
        300.0
    } else {
        10.0 * (sig / noise).log10()
    }
}

/// Folds one 64-bit word into fingerprint `h` (an FNV-1a step over words).
pub fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0100_0000_01b3)
}

/// Folds the bit patterns of `xs` into fingerprint `h` — it changes with
/// any single bit of any element.
pub fn fingerprint(h: u64, xs: &[f32]) -> u64 {
    xs.iter().fold(h, |h, x| mix(h, u64::from(x.to_bits())))
}

/// The FNV-1a offset basis, the starting value for [`fingerprint`].
pub const FP_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Whether two tensors hold the same bits element for element.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64, name: &'static str) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            name,
            class: String::new(),
            start,
            end,
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert!((percentile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert!((percentile(&[1.0, 2.0], 0.5) - 1.5).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // Root [0, 100] with children [10, 40] and [50, 90].
        let spans = vec![
            span(1, 0, 0, 100, "item"),
            span(2, 1, 10, 40, "conv"),
            span(3, 1, 50, 90, "sfu"),
            span(4, 0, 100, 200, "item"),
            span(5, 4, 100, 150, "conv"),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 30);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&4], 50);
        let per_root = self_time_per_root(&spans);
        assert_eq!(per_root.len(), 2);
        assert_eq!(per_root[0]["conv"], 30);
        assert_eq!(per_root[0]["sfu"], 40);
        assert_eq!(per_root[0]["item"], 30);
        assert_eq!(per_root[1]["conv"], 50);
        assert_eq!(per_root[1]["item"], 50);
        assert!((coverage(&spans) - 120.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn sqnr_and_fingerprints() {
        let r = [1.0f32, -1.0, 2.0, 0.5];
        assert_eq!(sqnr_db(&r, &r), 300.0);
        let t = [1.1f32, -1.0, 2.0, 0.5];
        let expect = 10.0 * (6.25f64 / 0.01).log10();
        assert!((sqnr_db(&r, &t) - expect).abs() < 1e-4);
        assert_ne!(fingerprint(FP_SEED, &r), fingerprint(FP_SEED, &t));
        assert_ne!(fingerprint(FP_SEED, &[0.0]), fingerprint(FP_SEED, &[-0.0]));
        assert!(bit_equal(&r, &r) && !bit_equal(&r, &t));
    }
}
