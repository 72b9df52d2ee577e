//! Differential property suite for FOR/bit-packed columns.
//!
//! Packing is *pure performance*: the filter evaluates its band in the
//! encoded domain whenever the scanned column carries `packed`, and
//! every other operator reads the flat `data`. For every bit width
//! (1/2/4/8/16/32/64), every chunk-boundary row count, signed-extreme
//! values, and all-constant chunks, the encoded-domain filter must be
//! **bit-identical** to the scalar oracle on the unencoded column —
//! same selection words — and every public entry point on an encoded
//! table must equal its `*_with(.., Kernel::Scalar)` oracle.
//!
//! The oracle arm is selected by explicit [`Kernel`] arguments, never
//! by process-wide state, so the suite is safe under the harness's
//! concurrent test execution.

use proptest::prelude::*;

use dpu_repro::pool::Pool;
use dpu_repro::sql::{
    partition_row_ids, partition_row_ids_with, sort_indices, sort_indices_multi,
    sort_indices_multi_with, sort_indices_with, top_k, top_k_with, AggFunc, Column, CompareOp,
    Expr, FilterSpec, GroupBySpec, HashJoin, Kernel, PackedColumn, Table,
};

/// Widens a tagged raw value into a key distribution that exercises
/// extremes (`i64::MIN`, `i64::MAX`), small dense ranges, and
/// full-domain values.
fn shape_value(raw: i64, tag: u8) -> i64 {
    match tag {
        0 => i64::MIN,
        1 => i64::MAX,
        2..=4 => raw.rem_euclid(16),   // dense: many duplicate keys
        5..=6 => raw.rem_euclid(4096), // medium cardinality
        _ => raw,                      // full domain
    }
}

/// A value-column strategy over the shaped distribution.
fn values(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec((any::<i64>(), any::<u8>()), 0..max_len)
        .prop_map(|pairs| pairs.into_iter().map(|(raw, tag)| shape_value(raw, tag % 8)).collect())
}

/// Values confined to a random frame plus a width-targeted range, so
/// every packed bit width (1, 2, 4, 8, 16, 32, 64) gets drawn —
/// including frames near the signed extremes where the FOR delta wraps.
fn framed_values(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    (any::<i64>(), 0u32..=6, proptest::collection::vec(any::<u64>(), 0..max_len)).prop_map(
        |(base, wexp, raws)| {
            let bits = 1u32 << wexp;
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            raws.into_iter().map(|r| base.wrapping_add((r & mask) as i64)).collect()
        },
    )
}

/// A comparison-operator strategy covering every `CompareOp` arm plus
/// always-true and always-false bands, with band edges drawn near the
/// column values so partially-overlapping bands are common.
fn compare_op() -> impl Strategy<Value = CompareOp> {
    (any::<i64>(), any::<u8>(), any::<i64>(), 0u8..8).prop_map(|(raw, tag, b, arm)| {
        // The shaped draw puts `i64::MIN`/`i64::MAX` under the open-sided
        // arms, so the band's empty-at-the-extremes cases get drawn.
        let a = shape_value(raw, tag % 8);
        let (lo, hi) = (a.min(b), a.max(b));
        match arm {
            0 => CompareOp::Between(lo, hi),
            1 => CompareOp::Eq(a),
            2 => CompareOp::Lt(a),
            3 => CompareOp::Le(a),
            4 => CompareOp::Gt(a),
            5 => CompareOp::Ge(a),
            6 => CompareOp::Between(i64::MIN, i64::MAX), // all match
            _ => CompareOp::Between(1, 0),               // empty band: none match
        }
    })
}

/// A column with packing **forced** (bypassing the payoff rule), so the
/// packed code paths run even for distributions where encoding would
/// not pay.
fn force_packed(name: &str, data: &[i64]) -> Column {
    Column {
        name: name.into(),
        width: 8,
        data: data.to_vec(),
        packed: Some(PackedColumn::encode(data)),
    }
}

/// Asserts the production filter and every vectorized arm on the
/// force-packed column are word-identical to the scalar oracle on the
/// unencoded column.
fn assert_filter_matches_oracle(data: &[i64], op: CompareOp) {
    let flat = Table::new(vec![Column::i64("x", data.to_vec())]);
    let packed = Table::new(vec![force_packed("x", data)]);
    let spec = FilterSpec::new("x", op);
    let want = spec.apply_with(&flat, Kernel::Scalar);
    for kernel in [Kernel::Swar, Kernel::HwCrc] {
        let got = spec.apply_with(&packed, kernel);
        // Word-for-word equality, so tail-lane masking bugs cannot hide
        // behind popcounts.
        assert_eq!(got, want, "rows={} op={op:?} kernel={kernel:?}", data.len());
        assert_eq!(got.words(), want.words(), "rows={} op={op:?}", data.len());
    }
    assert_eq!(spec.apply(&packed).words(), want.words(), "rows={} op={op:?}", data.len());
}

proptest! {
    #[test]
    fn packed_roundtrip_is_exact(data in framed_values(3000)) {
        let p = PackedColumn::encode(&data);
        prop_assert_eq!(p.len(), data.len());
        prop_assert_eq!(p.unpack(), data.clone());
        // Sampled point lookups take the same per-chunk shift/mask path.
        for (i, &v) in data.iter().enumerate().step_by(97) {
            prop_assert_eq!(p.get(i), v);
        }
    }

    #[test]
    fn packed_filter_is_word_identical_to_flat(
        data in framed_values(3000),
        op in compare_op(),
    ) {
        assert_filter_matches_oracle(&data, op);
    }

    #[test]
    fn packed_filter_handles_extreme_value_mixes(
        data in values(500),
        op in compare_op(),
    ) {
        assert_filter_matches_oracle(&data, op);
    }
}

/// Chunk-boundary row counts: every length straddling the 1024-row pack
/// chunk and the 64-row selection word must mask identically, for every
/// predicate shape.
#[test]
fn packed_filter_is_exact_at_chunk_boundaries() {
    for len in [0usize, 1, 63, 64, 65, 127, 128, 1023, 1024, 1025, 2047, 2048, 2049] {
        let data: Vec<i64> = (0..len as i64).map(|i| (i * 37) % 50 - 25).collect();
        for op in [
            CompareOp::Between(-10, 10),
            CompareOp::Between(i64::MIN, i64::MAX), // all match
            CompareOp::Between(1, 0),               // none match
            CompareOp::Eq(0),
            CompareOp::Ge(0),
            CompareOp::Lt(-25), // below every chunk frame: zone-map zeros
        ] {
            assert_filter_matches_oracle(&data, op);
        }
    }
}

/// Signed-extreme frames and all-constant chunks: `i64::MIN`/`MAX`
/// values wrap the FOR delta across the full unsigned domain, and
/// constant chunks (range 0) must short-circuit on the zone map alone.
#[test]
fn packed_extremes_and_constant_chunks_are_exact() {
    let mut data = vec![i64::MIN; 1024]; // all-constant chunk, extreme frame
    data.extend(std::iter::repeat_n(i64::MAX, 1024)); // another constant chunk
                                                      // A full-range chunk: deltas span the whole unsigned domain.
    data.extend((0..1024).map(|i| if i % 2 == 0 { i64::MIN } else { i64::MAX }));
    data.extend(std::iter::repeat_n(7, 1024)); // small constant chunk
    data.extend((0..100).map(|i| i - 50)); // partial tail chunk
    let p = PackedColumn::encode(&data);
    assert_eq!(p.unpack(), data);

    for op in [
        CompareOp::Eq(i64::MIN),
        CompareOp::Eq(i64::MAX),
        CompareOp::Eq(7),
        CompareOp::Between(i64::MIN, i64::MAX),
        CompareOp::Between(0, 0),
        CompareOp::Ge(0),
        CompareOp::Le(-1),
        CompareOp::Gt(0),
        CompareOp::Lt(0),
        CompareOp::Lt(i64::MIN),
        CompareOp::Gt(i64::MAX),
    ] {
        assert_filter_matches_oracle(&data, op);
    }
}

/// The payoff rule: `Column::encode_packed` keeps the packed form only
/// when it is strictly smaller than the flat data, and never packs an
/// already-packed or empty column twice.
#[test]
fn encode_packed_keeps_only_paying_columns() {
    // Full-domain 64-bit noise: 64-bit deltas plus headers cannot beat
    // the flat 8-byte width, so the column must stay flat.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let noise: Vec<i64> = (0..5000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state as i64
        })
        .collect();
    let mut wide = Column::i64("noise", noise);
    wide.encode_packed();
    assert!(wide.packed.is_none(), "full-domain noise must fall back to flat");
    assert_eq!(wide.resident_bytes(), wide.bytes());

    // A small-domain column packs and shrinks.
    let mut small = Column::i64("small", (0..5000).map(|i| i % 50).collect());
    small.encode_packed();
    let p = small.packed.as_ref().expect("small domain must pack");
    assert!(small.resident_bytes() < small.bytes());
    assert_eq!(p.unpack(), small.data);
    // Idempotent: a second encode leaves the representation untouched.
    let before = small.resident_bytes();
    small.encode_packed();
    assert_eq!(small.resident_bytes(), before);

    // An empty column never packs.
    let mut empty = Column::i64("empty", vec![]);
    empty.encode_packed();
    assert!(empty.packed.is_none());
}

/// Runs every public entry point on a force-packed table and compares
/// each to its `*_with(.., Kernel::Scalar)` oracle on an unencoded
/// clone: the production path (host-probed kernel, encoded-domain
/// filter, flat `data` everywhere else) must be bit-identical to the
/// scalar reference at any `DPU_THREADS`.
#[test]
fn entry_apis_honor_the_resolved_knobs() {
    let n = 5000usize;
    let keys: Vec<i64> = (0..n as i64).map(|i| (i * 131) % 3000 - 1500).collect();
    let vals: Vec<i64> = (0..n as i64).map(|i| (i * 17) % 10_000).collect();
    let flat = Table::new(vec![Column::i64("x", keys.clone()), Column::i64("v", vals.clone())]);
    let t = Table::new(vec![force_packed("x", &keys), force_packed("v", &vals)]);

    let spec = FilterSpec::new("x", CompareOp::Between(-500, 900));
    assert_eq!(spec.apply(&t).words(), spec.apply_with(&flat, Kernel::Scalar).words());

    let g = GroupBySpec {
        group_cols: vec!["x".into()],
        aggs: vec![("cnt".into(), AggFunc::Count), ("s".into(), AggFunc::Sum("v".into()))],
    };
    assert_eq!(g.execute(&t, None), g.execute_on_with(Pool::new(1), &flat, None, Kernel::Scalar));

    let join = HashJoin {
        build_key: "x".into(),
        probe_key: "x".into(),
        build_cols: vec!["v".into()],
        probe_cols: vec!["v".into(), "x".into()],
    };
    assert_eq!(join.execute(&t, &t, 8), join.execute_seq_with(&flat, &flat, 8, Kernel::Scalar));

    assert_eq!(top_k(&t, "v", 50, 4), top_k_with(&flat, "v", 50, 4, None, Kernel::Scalar));
    assert_eq!(sort_indices(&t, "x", 4), sort_indices_with(&flat, "x", 4, None, Kernel::Scalar));
    assert_eq!(
        sort_indices_multi(&t, &["x", "v"], 4),
        sort_indices_multi_with(&flat, &["x", "v"], 4, None, Kernel::Scalar)
    );

    let e = Expr::col("v") * (Expr::lit(100) - Expr::col("x"));
    assert_eq!(e.eval(&t), e.eval_with(&flat, Kernel::Scalar));

    assert_eq!(
        partition_row_ids(&t.columns[0].data, 32),
        partition_row_ids_with(&flat.columns[0].data, 0, 32, Kernel::Scalar)
    );
}
