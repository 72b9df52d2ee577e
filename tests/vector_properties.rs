//! Differential property suite for the SWAR kernels (`dpu_sql::vector`).
//!
//! The SWAR kernels are *pure performance*: they are the one production
//! path, and the scalar loops survive only as their oracle. For every
//! table size (including row counts ≢ 0 mod 64 and empty tables), every
//! predicate (all-match, none-match, extreme bands), every fanout, every
//! group-key distribution (including `i64::MIN/MAX` keys), and every
//! `DPU_THREADS`, the vectorized filter / partition / join / agg kernels
//! must be **bit-identical** to the scalar reference paths — same
//! words, same row order, same accumulator values.
//!
//! The oracle arm is selected by explicit [`Kernel`] arguments, never by
//! process-wide state, so the suite is safe under the harness's
//! concurrent test execution.

use proptest::prelude::*;

use dpu_repro::isa::hash::{
    crc32c_u64, crc32c_u64_hw, crc32c_u64_table, crc32c_u64_x4, crc32c_u64_x4_hw, crc32c_wide,
    crc32c_wide_hw, crc32c_wide_table, crc32c_wide_x4, crc32c_wide_x4_hw, hw_crc_available,
};
use dpu_repro::pool::Pool;
use dpu_repro::sql::{
    partition_row_ids_with, sort_indices_multi_with, sort_indices_with, top_k_with, AggFunc,
    BitVec, Column, CompareOp, Expr, FilterSpec, GroupBySpec, HashJoin, Kernel, Table,
};

/// Widens a tagged raw value into a key distribution that exercises
/// extremes (`i64::MIN`, `i64::MAX`), small dense ranges (collisions),
/// and full-domain values.
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

/// A comparison-operator strategy covering every `CompareOp` arm plus
/// always-true and always-false bands.
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

proptest! {
    #[test]
    fn swar_filter_is_bit_identical_to_scalar(
        data in values(400),
        op in compare_op(),
    ) {
        let t = Table::new(vec![Column::i64("x", data)]);
        let spec = FilterSpec::new("x", op);
        let scalar = spec.apply_with(&t, Kernel::Scalar);
        let swar = spec.apply_with(&t, Kernel::Swar);
        // Word-for-word equality (PartialEq covers words + len), so
        // tail-lane masking bugs cannot hide behind popcounts.
        prop_assert_eq!(&scalar, &swar);
        prop_assert_eq!(scalar.words(), swar.words());
    }

    #[test]
    fn swar_partition_is_bit_identical_to_scalar(
        keys in values(400),
        fanout in 1u64..40,
        base in 0usize..10_000,
    ) {
        let scalar = partition_row_ids_with(&keys, base, fanout, Kernel::Scalar);
        let swar = partition_row_ids_with(&keys, base, fanout, Kernel::Swar);
        prop_assert_eq!(scalar, swar);
    }

    #[test]
    fn swar_join_is_bit_identical_to_scalar(
        bkeys in values(200),
        pkeys in values(200),
        fanout in 1u64..10,
        workers in 1usize..5,
    ) {
        let build = Table::new(vec![
            Column::i64("k", bkeys.clone()),
            Column::i64("bv", bkeys.iter().map(|&k| k ^ 0x5A5A).collect()),
        ]);
        let probe = Table::new(vec![
            Column::i64("k", pkeys.clone()),
            Column::i64("pv", pkeys.iter().map(|&k| k.wrapping_add(17)).collect()),
        ]);
        let join = HashJoin {
            build_key: "k".into(),
            probe_key: "k".into(),
            build_cols: vec!["bv".into()],
            probe_cols: vec!["pv".into(), "k".into()],
        };
        let (scalar, scalar_max) = join.execute_seq_with(&build, &probe, fanout, Kernel::Scalar);
        let (swar, swar_max) = join.execute_seq_with(&build, &probe, fanout, Kernel::Swar);
        // Exact row order, not just multiset equality.
        prop_assert_eq!(&scalar, &swar);
        prop_assert_eq!(scalar_max, swar_max);
        // The pool path composes with either kernel unchanged (its
        // chunking merges per-chunk partitions in input order).
        let (pooled, pooled_max) = join.execute_on(Pool::new(workers), &build, &probe, fanout);
        prop_assert_eq!(&scalar, &pooled);
        prop_assert_eq!(scalar_max, pooled_max);
    }

    #[test]
    fn swar_group_by_is_bit_identical_to_scalar(
        keys in values(400),
        sel_stride in proptest::option::of(1usize..7),
        workers in 1usize..5,
    ) {
        let vals: Vec<i64> =
            keys.iter().enumerate().map(|(i, &k)| (k % 1000).wrapping_mul(3) + i as i64).collect();
        let t = Table::new(vec![
            Column::i64("g", keys.clone()),
            Column::i64("v", vals.clone()),
            Column::i64("d", vals.iter().map(|v| v % 13).collect()),
        ]);
        let spec = GroupBySpec {
            group_cols: vec!["g".into()],
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("v".into())),
                ("lo".into(), AggFunc::Min("v".into())),
                ("hi".into(), AggFunc::Max("v".into())),
                ("sp".into(), AggFunc::SumProduct("v".into(), "d".into())),
            ],
        };
        let sel = sel_stride.map(|m| BitVec::from_fn(keys.len(), |i| i % m != 0));
        let scalar = spec.execute_seq(&t, sel.as_ref());
        let swar = spec.execute_vector(&t, sel.as_ref());
        prop_assert_eq!(&scalar, &swar);
        // Pool leaves run the SWAR probe too; both kernels must agree
        // with the sequential reference at any worker count.
        for kernel in [Kernel::Scalar, Kernel::Swar] {
            let pooled = spec.execute_on_with(Pool::new(workers), &t, sel.as_ref(), kernel);
            prop_assert_eq!(&scalar, &pooled, "kernel {:?}", kernel);
        }
    }

    #[test]
    fn table_and_four_lane_crc_match_bit_serial(key in any::<u64>()) {
        let want = crc32c_u64(key);
        prop_assert_eq!(crc32c_u64_table(key), want);
        prop_assert_eq!(crc32c_u64_x4([key; 4]), [want; 4]);
    }

    #[test]
    fn swar_multi_key_group_by_is_bit_identical_to_scalar(
        (k1, k2, k3, width) in key_columns(),
        sel_stride in proptest::option::of(1usize..7),
        workers in 1usize..5,
    ) {
        let len = k1.len();
        let vals: Vec<i64> = (0..len as i64).map(|i| i.wrapping_mul(7) - 3).collect();
        let t = Table::new(vec![
            Column::i64("a", k1),
            Column::i64("b", k2),
            Column::i64("c", k3),
            Column::i64("v", vals),
        ]);
        let spec = GroupBySpec {
            group_cols: ["a", "b", "c"][..width].iter().map(|s| s.to_string()).collect(),
            aggs: vec![
                ("cnt".into(), AggFunc::Count),
                ("s".into(), AggFunc::Sum("v".into())),
                ("lo".into(), AggFunc::Min("v".into())),
                ("hi".into(), AggFunc::Max("v".into())),
            ],
        };
        let sel = sel_stride.map(|m| BitVec::from_fn(len, |i| i % m != 0));
        let scalar = spec.execute_seq(&t, sel.as_ref());
        for kernel in [Kernel::Swar, Kernel::HwCrc] {
            let vectored = spec.execute_vector_with(&t, sel.as_ref(), kernel);
            prop_assert_eq!(&scalar, &vectored, "kernel {:?}", kernel);
            // Pool leaves aggregate through the same composite-key SWAR
            // probe; the partitioned merge must land on the same table.
            let pooled = spec.execute_on_with(Pool::new(workers), &t, sel.as_ref(), kernel);
            prop_assert_eq!(&scalar, &pooled, "pooled kernel {:?}", kernel);
        }
    }

    #[test]
    fn swar_top_k_is_bit_identical_to_scalar(
        data in values(400),
        k in 1usize..50,
        workers in 1usize..6,
        sel_stride in proptest::option::of(1usize..5),
    ) {
        let t = Table::new(vec![Column::i64("v", data.clone())]);
        let sel = sel_stride.map(|m| BitVec::from_fn(data.len(), |i| i % m != 0));
        let scalar = top_k_with(&t, "v", k, workers, sel.as_ref(), Kernel::Scalar);
        for kernel in [Kernel::Swar, Kernel::HwCrc] {
            let got = top_k_with(&t, "v", k, workers, sel.as_ref(), kernel);
            prop_assert_eq!(&scalar, &got, "kernel {:?}", kernel);
        }
    }

    #[test]
    fn swar_sort_is_bit_identical_to_scalar(
        (k1, k2, _k3, width) in key_columns(),
        workers in 1usize..16,
        sel_stride in proptest::option::of(1usize..5),
    ) {
        let len = k1.len();
        let t = Table::new(vec![Column::i64("a", k1), Column::i64("b", k2)]);
        let sel = sel_stride.map(|m| BitVec::from_fn(len, |i| i % m != 0));
        let scalar = sort_indices_with(&t, "a", workers, sel.as_ref(), Kernel::Scalar);
        for kernel in [Kernel::Swar, Kernel::HwCrc] {
            let got = sort_indices_with(&t, "a", workers, sel.as_ref(), kernel);
            prop_assert_eq!(&scalar, &got, "single-key kernel {:?}", kernel);
        }
        let cols: Vec<&str> = ["a", "b"][..width.min(2)].to_vec();
        let scalar = sort_indices_multi_with(&t, &cols, workers, sel.as_ref(), Kernel::Scalar);
        for kernel in [Kernel::Swar, Kernel::HwCrc] {
            let got = sort_indices_multi_with(&t, &cols, workers, sel.as_ref(), kernel);
            prop_assert_eq!(&scalar, &got, "multi-key kernel {:?}", kernel);
        }
    }

    #[test]
    fn swar_expression_eval_is_bit_identical_to_scalar(data in values(300)) {
        // Divisors shaped strictly positive: division by zero panics (by
        // contract) and `i64::MIN / -1` would trap in both arms.
        let divisor: Vec<i64> = data.iter().map(|&v| v.rem_euclid(1000) + 1).collect();
        let t = Table::new(vec![Column::i64("x", data), Column::i64("d", divisor)]);
        let e = Expr::Clamp(
            Box::new(
                (Expr::col("x") * Expr::lit(3) + Expr::col("x") - Expr::lit(7)) / Expr::col("d"),
            ),
            -(1 << 40),
            1 << 40,
        );
        let scalar = e.eval_with(&t, Kernel::Scalar);
        for kernel in [Kernel::Swar, Kernel::HwCrc] {
            prop_assert_eq!(&scalar, &e.eval_with(&t, kernel), "kernel {:?}", kernel);
        }
    }
}

/// Three equal-length shaped key columns plus a group-key width in
/// `1..=3`, for composite-key differential tests.
fn key_columns() -> impl Strategy<Value = (Vec<i64>, Vec<i64>, Vec<i64>, usize)> {
    ((values(200), values(200)), (values(200), 1usize..=3)).prop_map(
        |((mut k1, mut k2), (mut k3, width))| {
            // Independently-sized draws truncate to one shared length.
            let len = k1.len().min(k2.len()).min(k3.len());
            k1.truncate(len);
            k2.truncate(len);
            k3.truncate(len);
            (k1, k2, k3, width)
        },
    )
}

/// Tail lanes: every row count straddling the 64-row word boundary must
/// mask identically, for every predicate shape.
#[test]
fn filter_tail_lanes_are_exact_at_word_boundaries() {
    for len in [0usize, 1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 191, 192, 193] {
        let data: Vec<i64> = (0..len as i64).map(|i| (i * 37) % 50 - 25).collect();
        let t = Table::new(vec![Column::i64("x", data)]);
        for op in [
            CompareOp::Between(-10, 10),
            CompareOp::Between(i64::MIN, i64::MAX), // all match
            CompareOp::Between(1, 0),               // none match
            CompareOp::Eq(0),
            CompareOp::Ge(0),
        ] {
            let spec = FilterSpec::new("x", op);
            let scalar = spec.apply_with(&t, Kernel::Scalar);
            let swar = spec.apply_with(&t, Kernel::Swar);
            assert_eq!(scalar, swar, "len={len} op={op:?}");
            assert_eq!(scalar.words(), swar.words(), "len={len} op={op:?}");
        }
    }
}

/// Group keys at the signed extremes flow through CRC hashing, open
/// addressing, and the final key sort exactly like the scalar HashMap.
#[test]
fn group_by_extreme_keys_are_exact() {
    let keys = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
    let vals: Vec<i64> = (0..keys.len() as i64).collect();
    let t = Table::new(vec![Column::i64("g", keys), Column::i64("v", vals)]);
    let spec = GroupBySpec {
        group_cols: vec!["g".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("lo".into(), AggFunc::Min("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    assert_eq!(spec.execute_seq(&t, None), spec.execute_vector(&t, None));
}

/// Empty tables and empty selections produce identical empty results.
#[test]
fn empty_inputs_are_exact() {
    let t = Table::new(vec![Column::i64("g", vec![]), Column::i64("v", vec![])]);
    let spec = GroupBySpec {
        group_cols: vec!["g".into()],
        aggs: vec![("s".into(), AggFunc::Sum("v".into()))],
    };
    assert_eq!(spec.execute_seq(&t, None), spec.execute_vector(&t, None));

    let spec_f = FilterSpec::new("g", CompareOp::Ge(0));
    assert_eq!(spec_f.apply_with(&t, Kernel::Scalar), spec_f.apply_with(&t, Kernel::Swar));

    assert_eq!(
        partition_row_ids_with(&[], 0, 8, Kernel::Scalar),
        partition_row_ids_with(&[], 0, 8, Kernel::Swar),
    );

    // All-false selection: the SWAR path sees zero selected rows.
    let t2 = Table::new(vec![Column::i64("g", vec![1, 2, 3]), Column::i64("v", vec![4, 5, 6])]);
    let none = BitVec::new(3);
    assert_eq!(spec.execute_seq(&t2, Some(&none)), spec.execute_vector(&t2, Some(&none)));
}

/// The table-driven and 4-lane CRC32-C engines agree with the bit-serial
/// reference over a seeded 1M-key sample (SplitMix64 stream), scanned in
/// lane batches exactly as the partition kernel consumes them.
#[test]
fn crc_lanes_match_bit_serial_over_a_million_keys() {
    let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
    for batch in 0..250_000u64 {
        let keys = [next(), next(), next(), next()];
        let lanes = crc32c_u64_x4(keys);
        for (j, &k) in keys.iter().enumerate() {
            let want = crc32c_u64(k);
            assert_eq!(lanes[j], want, "batch {batch} lane {j} key {k:#x}");
            assert_eq!(crc32c_u64_table(k), want, "batch {batch} key {k:#x}");
        }
    }
}

/// A seeded SplitMix64 stream (fixed seed ⇒ reproducible failures).
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The SSE4.2 hardware CRC engine agrees with the table and bit-serial
/// engines over a seeded sample of single and multi-word keys. Skips
/// cleanly (the wrappers fall back to the table engine anyway) on hosts
/// without SSE4.2.
#[test]
fn hardware_crc_matches_table_and_bit_serial() {
    if !hw_crc_available() {
        eprintln!("skipping: host lacks SSE4.2");
        return;
    }
    let mut next = splitmix(0xDEAD_BEEF_CAFE_F00D);
    for round in 0..50_000u64 {
        let k = next();
        let want = crc32c_u64(k);
        assert_eq!(crc32c_u64_hw(k), want, "round {round} key {k:#x}");
        assert_eq!(crc32c_u64_table(k), want, "round {round} key {k:#x}");

        let quad = [next(), next(), next(), next()];
        assert_eq!(crc32c_u64_x4_hw(quad), crc32c_u64_x4(quad), "round {round}");

        let width = (round % 4 + 1) as usize;
        let wide: Vec<u64> = (0..width).map(|_| next()).collect();
        let want_wide = crc32c_wide(&wide);
        assert_eq!(crc32c_wide_hw(&wide), want_wide, "round {round} width {width}");
        assert_eq!(crc32c_wide_table(&wide), want_wide, "round {round} width {width}");

        let lanes_flat: Vec<Vec<u64>> =
            (0..4).map(|_| (0..width).map(|_| next()).collect()).collect();
        let lanes =
            [&lanes_flat[0][..], &lanes_flat[1][..], &lanes_flat[2][..], &lanes_flat[3][..]];
        assert_eq!(crc32c_wide_x4_hw(lanes), crc32c_wide_x4(lanes), "round {round} width {width}");
    }
}

/// Composite group keys pinning a signed extreme in each column position
/// survive flattening, wide-CRC hashing, probe compares, and the key
/// sort, with duplicate-heavy groups and all-false selections included.
#[test]
fn multi_key_groups_pin_signed_extremes_per_column() {
    let a = vec![i64::MIN, i64::MIN, i64::MAX, i64::MAX, 0, 0, i64::MIN, i64::MIN];
    let b = vec![i64::MAX, i64::MAX, i64::MIN, 0, i64::MIN, i64::MIN, i64::MAX, -1];
    let c = vec![0, 0, i64::MAX, i64::MIN, 1, 1, 0, i64::MIN + 1];
    let v: Vec<i64> = (0..a.len() as i64).map(|i| i * 11 - 40).collect();
    let t = Table::new(vec![
        Column::i64("a", a),
        Column::i64("b", b),
        Column::i64("c", c),
        Column::i64("v", v),
    ]);
    let spec = GroupBySpec {
        group_cols: vec!["a".into(), "b".into(), "c".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("s".into(), AggFunc::Sum("v".into())),
            ("lo".into(), AggFunc::Min("v".into())),
            ("hi".into(), AggFunc::Max("v".into())),
        ],
    };
    let none = BitVec::new(t.rows());
    for sel in [None, Some(&none)] {
        let scalar = spec.execute_seq(&t, sel);
        for kernel in [Kernel::Swar, Kernel::HwCrc] {
            assert_eq!(scalar, spec.execute_vector_with(&t, sel, kernel), "kernel {kernel:?}");
        }
    }
}

/// Duplicate values tied exactly at the k-th threshold: the pre-filter
/// must keep earlier-row ties and reject later-row ties exactly like the
/// scalar heap, across worker splits that cut through the tie run.
#[test]
fn top_k_ties_at_the_threshold_are_exact() {
    // 256 rows, half of them the constant 5 — k lands inside the ties.
    let vals: Vec<i64> = (0..256).map(|i| if i % 2 == 0 { 5 } else { i % 10 }).collect();
    let t = Table::new(vec![Column::i64("v", vals.clone())]);
    for k in [1usize, 3, 64, 128, 200] {
        // Reference: stable sort by (value desc, row asc).
        let mut want: Vec<usize> = (0..vals.len()).collect();
        want.sort_by(|&x, &y| vals[y].cmp(&vals[x]).then(x.cmp(&y)));
        want.truncate(k);
        for workers in [1usize, 3, 7] {
            for kernel in [Kernel::Scalar, Kernel::Swar] {
                let got = top_k_with(&t, "v", k, workers, None, kernel);
                assert_eq!(got, want, "k={k} workers={workers} kernel={kernel:?}");
            }
        }
    }
}

/// Equal sort keys stay in row order under both arms — the unstable
/// word sort must not be observably unstable.
#[test]
fn sort_keeps_equal_keys_in_row_order() {
    let a: Vec<i64> = (0..500).map(|i| i % 4).collect();
    let b: Vec<i64> = (0..500).map(|i| i % 2).collect();
    let t = Table::new(vec![Column::i64("a", a.clone()), Column::i64("b", b.clone())]);
    for workers in [1usize, 8] {
        let scalar = sort_indices_multi_with(&t, &["a", "b"], workers, None, Kernel::Scalar);
        let swar = sort_indices_multi_with(&t, &["a", "b"], workers, None, Kernel::Swar);
        assert_eq!(scalar, swar, "workers={workers}");
        for w in swar.windows(2) {
            let (x, y) = (w[0], w[1]);
            assert!(
                (a[x], b[x]) < (a[y], b[y]) || ((a[x], b[x]) == (a[y], b[y]) && x < y),
                "stability violated at rows {x},{y}"
            );
        }
    }
}

/// The filter's packed output words drive top-k and sort directly — no
/// per-row bool expansion — and land on the same rows as scalar
/// re-evaluation of the predicate.
#[test]
fn filter_words_feed_topk_and_sort_directly() {
    let vals: Vec<i64> = (0..1000).map(|i| (i * 37) % 211 - 100).collect();
    let t = Table::new(vec![Column::i64("v", vals.clone())]);
    let sel = FilterSpec::new("v", CompareOp::Gt(-50)).apply_with(&t, Kernel::Swar);
    for kernel in [Kernel::Scalar, Kernel::Swar] {
        let top = top_k_with(&t, "v", 25, 4, Some(&sel), kernel);
        assert!(top.iter().all(|&r| vals[r] > -50), "kernel {kernel:?}");
        assert_eq!(top, top_k_with(&t, "v", 25, 4, Some(&sel), Kernel::Scalar));
        let sorted = sort_indices_with(&t, "v", 8, Some(&sel), kernel);
        assert_eq!(sorted.len(), sel.count(), "kernel {kernel:?}");
        assert!(sorted.windows(2).all(|w| (vals[w[0]], w[0]) < (vals[w[1]], w[1])));
    }
}
