//! Partitioned hash join.
//!
//! §5.3: "We also implemented other SQL operations like Join and Top-k
//! using partitioning techniques similar to those described above" — both
//! sides are hash-partitioned (DMS hardware + software rounds) until each
//! build-side partition's hash table fits DMEM, then each dpCore builds
//! and probes its partition independently.

use std::collections::HashMap;

use dpu_isa::hash::crc32c_u64;
use dpu_pool::{chunk_bounds, in_worker, Pool};

use crate::column::{Column, Table};
use crate::vector::{self, Kernel};
use crate::PAR_MIN_ROWS;

/// An equi-join of two tables.
#[derive(Debug, Clone)]
pub struct HashJoin {
    /// Build-side key column name.
    pub build_key: String,
    /// Probe-side key column name.
    pub probe_key: String,
    /// Columns to project from the build side (renamed as-is).
    pub build_cols: Vec<String>,
    /// Columns to project from the probe side.
    pub probe_cols: Vec<String>,
}

impl HashJoin {
    /// Executes the inner join with `fanout`-way CRC32 partitioning,
    /// returning the projected result and the largest build-partition
    /// entry count (for DMEM-budget assertions).
    ///
    /// Output rows appear in (partition, probe-order) order. Large
    /// inputs run on the global host pool ([`Self::execute_on`]); the
    /// result is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute(&self, build: &Table, probe: &Table, fanout: u64) -> (Table, u64) {
        let pool = Pool::global();
        if pool.threads() > 1
            && !in_worker()
            && fanout > 1
            && build.rows() + probe.rows() >= PAR_MIN_ROWS
        {
            self.execute_on(pool, build, probe, fanout)
        } else {
            self.execute_seq(build, probe, fanout)
        }
    }

    /// The sequential join kernel (the exact pre-parallelism code
    /// path), partitioning with the production kernel — bit-identical
    /// to every other arm, since every CRC engine computes the same
    /// CRC32-C.
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute_seq(&self, build: &Table, probe: &Table, fanout: u64) -> (Table, u64) {
        self.execute_seq_with(build, probe, fanout, vector::kernel())
    }

    /// [`Self::execute_seq`] with an explicit partitioning kernel, for
    /// differential tests and benches.
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute_seq_with(
        &self,
        build: &Table,
        probe: &Table,
        fanout: u64,
        kernel: Kernel,
    ) -> (Table, u64) {
        assert!(fanout > 0, "fanout must be positive");
        let bk = build.col_index(&self.build_key);
        let pk = probe.col_index(&self.probe_key);

        // Partition row ids on both sides.
        let bparts = partition_row_ids_with(&build.columns[bk].data, 0, fanout, kernel);
        let pparts = partition_row_ids_with(&probe.columns[pk].data, 0, fanout, kernel);

        let bcols: Vec<usize> = self.build_cols.iter().map(|c| build.col_index(c)).collect();
        let pcols: Vec<usize> = self.probe_cols.iter().map(|c| probe.col_index(c)).collect();
        let mut out: Vec<Vec<i64>> = vec![Vec::new(); bcols.len() + pcols.len()];
        let mut max_build = 0u64;

        for p in 0..fanout as usize {
            // Build a per-partition table: key → build row ids (handles
            // duplicate build keys).
            let mut ht: HashMap<i64, Vec<usize>> = HashMap::new();
            for &r in &bparts[p] {
                ht.entry(build.columns[bk].data[r]).or_default().push(r);
            }
            max_build = max_build.max(bparts[p].len() as u64);
            for &pr in &pparts[p] {
                if let Some(brs) = ht.get(&probe.columns[pk].data[pr]) {
                    for &br in brs {
                        for (i, &c) in bcols.iter().enumerate() {
                            out[i].push(build.columns[c].data[br]);
                        }
                        for (i, &c) in pcols.iter().enumerate() {
                            out[bcols.len() + i].push(probe.columns[c].data[pr]);
                        }
                    }
                }
            }
        }

        let mut columns = Vec::new();
        for (i, name) in self.build_cols.iter().enumerate() {
            columns.push(Column::i64(name, std::mem::take(&mut out[i])));
        }
        for (i, name) in self.probe_cols.iter().enumerate() {
            columns.push(Column::i64(name, std::mem::take(&mut out[self.build_cols.len() + i])));
        }
        (Table::new(columns), max_build)
    }

    /// The pool-parallel join kernel: chunk-parallel partitioning, one
    /// build+probe task per partition, outputs concatenated in
    /// partition order — bit-identical to [`Self::execute_seq`]
    /// (partitions are disjoint and each preserves probe order, which
    /// is exactly the sequential emission order).
    ///
    /// # Panics
    ///
    /// Panics if named columns are missing or `fanout` is zero.
    pub fn execute_on(
        &self,
        pool: Pool,
        build: &Table,
        probe: &Table,
        fanout: u64,
    ) -> (Table, u64) {
        assert!(fanout > 0, "fanout must be positive");
        let bk = build.col_index(&self.build_key);
        let pk = probe.col_index(&self.probe_key);

        let bparts = par_partition(pool, &build.columns[bk].data, fanout);
        let pparts = par_partition(pool, &probe.columns[pk].data, fanout);

        let bcols: Vec<usize> = self.build_cols.iter().map(|c| build.col_index(c)).collect();
        let pcols: Vec<usize> = self.probe_cols.iter().map(|c| probe.col_index(c)).collect();

        // One task per partition; each emits its slice of every output
        // column in probe order.
        let per_part = pool.par_map(bparts.iter().zip(&pparts).collect(), |(bp, pp)| {
            let mut ht: HashMap<i64, Vec<usize>> = HashMap::new();
            for &r in bp {
                ht.entry(build.columns[bk].data[r]).or_default().push(r);
            }
            let mut out: Vec<Vec<i64>> = vec![Vec::new(); bcols.len() + pcols.len()];
            for &pr in pp {
                if let Some(brs) = ht.get(&probe.columns[pk].data[pr]) {
                    for &br in brs {
                        for (i, &c) in bcols.iter().enumerate() {
                            out[i].push(build.columns[c].data[br]);
                        }
                        for (i, &c) in pcols.iter().enumerate() {
                            out[bcols.len() + i].push(probe.columns[c].data[pr]);
                        }
                    }
                }
            }
            out
        });
        let max_build = bparts.iter().map(|p| p.len() as u64).max().unwrap_or(0);

        let names = self.build_cols.iter().chain(&self.probe_cols);
        let columns = names
            .enumerate()
            .map(|(i, name)| {
                Column::i64(name, per_part.iter().flat_map(|p| p[i].iter().copied()).collect())
            })
            .collect();
        (Table::new(columns), max_build)
    }
}

/// `fanout`-way CRC32 row-id partitioning of a whole column on the
/// production kernel (the 4-lane SWAR stream, table-driven or
/// hardware CRC) — bit-identical to the scalar bit-serial loop.
///
/// # Panics
///
/// Panics if `fanout` is zero.
pub fn partition_row_ids(keys: &[i64], fanout: u64) -> Vec<Vec<usize>> {
    partition_row_ids_with(keys, 0, fanout, vector::kernel())
}

/// [`partition_row_ids`] with an explicit base row id (for chunked
/// callers partitioning `[base, base + keys.len())` of a larger column)
/// and kernel choice.
///
/// # Panics
///
/// Panics if `fanout` is zero.
pub fn partition_row_ids_with(
    keys: &[i64],
    base: usize,
    fanout: u64,
    kernel: Kernel,
) -> Vec<Vec<usize>> {
    match kernel {
        Kernel::Swar | Kernel::HwCrc => vector::partition_row_ids(keys, base, fanout, kernel),
        Kernel::Scalar => {
            assert!(fanout > 0, "fanout must be positive");
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); fanout as usize];
            for (r, &key) in keys.iter().enumerate() {
                parts[(crc32c_u64(key as u64) as u64 % fanout) as usize].push(base + r);
            }
            parts
        }
    }
}

/// `fanout`-way CRC32 row-id partitioning, chunk-parallel on `pool`.
/// Chunk results concatenate in chunk order, so every partition's row
/// ids come out ascending — exactly the sequential partitioning.
fn par_partition(pool: Pool, keys: &[i64], fanout: u64) -> Vec<Vec<usize>> {
    let kernel = vector::kernel();
    let per_chunk = pool.par_map(chunk_bounds(keys.len(), pool.threads() * 4), |(lo, hi)| {
        partition_row_ids_with(&keys[lo..hi], lo, fanout, kernel)
    });
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); fanout as usize];
    for chunk in per_chunk {
        for (p, rows) in chunk.into_iter().enumerate() {
            parts[p].extend(rows);
        }
    }
    parts
}

/// Convenience: joins `probe` against `build` on integer keys and
/// returns the result sorted by all columns (for order-insensitive
/// comparisons in tests and queries).
pub fn sorted_rows(t: &Table) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> =
        (0..t.rows()).map(|r| t.columns.iter().map(|c| c.data[r]).collect()).collect();
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim_and_fact() -> (Table, Table) {
        let dim = Table::new(vec![
            Column::i32("id", vec![1, 2, 3, 4]),
            Column::i32("cat", vec![10, 20, 30, 40]),
        ]);
        let fact = Table::new(vec![
            Column::i32("fk", vec![2, 3, 2, 9, 1]),
            Column::i32("val", vec![100, 200, 300, 400, 500]),
        ]);
        (dim, fact)
    }

    #[test]
    fn inner_join_matches_reference() {
        let (dim, fact) = dim_and_fact();
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["cat".into()],
            probe_cols: vec!["val".into()],
        };
        let (out, _) = j.execute(&dim, &fact, 4);
        // fk=9 drops; (2,100)→20, (3,200)→30, (2,300)→20, (1,500)→10.
        let got = sorted_rows(&out);
        assert_eq!(got, vec![vec![10, 500], vec![20, 100], vec![20, 300], vec![30, 200]]);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let dim = Table::new(vec![Column::i32("id", vec![7, 7]), Column::i32("tag", vec![1, 2])]);
        let fact = Table::new(vec![Column::i32("fk", vec![7])]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["tag".into()],
            probe_cols: vec!["fk".into()],
        };
        let (out, _) = j.execute(&dim, &fact, 2);
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn fanout_does_not_change_result() {
        let (dim, fact) = dim_and_fact();
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["cat".into()],
            probe_cols: vec!["val".into()],
        };
        let (a, _) = j.execute(&dim, &fact, 1);
        let (b, _) = j.execute(&dim, &fact, 32);
        assert_eq!(sorted_rows(&a), sorted_rows(&b));
    }

    #[test]
    fn max_build_partition_shrinks_with_fanout() {
        let dim = Table::new(vec![Column::i32("id", (0..10_000).collect())]);
        let fact = Table::new(vec![Column::i32("fk", (0..100).collect())]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["id".into()],
            probe_cols: vec![],
        };
        let (_, m1) = j.execute(&dim, &fact, 1);
        let (_, m32) = j.execute(&dim, &fact, 32);
        assert_eq!(m1, 10_000);
        assert!(m32 < 500, "32-way split should be ≈312 rows, got {m32}");
    }

    #[test]
    fn parallel_join_is_bit_identical_to_sequential() {
        // Many rows with duplicate keys, both projected sides.
        let dim = Table::new(vec![
            Column::i32("id", (0..3000).map(|i| i % 700).collect()),
            Column::i32("cat", (0..3000).map(|i| i * 3).collect()),
        ]);
        let fact = Table::new(vec![
            Column::i32("fk", (0..5000).map(|i| (i * 7) % 900).collect()),
            Column::i32("val", (0..5000).collect()),
        ]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["cat".into()],
            probe_cols: vec!["val".into(), "fk".into()],
        };
        for fanout in [1u64, 2, 32] {
            let (want, want_max) = j.execute_seq(&dim, &fact, fanout);
            for workers in [1usize, 2, 4, 7] {
                let (got, got_max) = j.execute_on(Pool::new(workers), &dim, &fact, fanout);
                // Exact row order, not just multiset equality.
                assert_eq!(got, want, "fanout={fanout} workers={workers}");
                assert_eq!(got_max, want_max);
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let dim = Table::new(vec![Column::i32("id", vec![])]);
        let fact = Table::new(vec![Column::i32("fk", vec![])]);
        let j = HashJoin {
            build_key: "id".into(),
            probe_key: "fk".into(),
            build_cols: vec!["id".into()],
            probe_cols: vec!["fk".into()],
        };
        let (out, max_build) = j.execute(&dim, &fact, 8);
        assert_eq!(out.rows(), 0);
        assert_eq!(max_build, 0);
    }
}
