//! A stable 64-bit digest (FNV-1a) of simulated outputs and costs.
//!
//! Host-only changes must leave every simulated value identical, so the
//! benchmark hashes each operation's outputs and costs and compares the
//! digest across repeated runs and pool widths. FNV-1a is used rather
//! than `std`'s hasher so the value is stable across toolchains.

use dpu_cluster::{ClusterQueryCost, QueryOutput};
use dpu_sql::Table;

/// An FNV-1a accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds in a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds in a string with its length.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds in every column name, width and value of a table.
    pub fn table(&mut self, t: &Table) -> &mut Self {
        self.u64(t.columns.len() as u64);
        for c in &t.columns {
            self.str(&c.name).u64(u64::from(c.width)).u64(c.data.len() as u64);
            for &v in &c.data {
                self.u64(v as u64);
            }
        }
        self
    }

    /// Folds in a distributed query's output.
    pub fn output(&mut self, o: &QueryOutput) -> &mut Self {
        match o {
            QueryOutput::Table(t) => self.u64(0).table(t),
            QueryOutput::Scalar(v) => self.u64(1).u64(*v as u64),
            QueryOutput::Pair(a, b) => self.u64(2).u64(*a as u64).u64(*b as u64),
        }
    }

    /// Folds in every field of a distributed query's simulated cost.
    pub fn cost(&mut self, c: &ClusterQueryCost) -> &mut Self {
        self.u64(c.per_node.len() as u64);
        for n in &c.per_node {
            self.f64(n.mem_seconds).f64(n.cpu_seconds);
        }
        self.f64(c.local_seconds)
            .f64(c.fabric_seconds)
            .f64(c.merge_seconds)
            .u64(c.fabric_bytes)
            .u64(c.failovers as u64)
            .u64(c.speculations as u64)
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn float_bits_distinguish_signed_zero() {
        assert_ne!(Digest::default().f64(0.0).value(), Digest::default().f64(-0.0).value());
    }
}
