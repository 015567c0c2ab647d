//! The catalog manager (Figure 1): table schemas, resourceID columns and
//! coarse statistics. The paper defers catalogs to future work (§7); we
//! build the minimal version the SQL front-end and optimizer need. The
//! catalog is initiator-side state: shipped query descriptors carry fully
//! resolved column indices, so remote nodes never consult it.

use std::collections::BTreeMap;

use crate::tuple::{ColType, Schema, SchemaRef};

/// Coarse per-table statistics for the cost-based optimizer.
#[derive(Clone, Copy, Debug)]
pub struct TableStats {
    /// Total rows across all publishers.
    pub rows: u64,
    /// Average on-the-wire tuple size in bytes.
    pub avg_tuple_bytes: u64,
}

impl Default for TableStats {
    fn default() -> Self {
        TableStats {
            rows: 1000,
            avg_tuple_bytes: 100,
        }
    }
}

/// A registered relation.
#[derive(Clone, Debug)]
pub struct TableDef {
    pub schema: SchemaRef,
    /// Which column is the primary key (the default resourceID, §3.2.3).
    pub pkey_col: usize,
    pub stats: TableStats,
}

impl TableDef {
    /// Estimated wire bytes per column — the per-column resolution the
    /// byte-accurate cost model needs. Fixed-width types report their
    /// exact [`crate::tuple::ColType::wire_width`]; the residual of
    /// `avg_tuple_bytes` (minus the per-tuple header) is spread over
    /// the variable-width columns (`Str`, `Pad`), so a table whose
    /// stats say "1 KB tuples" attributes the bulk to its pad column.
    pub fn col_widths(&self) -> Vec<u32> {
        const MIN_VAR_WIDTH: u32 = 4;
        let fixed: u32 = self
            .schema
            .fields
            .iter()
            .filter_map(|f| f.ty.wire_width())
            .sum();
        let n_var = self
            .schema
            .fields
            .iter()
            .filter(|f| f.ty.wire_width().is_none())
            .count() as u32;
        let residual = (self.stats.avg_tuple_bytes as u32)
            .saturating_sub(crate::tuple::TUPLE_HEADER_BYTES as u32 + fixed)
            .checked_div(n_var)
            .unwrap_or(0)
            .max(MIN_VAR_WIDTH);
        self.schema
            .fields
            .iter()
            .map(|f| f.ty.wire_width().unwrap_or(residual))
            .collect()
    }

    /// Predicted wire bytes of a tuple pruned to `cols` (header
    /// included) — what a rehash of this table ships per row.
    pub fn ship_bytes(&self, cols: &[usize]) -> u64 {
        let widths = self.col_widths();
        crate::tuple::TUPLE_HEADER_BYTES as u64
            + cols.iter().map(|&c| widths[c] as u64).sum::<u64>()
    }
}

/// Name → table registry.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register(&mut self, schema: SchemaRef, pkey_col: usize, stats: TableStats) {
        assert!(pkey_col < schema.arity());
        self.tables.insert(
            schema.name.to_ascii_lowercase(),
            TableDef {
                schema,
                pkey_col,
                stats,
            },
        );
    }

    /// Register with default stats; convenient in tests and examples.
    pub fn register_simple(&mut self, name: &str, cols: &[(&str, ColType)], pkey_col: usize) {
        self.register(Schema::new(name, cols), pkey_col, TableStats::default());
    }

    pub fn get(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    pub fn set_stats(&mut self, name: &str, stats: TableStats) {
        if let Some(t) = self.tables.get_mut(&name.to_ascii_lowercase()) {
            t.stats = stats;
        }
    }

    /// The paper's §5.1 workload schemas:
    /// `R(pkey, num1, num2, num3, pad)` and `S(pkey, num2, num3)`.
    pub fn workload() -> Catalog {
        let mut c = Catalog::new();
        c.register_simple(
            "R",
            &[
                ("pkey", ColType::I64),
                ("num1", ColType::I64),
                ("num2", ColType::I64),
                ("num3", ColType::I64),
                ("pad", ColType::Pad),
            ],
            0,
        );
        c.register_simple(
            "S",
            &[
                ("pkey", ColType::I64),
                ("num2", ColType::I64),
                ("num3", ColType::I64),
            ],
            0,
        );
        c.register_simple(
            "T",
            &[
                ("pkey", ColType::I64),
                ("num2", ColType::I64),
                ("num3", ColType::I64),
            ],
            0,
        );
        c
    }

    /// Schemas for the §2.1 network-monitoring examples.
    pub fn intrusion() -> Catalog {
        let mut c = Catalog::new();
        c.register_simple(
            "intrusions",
            &[
                ("id", ColType::I64),
                ("fingerprint", ColType::Str),
                ("address", ColType::Str),
            ],
            0,
        );
        c.register_simple(
            "reputation",
            &[("address", ColType::Str), ("weight", ColType::I64)],
            0,
        );
        c.register_simple(
            "spamGateways",
            &[
                ("id", ColType::I64),
                ("source", ColType::Str),
                ("smtpGWDomain", ColType::Str),
            ],
            0,
        );
        c.register_simple(
            "robots",
            &[("id", ColType::I64), ("clientDomain", ColType::Str)],
            0,
        );
        c.register_simple(
            "advisories",
            &[("fingerprint", ColType::Str), ("severity", ColType::I64)],
            0,
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup_case_insensitive() {
        let c = Catalog::workload();
        assert!(c.get("r").is_some());
        assert!(c.get("R").is_some());
        assert!(c.get("T").is_some(), "workload catalog covers T");
        assert!(c.get("U").is_none());
        assert_eq!(c.get("R").unwrap().schema.arity(), 5);
        assert_eq!(c.get("s").unwrap().pkey_col, 0);
    }

    #[test]
    fn stats_update() {
        let mut c = Catalog::workload();
        c.set_stats(
            "R",
            TableStats {
                rows: 5,
                avg_tuple_bytes: 7,
            },
        );
        assert_eq!(c.get("R").unwrap().stats.rows, 5);
    }

    #[test]
    #[should_panic]
    fn pkey_must_be_in_schema() {
        let mut c = Catalog::new();
        c.register_simple("T", &[("a", ColType::I64)], 3);
    }

    #[test]
    fn per_column_widths_attribute_pad_residual() {
        let mut c = Catalog::workload();
        c.set_stats(
            "R",
            TableStats {
                rows: 1000,
                avg_tuple_bytes: 1024,
            },
        );
        let def = c.get("R").unwrap();
        let w = def.col_widths();
        assert_eq!(&w[..4], &[8, 8, 8, 8], "fixed i64 columns");
        assert_eq!(w[4], 1024 - 4 - 32, "pad soaks up the residual");
        assert_eq!(def.ship_bytes(&[0, 1]), 4 + 16);
        assert_eq!(def.ship_bytes(&[0, 4]), 4 + 8 + (1024 - 4 - 32) as u64);
    }

    #[test]
    fn intrusion_catalog_has_five_tables() {
        let c = Catalog::intrusion();
        assert_eq!(c.tables.len(), 5);
        assert!(c.get("spamgateways").is_some());
        assert!(c.get("advisories").is_some());
    }
}
