//! Lazily-built hash secondary indexes over base tables.
//!
//! The compiled engine ([`crate::physical`]) turns a `col = constant`
//! predicate on a base-table scan into an index probe when the cost model
//! says the table is big enough to repay the build. Indexes are built on
//! first use and cached per `(table, column)` inside the owning
//! [`crate::Database`], so repeated executions over the same witness
//! database (the fuzzer runs every query against five of them, and every
//! transform pair re-runs the originals) amortize one build across many
//! probes.
//!
//! **Equivalence with filtering.** A probe must return exactly the rows a
//! full scan plus `sql_eq`-filter would keep, in the same order. Postings
//! are stored in ascending row order, which is scan order. `NULL` cells
//! are never indexed and `NULL` probe keys never match (SQL `=` is
//! UNKNOWN on NULL). For same-class non-null values, [`Value`]'s `Eq`
//! agrees with `sql_eq`; for cross-class pairs `Eq` is `false` and
//! `sql_eq` is `None` — both reject. (`NaN` never equals itself under
//! either relation, and `-0.0` hashes like `0.0`.)

use crate::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Value → ascending row indexes for one `(table, column)`.
pub(crate) type Postings = Arc<HashMap<Value, Vec<usize>>>;

/// Per-database cache of equality indexes, keyed by lower-cased table
/// name and column offset.
///
/// The cache is interior-mutable so index builds work through `&Database`
/// (execution never takes `&mut`). Cloning a database intentionally
/// yields an *empty* cache: clones are cheap-by-design snapshots, and the
/// fuzzer's determinism requirements forbid any observable difference
/// between warm and cold caches anyway.
#[derive(Default)]
pub(crate) struct IndexCache {
    map: Mutex<HashMap<(String, usize), Postings>>,
}

impl Clone for IndexCache {
    fn clone(&self) -> IndexCache {
        IndexCache::default()
    }
}

impl std::fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("IndexCache")
    }
}

impl IndexCache {
    /// Drop every cached index (tables changed).
    pub fn invalidate(&self) {
        lock_ok(&self.map).clear();
    }

    /// Fetch the equality index for `(table, col)`, building it from
    /// `rows` on first use. `NULL` cells are skipped; postings are in
    /// ascending row order.
    pub fn equality_index(&self, table: &str, col: usize, rows: &[Vec<Value>]) -> Postings {
        let key = (table.to_ascii_lowercase(), col);
        if let Some(idx) = lock_ok(&self.map).get(&key) {
            return Arc::clone(idx);
        }
        let mut built: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            match row.get(col) {
                Some(Value::Null) | None => {}
                Some(v) => built.entry(v.clone()).or_default().push(i),
            }
        }
        let built = Arc::new(built);
        lock_ok(&self.map)
            .entry(key)
            .or_insert_with(|| Arc::clone(&built));
        built
    }
}

/// Lock, recovering from poisoning (the guarded map is always in a
/// consistent state between operations).
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::num(1.0), Value::str("a")],
            vec![Value::Null, Value::str("b")],
            vec![Value::num(1.0), Value::str("c")],
            vec![Value::num(2.0), Value::str("d")],
        ]
    }

    #[test]
    fn postings_are_in_scan_order_and_skip_nulls() {
        let cache = IndexCache::default();
        let idx = cache.equality_index("t", 0, &rows());
        assert_eq!(idx.get(&Value::num(1.0)), Some(&vec![0, 2]));
        assert_eq!(idx.get(&Value::num(2.0)), Some(&vec![3]));
        assert_eq!(idx.get(&Value::Null), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn cache_is_reused_and_cleared_on_invalidate() {
        let cache = IndexCache::default();
        let a = cache.equality_index("T", 0, &rows());
        let b = cache.equality_index("t", 0, &[]); // cached: rows ignored
        assert!(Arc::ptr_eq(&a, &b));
        cache.invalidate();
        let c = cache.equality_index("t", 0, &[]);
        assert!(c.is_empty());
    }

    #[test]
    fn clones_start_cold() {
        let cache = IndexCache::default();
        cache.equality_index("t", 0, &rows());
        let cold = cache.clone();
        assert!(lock_ok(&cold.map).is_empty());
    }
}
