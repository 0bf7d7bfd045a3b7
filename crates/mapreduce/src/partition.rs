//! Partitioners: how intermediate keys choose their reducer.

use std::sync::Arc;

use crate::kv::Datum;

/// A partition function over keys: `(key, num_reducers) → reducer index`.
///
/// Shared (`Arc`) so a job specification can be cloned per task cheaply.
pub type Partitioner<K> = Arc<dyn Fn(&K, usize) -> usize + Send + Sync>;

/// The default Hadoop-style hash partitioner built on [`Datum::stable_hash`].
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::hash_partition;
///
/// let p = hash_partition::<String>();
/// let idx = p(&"key".to_string(), 4);
/// assert!(idx < 4);
/// assert_eq!(idx, p(&"key".to_string(), 4), "deterministic");
/// ```
#[expect(
    clippy::cast_possible_truncation,
    reason = "a remainder modulo `n: usize` is below `n`"
)]
pub fn hash_partition<K: Datum>() -> Partitioner<K> {
    Arc::new(|k: &K, n: usize| {
        debug_assert!(n > 0);
        (k.stable_hash() % n as u64) as usize
    })
}

/// A total-order range partitioner over sorted cut points, as used by
/// TeraSort: keys `< cuts[0]` go to reducer 0, keys in `[cuts[i-1],
/// cuts[i])` to reducer `i`, and keys `>= cuts.last()` to the last reducer.
/// With `num_reducers = cuts.len() + 1` the output is globally sorted.
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::range_partition;
///
/// let p = range_partition(vec![10u64, 20u64]);
/// assert_eq!(p(&5, 3), 0);
/// assert_eq!(p(&10, 3), 1);
/// assert_eq!(p(&25, 3), 2);
/// ```
pub fn range_partition<K: Datum>(cuts: Vec<K>) -> Partitioner<K> {
    Arc::new(move |k: &K, n: usize| {
        let idx = cuts.partition_point(|c| c <= k);
        idx.min(n - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "test-only coverage check; set contents are only counted"
    )]
    fn hash_partition_covers_all_buckets() {
        let p = hash_partition::<u64>();
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..200 {
            let idx = p(&k, 8);
            assert!(idx < 8);
            seen.insert(idx);
        }
        assert_eq!(seen.len(), 8, "200 keys should hit all 8 buckets");
    }

    #[test]
    fn range_partition_is_ordered() {
        let p = range_partition(vec!["h".to_string(), "p".to_string()]);
        assert_eq!(p(&"apple".to_string(), 3), 0);
        assert_eq!(p(&"mango".to_string(), 3), 1);
        assert_eq!(p(&"zebra".to_string(), 3), 2);
        // Boundary key goes right (cut <= key).
        assert_eq!(p(&"h".to_string(), 3), 1);
    }

    #[test]
    fn range_partition_clamps_to_num_reducers() {
        let p = range_partition(vec![1u64, 2, 3, 4, 5]);
        // Only 2 reducers despite 5 cuts: everything clamps below 2.
        assert_eq!(p(&100, 2), 1);
        assert_eq!(p(&0, 2), 0);
    }
}
