//! FP-Growth (FP) — parallel frequent-pattern mining in the style of
//! Mahout's PFP (the paper's "real world" association-rule-mining
//! workload, §1.3.1: "determine item sets in a group and identify which
//! items typically appear together").
//!
//! Two chained MapReduce jobs, as in Mahout:
//!
//! 1. **Counting** — a WordCount over transaction items.
//! 2. **Group-dependent mining** — frequent items are ranked and sharded
//!    into `G` groups; mappers emit, per transaction and group, the
//!    group-dependent prefix; each reducer builds a *real FP-tree* over its
//!    shard and mines it recursively. Group-disjoint patterns union to the
//!    global frequent-itemset collection.

#![expect(
    clippy::disallowed_types,
    reason = "workload-internal tables: the MapReduce engine key-sorts all emitted pairs before they reach any simulation output, so hash iteration order cannot leak"
)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use bytes::Bytes;
use hhsim_mapreduce::{
    run_job, text_splits_from_bytes, Emitter, JobConfig, JobResult, JobSpec, JobStats, Line,
    Mapper, Reducer, Text,
};

mod fptree;
pub use fptree::FpTree;

/// Emits `(item, 1)` per transaction item (job 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemCountMapper;

impl Mapper for ItemCountMapper {
    type KIn = u64;
    type VIn = Line;
    type KOut = Text;
    type VOut = u64;
    fn map(&mut self, _offset: &u64, line: &Line, out: &mut Emitter<Text, u64>) {
        for item in line.as_str().split_whitespace() {
            out.emit(Text::from(item), 1);
        }
    }
}

/// Sums item counts; the counting job's combiner and reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemSumReducer;

impl Reducer for ItemSumReducer {
    type KIn = Text;
    type VIn = u64;
    type KOut = Text;
    type VOut = u64;
    fn reduce(&mut self, key: &Text, values: &[u64], out: &mut Emitter<Text, u64>) {
        out.emit(key.clone(), values.iter().sum());
    }
}

/// The frequent-item list: item → rank (0 = most frequent), Mahout's
/// "F-list".
#[derive(Debug, Clone, Default)]
pub struct FList {
    /// Items ordered by descending support.
    pub items: Vec<String>,
    /// item → rank, shared by every map task of the mining job.
    pub rank: Arc<HashMap<String, u32>>,
}

impl FList {
    /// Builds the F-list from job-1 output, dropping infrequent items.
    pub fn new(counts: &[(Text, u64)], min_support: u64) -> Self {
        let mut freq: Vec<(String, u64)> = counts
            .iter()
            .filter(|(_, c)| *c >= min_support)
            .map(|(item, c)| (item.as_str().to_owned(), *c))
            .collect();
        // Descending count, ascending name for determinism.
        freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let items: Vec<String> = freq.into_iter().map(|(i, _)| i).collect();
        let rank = items
            .iter()
            .enumerate()
            .map(|(r, i)| (i.clone(), r as u32))
            .collect();
        FList {
            items,
            rank: Arc::new(rank),
        }
    }

    /// Group of a rank when sharding into `groups` groups.
    pub fn group_of(rank: u32, groups: u32) -> u32 {
        rank % groups
    }
}

/// Job-2 mapper: emits group-dependent transaction prefixes.
#[derive(Debug, Clone)]
pub struct GroupMapper {
    /// Shared frequent-item ranks.
    pub rank: Arc<HashMap<String, u32>>,
    /// Number of groups.
    pub groups: u32,
    /// Per-line scratch: the line's frequent ranks, ascending.
    ranks: Vec<u32>,
    /// Per-line scratch: which groups have had their prefix emitted.
    seen: Vec<bool>,
    /// Per-line scratch: the ranks in decimal, single-space separated.
    prefix: String,
    /// Per-line scratch: where each rank's digits end in `prefix`.
    ends: Vec<usize>,
}

impl GroupMapper {
    /// A mapper sharding `rank`'s items into `groups` groups.
    pub fn new(rank: Arc<HashMap<String, u32>>, groups: u32) -> Self {
        GroupMapper {
            rank,
            groups,
            ranks: Vec::new(),
            seen: Vec::new(),
            prefix: String::new(),
            ends: Vec::new(),
        }
    }
}

impl Mapper for GroupMapper {
    type KIn = u64;
    type VIn = Line;
    type KOut = u32;
    type VOut = Text;
    fn map(&mut self, _offset: &u64, line: &Line, out: &mut Emitter<u32, Text>) {
        // Keep frequent items only, sorted by ascending rank.
        self.ranks.clear();
        self.ranks.extend(
            line.as_str()
                .split_whitespace()
                .filter_map(|i| self.rank.get(i).copied()),
        );
        self.ranks.sort_unstable();
        self.ranks.dedup();
        // The longest prefix, written once; every shorter one is a head of it.
        self.prefix.clear();
        self.ends.clear();
        for r in &self.ranks {
            if !self.prefix.is_empty() {
                self.prefix.push(' ');
            }
            write!(self.prefix, "{r}").expect("writing to a String cannot fail");
            self.ends.push(self.prefix.len());
        }
        // Scan right-to-left; emit each group's longest dependent prefix
        // exactly once (Mahout PFP).
        self.seen.clear();
        self.seen.resize(self.groups as usize, false);
        for (&r, &end) in self.ranks.iter().zip(&self.ends).rev() {
            let g = FList::group_of(r, self.groups);
            if let Some(seen @ false) = self.seen.get_mut(g as usize) {
                *seen = true;
                out.emit(g, Text::from(&self.prefix[..end]));
            }
        }
    }
}

/// Job-2 reducer: builds an FP-tree over the shard and mines patterns whose
/// deepest item belongs to this group.
#[derive(Debug, Clone)]
pub struct MineReducer {
    /// Minimum pattern support.
    pub min_support: u64,
    /// Number of groups.
    pub groups: u32,
}

impl Reducer for MineReducer {
    type KIn = u32;
    type VIn = Text;
    type KOut = Text;
    type VOut = u64;
    fn reduce(&mut self, group: &u32, transactions: &[Text], out: &mut Emitter<Text, u64>) {
        // Every transaction's ranks, parsed into one flat buffer.
        let mut ranks: Vec<u32> = Vec::new();
        let mut ends = Vec::with_capacity(transactions.len());
        for t in transactions {
            ranks.extend(
                t.as_str()
                    .split_whitespace()
                    .map(|r| r.parse::<u32>().expect("ranks serialized by GroupMapper")),
            );
            ends.push(ranks.len());
        }
        let mut start = 0;
        let tree = FpTree::build_weighted(ends.iter().map(|&end| {
            let tx = &ranks[start..end];
            start = end;
            (tx, 1)
        }));
        let mut key = String::new();
        tree.mine_each(self.min_support, |itemset, support| {
            // Keep patterns owned by this group: deepest (max-rank) item.
            let deepest = *itemset.iter().max().expect("non-empty pattern");
            if FList::group_of(deepest, self.groups) == *group {
                key.clear();
                for (i, r) in itemset.iter().enumerate() {
                    if i > 0 {
                        key.push(' ');
                    }
                    write!(key, "{r}").expect("writing to a String cannot fail");
                }
                out.emit(Text::from(key.as_str()), support);
            }
        });
    }
}

/// A mined frequent itemset (decoded item names) and its support.
pub type Pattern = (Vec<String>, u64);

/// Result of the two-job FP-Growth pipeline.
#[derive(Debug, Clone)]
pub struct FpGrowthResult {
    /// All frequent itemsets with support ≥ `min_support`.
    pub patterns: Vec<Pattern>,
    /// Counting-job statistics.
    pub count_stats: JobStats,
    /// Mining-job statistics.
    pub mine_stats: JobStats,
}

/// The two jobs' outcome, the mined patterns still keyed by rank.
#[derive(Debug, Clone)]
pub struct FpJobs {
    /// The frequent-item list the mining job ranked items by.
    pub flist: FList,
    /// Counting-job statistics.
    pub count_stats: JobStats,
    /// The mining job: its patterns keyed by their items' ranks,
    /// space-separated, and its statistics.
    pub mine: JobResult<Text, u64>,
}

/// Runs the two jobs of parallel FP-Growth over transaction lines,
/// leaving the mined patterns keyed by rank; [`run`] decodes them.
///
/// # Panics
///
/// Panics if `min_support` is zero or `groups` is zero.
pub fn run_jobs(
    input: &Bytes,
    min_support: u64,
    groups: u32,
    block_bytes: u64,
    cfg: JobConfig,
) -> FpJobs {
    assert!(min_support > 0, "min_support must be positive");
    assert!(groups > 0, "need at least one group");
    // Job 1: item counting.
    let count_job = JobSpec::new(ItemCountMapper, ItemSumReducer)
        .config(cfg)
        .combiner(ItemSumReducer);
    let splits = text_splits_from_bytes(input, block_bytes);
    let count_res: JobResult<Text, u64> = run_job(&count_job, splits);
    let flist = FList::new(&count_res.output, min_support);

    // Job 2: group-dependent mining, reading the input again as Hadoop's
    // second job does (its records are windows into the same buffer).
    let mine_job = JobSpec::new(
        GroupMapper::new(Arc::clone(&flist.rank), groups),
        MineReducer {
            min_support,
            groups,
        },
    )
    .config(cfg);
    let mine = run_job(&mine_job, text_splits_from_bytes(input, block_bytes));
    FpJobs {
        flist,
        count_stats: count_res.stats,
        mine,
    }
}

/// Runs parallel FP-Growth over transaction lines: [`run_jobs`], then
/// each pattern decoded into its item names.
///
/// # Panics
///
/// Panics if `min_support` is zero or `groups` is zero.
pub fn run(
    input: &Bytes,
    min_support: u64,
    groups: u32,
    block_bytes: u64,
    cfg: JobConfig,
) -> FpGrowthResult {
    let jobs = run_jobs(input, min_support, groups, block_bytes, cfg);
    let items = &jobs.flist.items;
    let patterns = jobs
        .mine
        .output
        .iter()
        .map(|(ranks, support)| {
            let names: Vec<String> = ranks
                .as_str()
                .split_whitespace()
                .map(|r| items[r.parse::<usize>().expect("rank key")].clone())
                .collect();
            (names, *support)
        })
        .collect();
    FpGrowthResult {
        patterns,
        count_stats: jobs.count_stats,
        mine_stats: jobs.mine.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use std::collections::{BTreeMap, BTreeSet};

    /// Brute-force frequent itemsets up to `max_len` items.
    fn brute_force(
        lines: &[&str],
        min_support: u64,
        max_len: usize,
    ) -> BTreeMap<BTreeSet<String>, u64> {
        let txs: Vec<BTreeSet<String>> = lines
            .iter()
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        let items: BTreeSet<String> = txs.iter().flatten().cloned().collect();
        let items: Vec<String> = items.into_iter().collect();
        let mut out = BTreeMap::new();
        // Enumerate subsets via stack of (start, current).
        fn rec(
            items: &[String],
            start: usize,
            current: &mut Vec<String>,
            txs: &[BTreeSet<String>],
            min_support: u64,
            max_len: usize,
            out: &mut BTreeMap<BTreeSet<String>, u64>,
        ) {
            if !current.is_empty() {
                let support = txs
                    .iter()
                    .filter(|t| current.iter().all(|i| t.contains(i)))
                    .count() as u64;
                if support < min_support {
                    return; // supersets cannot be frequent either
                }
                out.insert(current.iter().cloned().collect(), support);
            }
            if current.len() == max_len {
                return;
            }
            for i in start..items.len() {
                current.push(items[i].clone());
                rec(items, i + 1, current, txs, min_support, max_len, out);
                current.pop();
            }
        }
        rec(
            &items,
            0,
            &mut Vec::new(),
            &txs,
            min_support,
            max_len,
            &mut out,
        );
        out
    }

    fn run_lines(lines: &[&str], min_support: u64, groups: u32) -> BTreeMap<BTreeSet<String>, u64> {
        let input = Bytes::from(lines.join("\n") + "\n");
        let res = run(
            &input,
            min_support,
            groups,
            1 << 20,
            JobConfig::default().num_reducers(groups as usize),
        );
        res.patterns
            .into_iter()
            .map(|(items, s)| (items.into_iter().collect(), s))
            .collect()
    }

    const BASKET: [&str; 6] = [
        "bread butter milk",
        "bread butter",
        "bread milk",
        "butter milk beer",
        "bread butter milk beer",
        "beer chips",
    ];

    #[test]
    fn matches_brute_force_on_small_input() {
        for min_support in [2u64, 3] {
            for groups in [1u32, 2, 3] {
                let got = run_lines(&BASKET, min_support, groups);
                let expect = brute_force(&BASKET, min_support, 5);
                assert_eq!(got, expect, "min_support={min_support} groups={groups}");
            }
        }
    }

    #[test]
    fn finds_planted_bundles_in_synthetic_data() {
        let input = datagen::transactions(64 << 10, 2);
        let res = run(
            &input,
            50,
            4,
            16 << 10,
            JobConfig::default().num_reducers(4),
        );
        let has_pair = res.patterns.iter().any(|(items, _)| {
            items.len() >= 2
                && items.contains(&"bread".to_string())
                && items.contains(&"butter".to_string())
        });
        assert!(has_pair, "the planted bread+butter bundle must be frequent");
    }

    #[test]
    fn supports_are_counts_of_containing_transactions() {
        let got = run_lines(&BASKET, 2, 2);
        let bread_butter: BTreeSet<String> =
            ["bread", "butter"].iter().map(|s| s.to_string()).collect();
        assert_eq!(got[&bread_butter], 3);
    }

    #[test]
    fn higher_min_support_prunes_patterns() {
        let lo = run_lines(&BASKET, 2, 2);
        let hi = run_lines(&BASKET, 4, 2);
        assert!(hi.len() < lo.len());
        for (k, v) in &hi {
            assert_eq!(lo.get(k), Some(v), "surviving patterns keep support");
        }
    }

    #[test]
    #[should_panic(expected = "min_support must be positive")]
    fn zero_support_rejected() {
        let _ = run(
            &Bytes::from_static(b"a b\n"),
            0,
            1,
            64,
            JobConfig::default(),
        );
    }
}
