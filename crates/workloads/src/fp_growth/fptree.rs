//! A real FP-tree: prefix-tree with header links, mined recursively via
//! conditional pattern bases (Han et al.'s algorithm).
//!
//! The tree lives in one arena: nodes, their child and sibling links, and
//! the header chains threading every node of an item are `u32` indices into
//! one `Vec`, and the header table is a `Vec` indexed by rank. Mining builds
//! each conditional tree at the end of a copy of that arena and truncates
//! it away once mined, so a whole mining run reuses two vectors instead of
//! allocating a map per node and a tree per conditional pattern base.

/// The index standing for "no node".
const NIL: u32 = u32::MAX;

/// One FP-tree node.
#[derive(Debug, Clone, Copy)]
struct Node {
    item: u32,
    count: u64,
    /// The parent; `NIL` at a root.
    parent: u32,
    /// The most recently added child.
    first_child: u32,
    /// The parent's next-older child.
    next_sibling: u32,
    /// The next-older node holding the same item (the header chain).
    next_same: u32,
}

impl Node {
    fn root() -> Node {
        Node {
            item: NIL,
            count: 0,
            parent: NIL,
            first_child: NIL,
            next_sibling: NIL,
            next_same: NIL,
        }
    }
}

/// A frequent-pattern tree over rank-encoded transactions.
///
/// Items are `u32` ranks (0 = globally most frequent); transactions must be
/// sorted ascending by rank, which is how [`crate::fp_growth::GroupMapper`]
/// serializes them. The header table is indexed by rank, so it is as long
/// as the largest rank in the tree.
///
/// # Examples
///
/// ```
/// use hhsim_workloads::fp_growth::FpTree;
///
/// let txs = vec![vec![0, 1], vec![0, 1, 2], vec![0, 2]];
/// let tree = FpTree::build(&txs);
/// let mut patterns = Vec::new();
/// tree.mine(2, &mut patterns);
/// // {0} appears 3 times; {0,1} and {0,2} twice each.
/// assert!(patterns.contains(&(vec![0], 3)));
/// assert!(patterns.contains(&(vec![0, 1], 2)));
/// ```
#[derive(Debug, Clone)]
pub struct FpTree {
    /// The root at index 0, then every node in insertion order.
    nodes: Vec<Node>,
    /// item → the newest node holding it, `NIL` if none (header table).
    heads: Vec<u32>,
}

impl FpTree {
    /// Builds the tree from rank-sorted transactions, each with count 1.
    pub fn build(transactions: &[Vec<u32>]) -> Self {
        Self::build_weighted(transactions.iter().map(|t| (t.as_slice(), 1)))
    }

    /// Builds from `(transaction, count)` pairs (used for conditional
    /// trees, where paths carry accumulated counts).
    pub fn build_weighted<'a, I>(transactions: I) -> Self
    where
        I: IntoIterator<Item = (&'a [u32], u64)>,
    {
        let mut tree = FpTree {
            nodes: vec![Node::root()],
            heads: Vec::new(),
        };
        for (tx, count) in transactions {
            if let Some(&top) = tx.iter().max() {
                if tree.heads.len() <= top as usize {
                    tree.heads.resize(top as usize + 1, NIL);
                }
            }
            insert(&mut tree.nodes, &mut tree.heads, 0, 0, tx, count);
        }
        tree
    }

    /// Number of nodes excluding the root.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True when the tree holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total support of `item` in this tree.
    pub fn item_support(&self, item: u32) -> u64 {
        let head = self.heads.get(item as usize).copied().unwrap_or(NIL);
        chain_support(&self.nodes, head)
    }

    /// Mines all itemsets with support ≥ `min_support` into `out` as
    /// `(ascending rank vec, support)` pairs.
    pub fn mine(&self, min_support: u64, out: &mut Vec<(Vec<u32>, u64)>) {
        self.mine_each(min_support, |pattern, support| {
            out.push((pattern.to_vec(), support));
        });
    }

    /// Calls `visit` with every itemset of support ≥ `min_support` (ranks
    /// ascending) and its support, in the order [`FpTree::mine`] lists
    /// them, without allocating per pattern.
    pub fn mine_each(&self, min_support: u64, mut visit: impl FnMut(&[u32], u64)) {
        let mut miner = Miner {
            nodes: self.nodes.clone(),
            heads: self.heads.clone(),
            min_support,
            suffix: Vec::new(),
            pattern: Vec::new(),
            path: Vec::new(),
        };
        miner.mine(0, 0, self.heads.len(), &mut visit);
    }
}

/// Adds `tx` with weight `count` below `root`, whose tree's header table
/// is `heads[heads_at..]` and holds every item of `tx`.
fn insert(
    nodes: &mut Vec<Node>,
    heads: &mut [u32],
    root: u32,
    heads_at: usize,
    tx: &[u32],
    count: u64,
) {
    let mut cur = root;
    for &item in tx {
        let mut child = nodes[cur as usize].first_child;
        while child != NIL && nodes[child as usize].item != item {
            child = nodes[child as usize].next_sibling;
        }
        if child == NIL {
            child = u32::try_from(nodes.len()).expect("FP-tree of at most u32::MAX nodes");
            let head = &mut heads[heads_at + item as usize];
            nodes.push(Node {
                item,
                count: 0,
                parent: cur,
                first_child: NIL,
                next_sibling: nodes[cur as usize].first_child,
                next_same: *head,
            });
            *head = child;
            nodes[cur as usize].first_child = child;
        }
        nodes[child as usize].count += count;
        cur = child;
    }
}

/// Summed count of the header chain starting at `head`.
fn chain_support(nodes: &[Node], mut head: u32) -> u64 {
    let mut support = 0;
    while head != NIL {
        support += nodes[head as usize].count;
        head = nodes[head as usize].next_same;
    }
    support
}

/// Mining state: the arena every conditional tree is built in, and the
/// scratch buffers of the recursion.
struct Miner {
    nodes: Vec<Node>,
    heads: Vec<u32>,
    min_support: u64,
    /// Items of the conditional trees entered, innermost first.
    suffix: Vec<u32>,
    /// The pattern handed to the visitor.
    pattern: Vec<u32>,
    /// One prefix path, gathered leaf to root and then reversed.
    path: Vec<u32>,
}

impl Miner {
    /// Mines the tree rooted at `root`, whose header table is
    /// `heads[heads_at..heads_at + items]`.
    fn mine(
        &mut self,
        root: u32,
        heads_at: usize,
        items: usize,
        visit: &mut impl FnMut(&[u32], u64),
    ) {
        // Deterministic order: mine items deepest-rank first.
        for item in (0..items).rev() {
            let head = self.heads[heads_at + item];
            if head == NIL {
                continue;
            }
            let support = chain_support(&self.nodes, head);
            if support < self.min_support {
                continue;
            }
            let item = item as u32;
            self.pattern.clear();
            self.pattern.push(item);
            self.pattern.extend_from_slice(&self.suffix);
            self.pattern.sort_unstable();
            visit(&self.pattern, support);

            // Conditional pattern base: the prefix path of every `item`
            // node, built into a tree at the end of the arena.
            let (nodes_at, cond_heads_at) = (self.nodes.len(), self.heads.len());
            let mut cond_items = 0;
            let mut n = head;
            while n != NIL {
                let mut p = self.nodes[n as usize].parent;
                while p != root {
                    cond_items = cond_items.max(self.nodes[p as usize].item as usize + 1);
                    p = self.nodes[p as usize].parent;
                }
                n = self.nodes[n as usize].next_same;
            }
            if cond_items == 0 {
                continue;
            }
            let cond_root = u32::try_from(nodes_at).expect("FP-tree of at most u32::MAX nodes");
            self.nodes.push(Node::root());
            self.heads.resize(cond_heads_at + cond_items, NIL);
            let mut n = head;
            while n != NIL {
                let node = self.nodes[n as usize];
                self.path.clear();
                let mut p = node.parent;
                while p != root {
                    self.path.push(self.nodes[p as usize].item);
                    p = self.nodes[p as usize].parent;
                }
                self.path.reverse();
                insert(
                    &mut self.nodes,
                    &mut self.heads,
                    cond_root,
                    cond_heads_at,
                    &self.path,
                    node.count,
                );
                n = node.next_same;
            }
            self.suffix.insert(0, item);
            self.mine(cond_root, cond_heads_at, cond_items, visit);
            self.suffix.remove(0);
            self.nodes.truncate(nodes_at);
            self.heads.truncate(cond_heads_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The tree with a `BTreeMap` of children per node, a header `BTreeMap`
    /// and a fresh tree per conditional pattern base, kept as the oracle
    /// the arena tree is held to.
    mod reference {
        use std::collections::BTreeMap;

        /// One FP-tree node.
        struct Node {
            item: u32,
            count: u64,
            parent: usize,
            children: BTreeMap<u32, usize>,
        }

        /// The `BTreeMap` FP-tree the arena tree replaced.
        pub(super) struct ReferenceTree {
            nodes: Vec<Node>,
            /// item → node indices holding that item (header table).
            header: BTreeMap<u32, Vec<usize>>,
        }

        impl ReferenceTree {
            /// Builds the tree from rank-sorted transactions, each with count 1.
            pub(super) fn build(transactions: &[Vec<u32>]) -> Self {
                Self::build_weighted(transactions.iter().map(|t| (t.as_slice(), 1)))
            }

            /// Builds from `(transaction, count)` pairs (used for conditional
            /// trees, where paths carry accumulated counts).
            pub(super) fn build_weighted<'a, I>(transactions: I) -> Self
            where
                I: IntoIterator<Item = (&'a [u32], u64)>,
            {
                let mut tree = ReferenceTree {
                    nodes: vec![Node {
                        item: u32::MAX,
                        count: 0,
                        parent: usize::MAX,
                        children: BTreeMap::new(),
                    }],
                    header: BTreeMap::new(),
                };
                for (tx, count) in transactions {
                    tree.insert(tx, count);
                }
                tree
            }

            fn insert(&mut self, tx: &[u32], count: u64) {
                let mut cur = 0usize;
                for &item in tx {
                    let next = match self.nodes[cur].children.get(&item) {
                        Some(&n) => {
                            self.nodes[n].count += count;
                            n
                        }
                        None => {
                            let n = self.nodes.len();
                            self.nodes.push(Node {
                                item,
                                count,
                                parent: cur,
                                children: BTreeMap::new(),
                            });
                            self.nodes[cur].children.insert(item, n);
                            self.header.entry(item).or_default().push(n);
                            n
                        }
                    };
                    cur = next;
                }
            }

            /// Number of nodes excluding the root.
            pub(super) fn len(&self) -> usize {
                self.nodes.len() - 1
            }

            /// Total support of `item` in this tree.
            pub(super) fn item_support(&self, item: u32) -> u64 {
                self.header
                    .get(&item)
                    .map(|ns| ns.iter().map(|&n| self.nodes[n].count).sum())
                    .unwrap_or(0)
            }

            /// Mines all itemsets with support ≥ `min_support` into `out` as
            /// `(ascending rank vec, support)` pairs.
            pub(super) fn mine(&self, min_support: u64, out: &mut Vec<(Vec<u32>, u64)>) {
                self.mine_suffix(min_support, &mut Vec::new(), out);
            }

            fn mine_suffix(
                &self,
                min_support: u64,
                suffix: &mut Vec<u32>,
                out: &mut Vec<(Vec<u32>, u64)>,
            ) {
                // Deterministic order: mine items deepest-rank first.
                let mut items: Vec<u32> = self.header.keys().copied().collect();
                items.sort_unstable_by(|a, b| b.cmp(a));
                for item in items {
                    let support = self.item_support(item);
                    if support < min_support {
                        continue;
                    }
                    let mut pattern = vec![item];
                    pattern.extend_from_slice(suffix);
                    pattern.sort_unstable();
                    out.push((pattern, support));

                    // Conditional pattern base: prefix paths of every `item` node.
                    let mut paths: Vec<(Vec<u32>, u64)> = Vec::new();
                    for &n in &self.header[&item] {
                        let count = self.nodes[n].count;
                        let mut path = Vec::new();
                        let mut p = self.nodes[n].parent;
                        while p != usize::MAX && p != 0 {
                            path.push(self.nodes[p].item);
                            p = self.nodes[p].parent;
                        }
                        if !path.is_empty() {
                            path.reverse();
                            paths.push((path, count));
                        }
                    }
                    if paths.is_empty() {
                        continue;
                    }
                    let cond = ReferenceTree::build_weighted(
                        paths.iter().map(|(p, c)| (p.as_slice(), *c)),
                    );
                    suffix.insert(0, item);
                    cond.mine_suffix(min_support, suffix, out);
                    suffix.remove(0);
                }
            }
        }
    }

    fn mine_map(txs: &[Vec<u32>], min_support: u64) -> BTreeMap<Vec<u32>, u64> {
        let tree = FpTree::build(txs);
        let mut out = Vec::new();
        tree.mine(min_support, &mut out);
        out.into_iter().collect()
    }

    #[test]
    fn empty_tree() {
        let tree = FpTree::build(&[]);
        assert!(tree.is_empty());
        let mut out = Vec::new();
        tree.mine(1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let tree = FpTree::build(&[vec![0, 1, 2], vec![0, 1, 3], vec![0, 4]]);
        // Nodes: 0,1,2,3,4 -> 5 nodes (prefix 0 and 0-1 shared).
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.item_support(0), 3);
        assert_eq!(tree.item_support(1), 2);
    }

    #[test]
    fn textbook_example() {
        // Han's classic example (rank-encoded).
        let txs = vec![
            vec![0, 1, 3],
            vec![0, 2],
            vec![0, 1, 4],
            vec![0, 1, 2],
            vec![1, 2],
        ];
        let got = mine_map(&txs, 2);
        assert_eq!(got[&vec![0]], 4);
        assert_eq!(got[&vec![1]], 4);
        assert_eq!(got[&vec![0, 1]], 3);
        assert_eq!(got[&vec![1, 2]], 2);
        assert_eq!(got[&vec![0, 2]], 2);
        assert!(!got.contains_key(&vec![3]), "support 1 pruned");
    }

    #[test]
    fn pattern_supports_are_antimonotone() {
        let txs: Vec<Vec<u32>> = (0..40u32).map(|i| (0..=(i % 5)).collect()).collect();
        let got = mine_map(&txs, 3);
        for (pattern, support) in &got {
            for sub_idx in 0..pattern.len() {
                let mut sub = pattern.clone();
                sub.remove(sub_idx);
                if sub.is_empty() {
                    continue;
                }
                assert!(
                    got[&sub] >= *support,
                    "subset {sub:?} must be at least as frequent as {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_build_accumulates_counts() {
        let paths: Vec<(Vec<u32>, u64)> = vec![(vec![0, 1], 5), (vec![0], 2)];
        let tree = FpTree::build_weighted(paths.iter().map(|(p, c)| (p.as_slice(), *c)));
        assert_eq!(tree.item_support(0), 7);
        assert_eq!(tree.item_support(1), 5);
    }

    /// Random weighted transactions over ranks `0..items`: ascending as
    /// `GroupMapper` writes them, but some with repeated ranks, some
    /// reversed, some repeated verbatim, and some of weight zero.
    fn random_transactions(rng: &mut StdRng, items: u32) -> Vec<(Vec<u32>, u64)> {
        let count = rng.random_range(0..40);
        let mut txs: Vec<(Vec<u32>, u64)> = (0..count)
            .map(|_| {
                let len = rng.random_range(0..=8);
                let mut tx: Vec<u32> = (0..len).map(|_| rng.random_range(0..items)).collect();
                tx.sort_unstable();
                let shape = rng.random::<f64>();
                if shape < 0.8 {
                    tx.dedup();
                } else if shape < 0.9 {
                    tx.reverse();
                }
                (tx, rng.random_range(0..=3))
            })
            .collect();
        let repeats: Vec<_> = txs.iter().take(count / 4).cloned().collect();
        txs.extend(repeats);
        txs
    }

    /// The arena tree is the reference tree: same node count and supports,
    /// and the same `(pattern, support)` list in the same order, empty
    /// trees included.
    #[test]
    fn arena_tree_mines_what_the_reference_tree_mines() {
        let mut rng = StdRng::seed_from_u64(0xf9_7ee);
        let mut mined = 0;
        for case in 0..400 {
            let items = rng.random_range(1..=12);
            let txs = random_transactions(&mut rng, items);
            let weighted = || txs.iter().map(|(t, c)| (t.as_slice(), *c));
            let arena = FpTree::build_weighted(weighted());
            let oracle = reference::ReferenceTree::build_weighted(weighted());
            assert_eq!(arena.len(), oracle.len(), "case {case}");
            for item in 0..=items {
                assert_eq!(arena.item_support(item), oracle.item_support(item));
            }
            for min_support in [0, 1, 2, 3, 5] {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                arena.mine(min_support, &mut got);
                oracle.mine(min_support, &mut want);
                assert_eq!(got, want, "case {case}, min_support {min_support}");
                mined += got.len();
            }
        }
        assert!(mined > 10_000, "only {mined} patterns compared");
        let (mut got, mut want) = (Vec::new(), Vec::new());
        FpTree::build(&[vec![], vec![]]).mine(0, &mut got);
        reference::ReferenceTree::build(&[vec![], vec![]]).mine(0, &mut want);
        assert_eq!((got, want), (vec![], vec![]));
    }
}
