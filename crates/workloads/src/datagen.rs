//! Deterministic input generators for the studied applications.
//!
//! All generators are seeded and size-targeted: they emit at least the
//! requested number of bytes and stop at the first line boundary after it,
//! so per-byte dataflow ratios are stable across scales.

use bytes::Bytes;
use rand::distr::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 24 most frequent words of the text generators' vocabulary, by
/// rank. Every rank past them is spelled `w` and five digits, for ~1.1k
/// distinct words with a Zipf-like rank distribution, mimicking
/// natural-language word frequency.
const COMMON: [&str; 24] = [
    "the", "of", "and", "to", "in", "a", "is", "that", "data", "for", "it", "as", "was", "with",
    "be", "by", "on", "not", "he", "this", "are", "or", "his", "from",
];

/// Appends the word of Zipf rank `rank`.
fn push_word(out: &mut String, rank: usize) {
    match COMMON.get(rank) {
        Some(word) => out.push_str(word),
        None => {
            out.push('w');
            let (digits, at) = decimal(rank, 5);
            push_ascii(out, &digits[at..]);
        }
    }
}

/// The decimal digits of `n`, zero-padded to at least `width` (at most
/// 20): the buffer, and the index its digits start at.
fn decimal(mut n: usize, width: usize) -> ([u8; 20], usize) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    (digits, at.min(digits.len() - width))
}

/// Appends ASCII bytes.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.extend(bytes.iter().map(|&b| char::from(b)));
}

/// Samples a word rank with probability ∝ 1/(rank+1) over `vocab` ranks.
fn zipf_rank(rng: &mut StdRng, vocab: usize) -> usize {
    // Inverse-CDF on the harmonic distribution via rejection-free lookup:
    // u ~ U(0,1); rank = floor(exp(u * ln(vocab)) - 1) approximates Zipf(1).
    let u: f64 = rng.random();
    let r = ((vocab as f64).ln() * u).exp() - 1.0;
    (r as usize).min(vocab - 1)
}

/// Zipf-distributed prose: lines of 6–12 words (WordCount/Grep input).
pub fn text(bytes: u64, seed: u64) -> Bytes {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(bytes as usize + 64);
    while (out.len() as u64) < bytes {
        let words = rng.random_range(6..=12);
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            push_word(&mut out, zipf_rank(&mut rng, 60_000));
        }
        out.push('\n');
    }
    Bytes::from(out)
}

/// Random key/payload table rows "KEY\tPAYLOAD" (Sort input).
pub fn table(bytes: u64, seed: u64) -> Bytes {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(bytes as usize + 64);
    while (out.len() as u64) < bytes {
        for _ in 0..12 {
            out.push(char::from(b'a' + rng.random_range(0..26u8)));
        }
        out.push('\t');
        for _ in 0..48 {
            out.push(char::from(b'A' + rng.random_range(0..26u8)));
        }
        out.push('\n');
    }
    Bytes::from(out)
}

/// TeraGen-style rows: 10-character key + 88-character filler = 100-byte
/// lines, like the official `teragen` (TeraSort input).
pub fn teragen(bytes: u64, seed: u64) -> Bytes {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(bytes as usize + 128);
    while (out.len() as u64) < bytes {
        for _ in 0..10 {
            out.push(char::from(b'!' + rng.random_range(0..94u8)));
        }
        out.push('\t');
        for _ in 0..88 {
            out.push(char::from(b'A' + rng.random_range(0..26u8)));
        }
        out.push('\n');
    }
    Bytes::from(out)
}

/// Labeled documents "LABEL\tword word ..." for Naive Bayes training.
/// Each class has a skewed vocabulary so the trained model is actually
/// predictive (tests classify held-out docs).
pub fn labeled_docs(bytes: u64, classes: usize, seed: u64) -> Bytes {
    assert!(classes > 0, "need at least one class");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(bytes as usize + 64);
    while (out.len() as u64) < bytes {
        let class = rng.random_range(0..classes);
        out.push_str("class");
        let (digits, at) = decimal(class, 1);
        push_ascii(&mut out, &digits[at..]);
        out.push('\t');
        let words = rng.random_range(8..=16);
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            // 70% of words come from the class's own vocabulary slice.
            let rank = if rng.random::<f64>() < 0.7 {
                8_000 * class + zipf_rank(&mut rng, 8_000)
            } else {
                zipf_rank(&mut rng, 8_000 * classes)
            };
            push_word(&mut out, rank);
        }
        out.push('\n');
    }
    Bytes::from(out)
}

/// One transaction item, spelled on the stack: a line's items sort and
/// dedup as the strings they print as, without a `String` each.
#[derive(Debug, Clone, Copy)]
struct Item {
    len: usize,
    /// `item` and up to 20 digits, or a bundle member's name.
    bytes: [u8; 24],
}

impl Item {
    /// The item spelled by `parts` in order.
    fn spell(parts: &[&[u8]]) -> Item {
        let mut item = Item {
            len: 0,
            bytes: [0; 24],
        };
        for part in parts {
            item.bytes[item.len..item.len + part.len()].copy_from_slice(part);
            item.len += part.len();
        }
        item
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Market-basket transactions "item item item ..." with embedded correlated
/// item groups so FP-Growth finds real frequent patterns.
pub fn transactions(bytes: u64, seed: u64) -> Bytes {
    let mut rng = StdRng::seed_from_u64(seed);
    // Five "bundles" that co-occur frequently.
    const BUNDLES: [[&str; 3]; 5] = [
        ["bread", "butter", "milk"],
        ["beer", "chips", "salsa"],
        ["pen", "paper", "ink"],
        ["cpu", "ram", "disk"],
        ["tea", "sugar", "lemon"],
    ];
    let mut out = String::with_capacity(bytes as usize + 64);
    let mut items: Vec<Item> = Vec::new();
    while (out.len() as u64) < bytes {
        items.clear();
        if rng.random::<f64>() < 0.6 {
            let b = &BUNDLES[rng.random_range(0..BUNDLES.len())];
            for it in b.iter() {
                if rng.random::<f64>() < 0.9 {
                    items.push(Item::spell(&[it.as_bytes()]));
                }
            }
        }
        let extras = rng.random_range(1..=5);
        for _ in 0..extras {
            let (digits, at) = decimal(zipf_rank(&mut rng, 2_000), 1);
            items.push(Item::spell(&[b"item", &digits[at..]]));
        }
        // Equal items are equal bytes, so an unstable sort is the sort.
        items.sort_unstable_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
        items.dedup_by(|a, b| a.as_bytes() == b.as_bytes());
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            push_ascii(&mut out, item.as_bytes());
        }
        out.push('\n');
    }
    Bytes::from(out)
}

/// Uniform sampler over `0..n` usable with [`rand::distr::Distribution`]
/// plumbing in tests.
#[derive(Debug, Clone, Copy)]
pub struct UniformIndex(pub usize);

impl Distribution<usize> for UniformIndex {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.random_range(0..self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_hit_size_targets() {
        for (name, data) in [
            ("text", text(10_000, 1)),
            ("table", table(10_000, 1)),
            ("teragen", teragen(10_000, 1)),
            ("labeled", labeled_docs(10_000, 3, 1)),
            ("tx", transactions(10_000, 1)),
        ] {
            assert!(data.len() >= 10_000, "{name} too small: {}", data.len());
            assert!(data.len() < 10_800, "{name} overshoots: {}", data.len());
            assert_eq!(data.last(), Some(&b'\n'), "{name} ends on line boundary");
        }
    }

    #[test]
    fn decimal_spells_what_format_does() {
        let ns = [0, 7, 42, 1_999, 12_345, 59_999, 100_000, usize::MAX];
        for n in ns {
            for width in [1, 5, 20] {
                let mut spelled = String::new();
                let (digits, at) = decimal(n, width);
                push_ascii(&mut spelled, &digits[at..]);
                assert_eq!(spelled, format!("{n:0width$}"));
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(text(5000, 7), text(5000, 7));
        assert_ne!(text(5000, 7), text(5000, 8));
        assert_eq!(transactions(5000, 3), transactions(5000, 3));
    }

    #[test]
    // Test-only frequency histogram; only point-queried, never iterated
    // for ordering.
    #[allow(clippy::disallowed_types)]
    fn text_is_zipfian() {
        let data = text(200_000, 42);
        let s = String::from_utf8(data.to_vec()).unwrap();
        let mut counts = std::collections::HashMap::new();
        for w in s.split_whitespace() {
            *counts.entry(w).or_insert(0u64) += 1;
        }
        let the = counts.get("the").copied().unwrap_or(0);
        let rare: u64 = counts
            .iter()
            .filter(|(w, _)| w.starts_with('w'))
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(0);
        assert!(
            the > 5 * rare,
            "head word must dominate tail ({the} vs {rare})"
        );
    }

    #[test]
    fn teragen_rows_are_fixed_width() {
        let data = teragen(5_000, 9);
        for line in std::str::from_utf8(&data).unwrap().lines() {
            assert_eq!(line.len(), 99, "10 key + tab + 88 filler");
        }
    }

    #[test]
    fn labeled_docs_have_valid_labels() {
        let data = labeled_docs(5_000, 4, 11);
        for line in std::str::from_utf8(&data).unwrap().lines() {
            let label = line.split('\t').next().unwrap();
            assert!(label.starts_with("class"));
            let c: usize = label[5..].parse().unwrap();
            assert!(c < 4);
        }
    }

    #[test]
    fn transactions_contain_bundles() {
        let data = transactions(50_000, 5);
        let s = std::str::from_utf8(&data).unwrap();
        let with_bundle = s
            .lines()
            .filter(|l| l.contains("bread") && l.contains("butter"))
            .count();
        assert!(with_bundle > 10, "correlated bundles must appear often");
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn labeled_docs_rejects_zero_classes() {
        let _ = labeled_docs(100, 0, 1);
    }
}
