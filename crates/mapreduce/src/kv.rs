//! Key/value datum trait: what the engine needs from record types.

use bytes::Bytes;

/// A type usable as a MapReduce key or value.
///
/// Beyond ordering (for the sort phase) and cloning (for spills), the engine
/// needs a **byte size** — spill and shuffle accounting is in bytes, exactly
/// like Hadoop's counters — and a **stable hash** for deterministic default
/// partitioning across runs and platforms.
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::Datum;
///
/// assert_eq!("hello".to_string().size_bytes(), 5);
/// assert_eq!(42u64.size_bytes(), 8);
/// assert_eq!(("k".to_string(), 1u64).size_bytes(), 9);
/// // Stable across calls:
/// assert_eq!(7u64.stable_hash(), 7u64.stable_hash());
/// ```
pub trait Datum: Clone + Ord + std::fmt::Debug + Send + Sync + 'static {
    /// Serialized size in bytes, as charged to buffers, spills and shuffle.
    fn size_bytes(&self) -> usize;

    /// Deterministic, platform-independent hash (used by the default
    /// partitioner).
    fn stable_hash(&self) -> u64;
}

/// FNV-1a over a byte slice — deterministic everywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — good avalanche for integer keys.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Datum for String {
    fn size_bytes(&self) -> usize {
        self.len()
    }
    fn stable_hash(&self) -> u64 {
        fnv1a(self.as_bytes())
    }
}

/// Bytes a [`Text`] keeps inline: what fits beside its length byte and the
/// enum tag in the 24 bytes a `String` takes.
const INLINE: usize = 22;

/// UTF-8 text that keeps up to 22 bytes inline and longer text on the heap:
/// a key type whose short keys cost no allocation to emit, clone or drop.
///
/// It is a drop-in for `String` as far as the engine can tell: [`Ord`] is
/// byte-lexicographic, [`Datum::stable_hash`] is the same FNV-1a over the
/// bytes and [`Datum::size_bytes`] is the length, so sort order, partition
/// index and every byte counter equal those of the `String` it replaces.
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::{Datum, Text};
///
/// let short = Text::from("word");
/// let long = Text::from("a key longer than twenty-two bytes");
/// assert_eq!(short.as_str(), "word");
/// assert_eq!(short.size_bytes(), 4);
/// assert_eq!(short.stable_hash(), "word".to_string().stable_hash());
/// assert!(long < short, "byte order, whatever the representation");
/// ```
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text; `len <= INLINE`.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// Text longer than `INLINE` bytes.
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Text>() == std::mem::size_of::<String>());

impl Text {
    /// The text's bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Inline bytes are always a whole `&str` copied in, so they are
            // valid UTF-8 and the fallback is never taken.
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Repr::Heap(s) => s,
        }
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        let mut bytes = [0u8; INLINE];
        match (u8::try_from(s.len()), bytes.get_mut(..s.len())) {
            (Ok(len), Some(head)) => {
                head.copy_from_slice(s.as_bytes());
                Text(Repr::Inline { len, bytes })
            }
            _ => Text(Repr::Heap(Box::from(s))),
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::fmt::Debug for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Datum for Text {
    fn size_bytes(&self) -> usize {
        self.as_bytes().len()
    }
    fn stable_hash(&self) -> u64 {
        fnv1a(self.as_bytes())
    }
}

/// UTF-8 text that is a window into a shared input buffer: the record type
/// of [`crate::text_splits_from_bytes`], whose clones bump a reference
/// count and copy no bytes.
///
/// Like [`Text`] it is a drop-in for `String` as far as the engine can
/// tell: [`Ord`] is byte-lexicographic, [`Datum::stable_hash`] is the same
/// FNV-1a over the bytes and [`Datum::size_bytes`] is the length.
/// [`Line::split_key`] cuts a line into key and value windows over the same
/// buffer, so identity jobs such as Sort key their records without copying.
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::{Datum, Line};
///
/// let line = Line::from("key\tvalue");
/// let (key, value) = line.split_key('\t');
/// assert_eq!((key.as_str(), value.as_str()), ("key", "value"));
/// assert_eq!(value.size_bytes(), 5);
/// assert_eq!(key.stable_hash(), "key".to_string().stable_hash());
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Line(Bytes);

impl Line {
    /// The window over `bytes`; bytes that are not UTF-8 are decoded
    /// lossily, as `String::from_utf8_lossy` does, into a buffer of their
    /// own.
    pub(crate) fn new(bytes: Bytes) -> Line {
        match std::str::from_utf8(&bytes) {
            Ok(_) => Line(bytes),
            Err(_) => Line::from(String::from_utf8_lossy(&bytes).as_ref()),
        }
    }

    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        // Every `Line` is checked UTF-8 when it is made, and a window is
        // only ever cut at a char boundary, so the fallback is never taken.
        std::str::from_utf8(&self.0).unwrap_or_default()
    }

    /// Splits at the first `sep` into key and value windows over the same
    /// buffer, as Hadoop's `KeyValueTextInputFormat` reads a line: without
    /// a `sep` the whole line is the key and the value is empty.
    pub fn split_key(&self, sep: char) -> (Line, Line) {
        let text = self.as_str();
        let (key_end, value_start) = match text.find(sep) {
            Some(at) => (at, at + sep.len_utf8()),
            None => (text.len(), text.len()),
        };
        (
            Line(self.0.slice(..key_end)),
            Line(self.0.slice(value_start..)),
        )
    }
}

impl From<&str> for Line {
    fn from(s: &str) -> Self {
        Line(Bytes::from(s.to_owned()))
    }
}

impl std::fmt::Debug for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Datum for Line {
    fn size_bytes(&self) -> usize {
        self.0.len()
    }
    fn stable_hash(&self) -> u64 {
        fnv1a(&self.0)
    }
}

impl Datum for Vec<u8> {
    fn size_bytes(&self) -> usize {
        self.len()
    }
    fn stable_hash(&self) -> u64 {
        fnv1a(self)
    }
}

impl Datum for u64 {
    fn size_bytes(&self) -> usize {
        8
    }
    fn stable_hash(&self) -> u64 {
        splitmix(*self)
    }
}

impl Datum for i64 {
    fn size_bytes(&self) -> usize {
        8
    }
    fn stable_hash(&self) -> u64 {
        splitmix(*self as u64)
    }
}

impl Datum for u32 {
    fn size_bytes(&self) -> usize {
        4
    }
    fn stable_hash(&self) -> u64 {
        splitmix(*self as u64)
    }
}

impl Datum for () {
    fn size_bytes(&self) -> usize {
        0
    }
    fn stable_hash(&self) -> u64 {
        0
    }
}

impl<A: Datum, B: Datum> Datum for (A, B) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes()
    }
    fn stable_hash(&self) -> u64 {
        splitmix(self.0.stable_hash() ^ self.1.stable_hash().rotate_left(17))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::hash_partition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sizes_match_serialized_widths() {
        assert_eq!(String::new().size_bytes(), 0);
        assert_eq!("abc".to_string().size_bytes(), 3);
        assert_eq!(vec![0u8; 10].size_bytes(), 10);
        assert_eq!(0u64.size_bytes(), 8);
        assert_eq!((-5i64).size_bytes(), 8);
        assert_eq!(1u32.size_bytes(), 4);
        assert_eq!(().size_bytes(), 0);
        assert_eq!(("ab".to_string(), 3u64).size_bytes(), 10);
    }

    #[test]
    fn hashes_are_stable_and_spread() {
        assert_eq!("x".to_string().stable_hash(), "x".to_string().stable_hash());
        assert_ne!("x".to_string().stable_hash(), "y".to_string().stable_hash());
        assert_ne!(1u64.stable_hash(), 2u64.stable_hash());
        // Pair hash depends on both components.
        assert_ne!(
            ("a".to_string(), 1u64).stable_hash(),
            ("a".to_string(), 2u64).stable_hash()
        );
        assert_ne!(
            ("a".to_string(), 1u64).stable_hash(),
            ("b".to_string(), 1u64).stable_hash()
        );
    }

    /// A string of exactly `len` bytes drawn from one- to four-byte chars.
    fn utf8_of_len(rng: &mut StdRng, len: usize) -> String {
        const CHARS: [char; 8] = ['a', 'b', 'z', ' ', '\u{1}', 'é', '€', '𝄞'];
        let mut s = String::new();
        while s.len() < len {
            let c = CHARS[rng.random_range(0..CHARS.len())];
            if s.len() + c.len_utf8() <= len {
                s.push(c);
            }
        }
        s
    }

    /// `Text` is indistinguishable from `String` to the engine: same order,
    /// hash, size and partition, on both sides of the inline limit.
    #[test]
    fn text_matches_string() {
        let mut rng = StdRng::seed_from_u64(0x7e47);
        let mut strings: Vec<String> = (0..=40)
            .flat_map(|len| [0, 1, 2].map(|_| len))
            .map(|len| utf8_of_len(&mut rng, len))
            .collect();
        // Shared prefixes across the 22/23-byte boundary.
        let base = "x".repeat(22);
        strings.extend([base.clone(), format!("{base}a"), format!("{base}é")]);
        strings.push("é".repeat(11));
        strings.push(format!("{}a", "é".repeat(11)));
        assert!(strings.iter().any(|s| s.len() == 22 && !s.is_ascii()));
        assert!(strings.iter().any(|s| s.len() == 23 && !s.is_ascii()));
        let texts: Vec<Text> = strings.iter().map(|s| Text::from(s.as_str())).collect();
        let partitions =
            [1, 2, 4, 7].map(|n| (n, hash_partition::<String>(), hash_partition::<Text>()));
        for (s, t) in strings.iter().zip(&texts) {
            assert_eq!(t.as_str(), s);
            assert_eq!(matches!(t.0, Repr::Inline { .. }), s.len() <= INLINE);
            assert_eq!(t.as_bytes(), s.as_bytes());
            assert_eq!(t.size_bytes(), s.size_bytes(), "{s:?}");
            assert_eq!(t.stable_hash(), s.stable_hash(), "{s:?}");
            assert_eq!(format!("{t:?}"), format!("{s:?}"));
            for (n, ps, pt) in &partitions {
                assert_eq!(pt(t, *n), ps(s, *n), "{s:?} over {n} reducers");
            }
            for (s2, t2) in strings.iter().zip(&texts) {
                assert_eq!(t.cmp(t2), s.cmp(s2), "{s:?} vs {s2:?}");
                assert_eq!(t == t2, s == s2);
            }
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "test-only bucket-spread check; set contents are only counted"
    )]
    fn integer_hash_avalanches() {
        // Consecutive integers should land in different buckets mod small n.
        let buckets: std::collections::HashSet<u64> =
            (0u64..16).map(|i| i.stable_hash() % 4).collect();
        assert!(buckets.len() > 1, "hash must not collapse consecutive keys");
    }
}
