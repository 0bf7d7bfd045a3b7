//! Text input format: a file's bytes cut into per-block line records.
//!
//! Faithful to Hadoop's `TextInputFormat` record-reader contract: one split
//! per block; a reader whose split does not start at byte 0 skips the first
//! (partial) line, and every reader keeps reading past its split end to
//! finish its final line. Records are `(byte offset, line)` pairs; every
//! line of the file is read by exactly one task even when lines straddle
//! block boundaries.
//!
//! A line is a [`Line`]: a window into the file's one shared [`Bytes`]
//! buffer, so reading a split copies no text and allocates only the split's
//! record vector. A line that is not valid UTF-8 is read lossily, as
//! `String::from_utf8_lossy` would, into a buffer of its own. The tests hold
//! the reader to the `String`-per-line reader it replaced, kept there as an
//! oracle.

use bytes::Bytes;

use crate::kv::Line;

/// One input split: records of `(file offset, line)`.
pub type TextSplit = Vec<(u64, Line)>;

/// Splits a file's bytes into per-block line records, one split per
/// `block_size` bytes.
///
/// # Panics
///
/// Panics if `block_size` is zero.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use hhsim_mapreduce::text_splits_from_bytes;
///
/// let splits = text_splits_from_bytes(&Bytes::from_static(b"alpha\nbravo charlie\nx\n"), 8);
/// let lines: Vec<&str> = splits.iter().flatten().map(|(_, l)| l.as_str()).collect();
/// assert_eq!(lines, vec!["alpha", "bravo charlie", "x"]);
/// ```
pub fn text_splits_from_bytes(data: &Bytes, block_size: u64) -> Vec<TextSplit> {
    let block = usize::try_from(block_size).unwrap_or(usize::MAX);
    (0..data.len())
        .step_by(block)
        .map(|start| read_split(data, start, start.saturating_add(block)))
        .collect()
}

/// Reads the records belonging to split `[start, end)` per the Hadoop
/// record-reader contract.
fn read_split(data: &Bytes, start: usize, end: usize) -> TextSplit {
    let bytes: &[u8] = data;
    // Where the line holding byte `from` ends: its newline, or EOF.
    let line_end = |from: usize| {
        bytes
            .get(from..)
            .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
            .map_or(bytes.len(), |at| from + at)
    };
    // Skip the partial first line unless we start the file.
    let mut pos = match start.checked_sub(1) {
        Some(before) => line_end(before) + 1,
        None => 0,
    };
    let mut records = Vec::new();
    // Read lines while the line *starts* inside the split.
    while pos < bytes.len() && pos < end {
        let stop = line_end(pos);
        records.push((pos as u64, Line::new(data.slice(pos..stop))));
        pos = stop + 1; // past the newline (or EOF)
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Datum;
    use crate::partition::hash_partition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `String`-per-line reader that [`text_splits_from_bytes`]
    /// replaced, kept as the oracle its records are held to.
    fn oracle_splits(data: &[u8], block_size: u64) -> Vec<Vec<(u64, String)>> {
        let len = data.len() as u64;
        if len == 0 {
            return Vec::new();
        }
        let nblocks = len.div_ceil(block_size);
        let mut splits = Vec::with_capacity(nblocks as usize);
        for b in 0..nblocks {
            let start = b * block_size;
            let end = ((b + 1) * block_size).min(len);
            let mut pos = start;
            if start > 0 {
                while pos < len && data[(pos - 1) as usize] != b'\n' {
                    pos += 1;
                }
            }
            let mut records = Vec::new();
            while pos < len && pos < end {
                let line_start = pos;
                let mut line_end = pos;
                while line_end < len && data[line_end as usize] != b'\n' {
                    line_end += 1;
                }
                let line = String::from_utf8_lossy(&data[line_start as usize..line_end as usize])
                    .into_owned();
                records.push((line_start, line));
                pos = line_end + 1;
            }
            splits.push(records);
        }
        splits
    }

    fn split_lines(text: &str, block: u64) -> Vec<Vec<String>> {
        text_splits_from_bytes(&Bytes::from(text.to_string()), block)
            .into_iter()
            .map(|s| s.into_iter().map(|(_, l)| l.as_str().to_owned()).collect())
            .collect()
    }

    /// Random input bytes: words, spaces, empty lines, `\r`, two- to
    /// four-byte chars, and invalid UTF-8 — stray continuation bytes,
    /// truncated sequences, and a char cut in two by a newline.
    fn hostile_bytes(rng: &mut StdRng) -> Vec<u8> {
        const PIECES: [&[u8]; 16] = [
            b"a",
            b"word",
            b" ",
            b"\t",
            b"\n",
            b"\n\n",
            b"\r\n",
            b"\r",
            "\u{e9}".as_bytes(),
            "\u{20ac}".as_bytes(),
            "\u{1d11e}".as_bytes(),
            b"\xff",
            b"\x80",
            b"\xc3",
            b"\xe2\x82",
            b"\xe2\n\x82\xac",
        ];
        let pieces = rng.random_range(0..40);
        (0..pieces)
            .flat_map(|_| PIECES[rng.random_range(0..PIECES.len())].iter().copied())
            .collect()
    }

    /// The shared-buffer reader yields the oracle's records for any bytes
    /// and any block size, each valid line a window into the input, and
    /// each record is indistinguishable from the oracle's `String` to the
    /// engine: same offset, text, size, hash, partition and order.
    #[test]
    fn reader_matches_string_oracle() {
        let mut rng = StdRng::seed_from_u64(0x11e5);
        let partitions =
            [1, 2, 4, 7].map(|n| (n, hash_partition::<String>(), hash_partition::<Line>()));
        let mut lossy = 0;
        for case in 0..300 {
            let data = hostile_bytes(&mut rng);
            let shared = Bytes::from(data.clone());
            for block in 1..=data.len() as u64 + 2 {
                let got = text_splits_from_bytes(&shared, block);
                let want = oracle_splits(&data, block);
                assert_eq!(got.len(), want.len(), "case {case}, block {block}");
                for (g, w) in got.iter().zip(&want) {
                    let offsets: Vec<u64> = g.iter().map(|(o, _)| *o).collect();
                    let expect: Vec<u64> = w.iter().map(|(o, _)| *o).collect();
                    assert_eq!(offsets, expect, "case {case}, block {block}");
                }
                let got: Vec<&Line> = got.iter().flatten().map(|(_, l)| l).collect();
                let want: Vec<&String> = want.iter().flatten().map(|(_, s)| s).collect();
                assert_eq!(got.len(), want.len());
                for (l, s) in got.iter().zip(&want) {
                    assert_eq!(l.as_str(), s.as_str());
                    if !s.is_empty() && !s.contains('\u{fffd}') {
                        let at = l.as_str().as_ptr();
                        assert!(shared.as_ptr_range().contains(&at), "{s:?} was copied");
                    }
                    assert_eq!(l.size_bytes(), s.size_bytes(), "{s:?}");
                    assert_eq!(l.stable_hash(), s.stable_hash(), "{s:?}");
                    for (n, ps, pl) in &partitions {
                        assert_eq!(pl(l, *n), ps(s, *n), "{s:?} over {n} reducers");
                    }
                    for (l2, s2) in got.iter().zip(&want) {
                        assert_eq!(l.cmp(l2), s.cmp(s2), "{s:?} vs {s2:?}");
                    }
                }
                lossy += want.iter().filter(|s| s.contains('\u{fffd}')).count();
            }
        }
        assert!(lossy > 0, "the cases must include invalid UTF-8");
    }

    /// A key window and a value window cut from a line read as the text
    /// on either side of the separator, with the `String` hash and size.
    #[test]
    fn split_key_matches_str_split_once() {
        for text in [
            "k\tv",
            "k\t",
            "\tv",
            "no separator",
            "",
            "\u{e9}\t\u{20ac}\tz",
        ] {
            let (key, value) = Line::from(text).split_key('\t');
            let (k, v) = text.split_once('\t').unwrap_or((text, ""));
            assert_eq!((key.as_str(), value.as_str()), (k, v));
            assert_eq!(key.stable_hash(), k.to_string().stable_hash());
            assert_eq!(value.size_bytes(), v.len());
        }
    }

    #[test]
    fn empty_input_no_splits() {
        assert!(split_lines("", 8).is_empty());
    }

    #[test]
    fn single_block_reads_all_lines() {
        let s = split_lines("a\nbb\nccc\n", 100);
        assert_eq!(s, vec![vec!["a", "bb", "ccc"]]);
    }

    #[test]
    fn line_straddling_boundary_read_once() {
        // Block size 4: "hello\nworld\n" splits at 4 and 8; the line
        // "hello" straddles the first boundary and belongs to split 0.
        let s = split_lines("hello\nworld\n", 4);
        let all: Vec<String> = s.concat();
        assert_eq!(all, vec!["hello", "world"]);
        // No duplicates, no losses.
        assert_eq!(s.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn every_line_exactly_once_for_many_block_sizes() {
        let text = "one\ntwo two\nthree three three\nfour\nfive5\n\nseven\n";
        let expect: Vec<&str> = text.lines().collect();
        for block in 1..=(text.len() as u64 + 2) {
            let got: Vec<String> = split_lines(text, block).concat();
            assert_eq!(got, expect, "block size {block}");
        }
    }

    #[test]
    fn no_trailing_newline_still_reads_last_line() {
        let s = split_lines("alpha\nbeta", 4);
        assert_eq!(s.concat(), vec!["alpha", "beta"]);
    }

    #[test]
    fn offsets_are_file_absolute() {
        let splits = text_splits_from_bytes(&Bytes::from_static(b"ab\ncd\nef\n"), 3);
        let offsets: Vec<u64> = splits.concat().iter().map(|(o, _)| *o).collect();
        assert_eq!(offsets, vec![0, 3, 6]);
    }
}
