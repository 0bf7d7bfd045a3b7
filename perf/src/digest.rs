//! Output digest: a 64-bit multiply-xor hash that is also an `io::Write`
//! sink, so multi-megabyte exports are verified without being buffered.

use std::io::{self, Write};

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming hash of everything written to it. The result depends only
/// on the byte sequence, never on how writes were chunked.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
    bytes: u64,
    /// Bytes not yet folded (fewer than eight).
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: SEED,
            bytes: 0,
            tail: [0; 8],
            tail_len: 0,
        }
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest::default()
    }

    fn fold(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(PRIME).rotate_left(29);
    }

    /// Folds in raw bytes.
    pub fn bytes(&mut self, mut data: &[u8]) {
        self.bytes += data.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 8 {
                return;
            }
            self.fold(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.fold(u64::from_le_bytes(b));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Folds in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in one float, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Bytes folded in so far.
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut end = self.clone();
        if end.tail_len > 0 {
            let mut b = [0u8; 8];
            b[..end.tail_len].copy_from_slice(&end.tail[..end.tail_len]);
            end.fold(u64::from_le_bytes(b));
        }
        end.fold(end.bytes);
        end.state
    }
}

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_does_not_change_the_hash() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut whole = Digest::new();
        whole.bytes(&data);
        for step in [1, 3, 8, 13, 64] {
            let mut parts = Digest::new();
            for c in data.chunks(step) {
                parts.write_all(c).unwrap();
            }
            assert_eq!(parts.finish(), whole.finish(), "chunk size {step}");
            assert_eq!(parts.len(), 1000);
        }
    }

    #[test]
    fn content_and_length_both_matter() {
        let h = |d: &[u8]| {
            let mut x = Digest::new();
            x.bytes(d);
            x.finish()
        };
        assert_ne!(h(b"abc"), h(b"abd"));
        assert_ne!(h(b"abc"), h(b"abc\0"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
