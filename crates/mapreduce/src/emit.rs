//! Output collector handed to mappers, combiners and reducers.

use crate::kv::Datum;

/// Collects emitted `(key, value)` records and accounts their bytes.
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::Emitter;
///
/// let mut out = Emitter::new();
/// out.emit("key".to_string(), 10u64);
/// assert_eq!(out.records(), 1);
/// assert_eq!(out.bytes(), 11); // 3 + 8
/// ```
#[derive(Debug, Clone)]
pub struct Emitter<K, V> {
    buf: Vec<(K, V)>,
    bytes: u64,
}

impl<K: Datum, V: Datum> Emitter<K, V> {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Emitter {
            buf: Vec::new(),
            bytes: 0,
        }
    }

    /// Emits one record.
    pub fn emit(&mut self, key: K, value: V) {
        self.bytes += (key.size_bytes() + value.size_bytes()) as u64;
        self.buf.push((key, value));
    }

    /// Records emitted so far (since the last drain).
    pub fn records(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Bytes emitted so far (since the last drain).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Removes and returns the buffered records, resetting the counters.
    pub fn drain(&mut self) -> Vec<(K, V)> {
        self.bytes = 0;
        std::mem::take(&mut self.buf)
    }

    /// Moves the buffered records into `recycled` (clearing whatever it
    /// held) and adopts its allocation as the new, empty buffer.
    ///
    /// The engine's spill loop swaps the same scratch `Vec` back and forth
    /// so steady-state spilling reuses two stable allocations instead of
    /// growing a fresh buffer from zero after every spill (which is what
    /// [`Emitter::drain`]'s `mem::take` costs).
    ///
    /// # Examples
    ///
    /// ```
    /// use hhsim_mapreduce::Emitter;
    ///
    /// let mut out = Emitter::new();
    /// let mut scratch: Vec<(String, u64)> = Vec::with_capacity(64);
    /// out.emit("k".to_string(), 1);
    /// out.drain_reusing(&mut scratch);
    /// assert_eq!(scratch, vec![("k".to_string(), 1)]);
    /// assert!(out.is_empty());
    /// ```
    pub fn drain_reusing(&mut self, recycled: &mut Vec<(K, V)>) {
        self.bytes = 0;
        recycled.clear();
        std::mem::swap(&mut self.buf, recycled);
    }

    /// Removes the buffered records in emission order, keeping the
    /// buffer's allocation for the next emits (a combiner's emitter is
    /// reused across every key group of a job's map phase this way).
    pub(crate) fn drain_kept(&mut self) -> std::vec::Drain<'_, (K, V)> {
        self.bytes = 0;
        self.buf.drain(..)
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl<K: Datum, V: Datum> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounts_records_and_bytes() {
        let mut e = Emitter::new();
        e.emit("ab".to_string(), 1u64);
        e.emit("c".to_string(), 2u64);
        assert_eq!(e.records(), 2);
        assert_eq!(e.bytes(), 2 + 8 + 1 + 8);
    }

    #[test]
    fn drain_reusing_swaps_allocations() {
        let mut e = Emitter::new();
        e.emit(1u64, 2u64);
        e.emit(3u64, 4u64);
        let mut scratch: Vec<(u64, u64)> = Vec::with_capacity(100);
        scratch.push((9, 9)); // stale content must be cleared
        let cap = scratch.capacity();
        e.drain_reusing(&mut scratch);
        assert_eq!(scratch, vec![(1, 2), (3, 4)]);
        assert!(e.is_empty());
        assert_eq!(e.bytes(), 0);
        // The emitter adopted the recycled allocation.
        assert_eq!(e.buf.capacity(), cap);
    }

    #[test]
    fn drain_resets() {
        let mut e = Emitter::new();
        e.emit(1u64, 2u64);
        let got = e.drain();
        assert_eq!(got, vec![(1, 2)]);
        assert!(e.is_empty());
        assert_eq!(e.bytes(), 0);
        assert_eq!(e.records(), 0);
    }
}
