//! Rotational-disk timing model.
//!
//! The model charges one seek per sequential chunk plus transfer at the
//! sustained bandwidth. Reading the same number of bytes in bigger chunks
//! therefore amortizes seeks — the mechanism behind the paper's observation
//! that larger HDFS blocks improve I/O-bound workloads (§3.1.1).

/// Seek + bandwidth disk model.
///
/// # Examples
///
/// ```
/// use hhsim_hdfs::DiskModel;
///
/// let disk = DiskModel::sata_7200();
/// let small = disk.read_seconds(512 << 20, 32 << 20);
/// let large = disk.read_seconds(512 << 20, 512 << 20);
/// assert!(large < small, "bigger sequential chunks amortize seeks");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek + rotational latency per repositioning, milliseconds.
    pub seek_ms: f64,
    /// Sustained sequential read bandwidth, MB/s.
    pub read_mbps: f64,
    /// Sustained sequential write bandwidth, MB/s.
    pub write_mbps: f64,
}

const MB: f64 = 1024.0 * 1024.0;

impl DiskModel {
    /// A 7200 rpm SATA drive of the paper's era.
    pub fn sata_7200() -> Self {
        DiskModel {
            seek_ms: 8.5,
            read_mbps: 140.0,
            write_mbps: 125.0,
        }
    }

    /// Seconds to read `bytes` in sequential chunks of `chunk_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn read_seconds(&self, bytes: u64, chunk_bytes: u64) -> f64 {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        if bytes == 0 {
            return 0.0;
        }
        let seeks = bytes.div_ceil(chunk_bytes) as f64;
        seeks * self.seek_ms / 1e3 + bytes as f64 / MB / self.read_mbps
    }

    /// Seconds to write `bytes` in sequential chunks of `chunk_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn write_seconds(&self, bytes: u64, chunk_bytes: u64) -> f64 {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        if bytes == 0 {
            return 0.0;
        }
        let seeks = bytes.div_ceil(chunk_bytes) as f64;
        seeks * self.seek_ms / 1e3 + bytes as f64 / MB / self.write_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        let d = DiskModel::sata_7200();
        assert_eq!(d.read_seconds(0, 1024), 0.0);
        assert_eq!(d.write_seconds(0, 1024), 0.0);
    }

    #[test]
    fn bandwidth_term_dominates_large_sequential_reads() {
        let d = DiskModel::sata_7200();
        let bytes = 1u64 << 30; // 1 GiB in one chunk
        let t = d.read_seconds(bytes, bytes);
        let bw_only = (bytes as f64 / MB) / d.read_mbps;
        assert!((t - bw_only - d.seek_ms / 1e3).abs() < 1e-9);
    }

    #[test]
    fn seeks_scale_with_chunk_count() {
        let d = DiskModel::sata_7200();
        let t32 = d.read_seconds(512 << 20, 32 << 20); // 16 seeks
        let t512 = d.read_seconds(512 << 20, 512 << 20); // 1 seek
        let delta = t32 - t512;
        assert!((delta - 15.0 * d.seek_ms / 1e3).abs() < 1e-9);
    }

    #[test]
    fn writes_slower_than_reads() {
        let d = DiskModel::sata_7200();
        assert!(d.write_seconds(1 << 30, 1 << 30) > d.read_seconds(1 << 30, 1 << 30));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = DiskModel::sata_7200().read_seconds(10, 0);
    }
}
