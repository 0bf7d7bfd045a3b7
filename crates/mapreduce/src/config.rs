//! Job configuration: the Hadoop knobs the paper's experiments exercise.

/// Engine configuration, named after the Hadoop properties it mirrors.
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::JobConfig;
///
/// let cfg = JobConfig::default()
///     .num_reducers(4)
///     .sort_buffer_bytes(64 << 20)
///     .merge_factor(10);
/// assert_eq!(cfg.num_reducers, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Number of reduce tasks (`mapreduce.job.reduces`); 0 = map-only job.
    pub num_reducers: usize,
    /// Map-side sort buffer in bytes (`mapreduce.task.io.sort.mb`): when the
    /// in-memory output buffer reaches this size the task spills to disk —
    /// §3.1.1 of the paper blames exactly these spills for the 512 MB
    /// WordCount slowdown.
    pub sort_buffer_bytes: u64,
    /// Fan-in of merge passes (`mapreduce.task.io.sort.factor`).
    pub merge_factor: usize,
}

impl Default for JobConfig {
    /// Hadoop 2.6 defaults: 1 reducer, 100 MB sort buffer, 10-way merges.
    fn default() -> Self {
        JobConfig {
            num_reducers: 1,
            sort_buffer_bytes: 100 << 20,
            merge_factor: 10,
        }
    }
}

impl JobConfig {
    /// Sets the reducer count (0 = map-only).
    pub fn num_reducers(mut self, n: usize) -> Self {
        self.num_reducers = n;
        self
    }

    /// Sets the map-side sort buffer size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn sort_buffer_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "sort buffer must be positive");
        self.sort_buffer_bytes = bytes;
        self
    }

    /// Sets the merge fan-in.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 2` (a 1-way merge cannot make progress).
    pub fn merge_factor(mut self, factor: usize) -> Self {
        assert!(factor >= 2, "merge factor must be at least 2");
        self.merge_factor = factor;
        self
    }

    /// Number of merge passes needed to reduce `segments` sorted runs to
    /// one, merging `merge_factor` at a time. Zero or one segment needs no
    /// pass.
    pub fn merge_passes(&self, segments: usize) -> usize {
        let mut segs = segments;
        let mut passes = 0;
        while segs > 1 {
            segs = segs.div_ceil(self.merge_factor);
            passes += 1;
        }
        passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_hadoop_26() {
        let c = JobConfig::default();
        assert_eq!(c.num_reducers, 1);
        assert_eq!(c.sort_buffer_bytes, 100 << 20);
        assert_eq!(c.merge_factor, 10);
    }

    #[test]
    fn merge_passes_follow_log() {
        let c = JobConfig::default().merge_factor(10);
        assert_eq!(c.merge_passes(0), 0);
        assert_eq!(c.merge_passes(1), 0);
        assert_eq!(c.merge_passes(2), 1);
        assert_eq!(c.merge_passes(10), 1);
        assert_eq!(c.merge_passes(11), 2);
        assert_eq!(c.merge_passes(100), 2);
        assert_eq!(c.merge_passes(101), 3);
    }

    #[test]
    fn binary_merge_factor() {
        let c = JobConfig::default().merge_factor(2);
        assert_eq!(c.merge_passes(8), 3);
        assert_eq!(c.merge_passes(9), 4);
    }

    #[test]
    #[should_panic(expected = "merge factor must be at least 2")]
    fn unit_merge_factor_rejected() {
        let _ = JobConfig::default().merge_factor(1);
    }

    #[test]
    #[should_panic(expected = "sort buffer must be positive")]
    fn zero_sort_buffer_rejected() {
        let _ = JobConfig::default().sort_buffer_bytes(0);
    }
}
