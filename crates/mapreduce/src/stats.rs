//! Job-level dataflow statistics (Hadoop counter equivalents).

/// Aggregated dataflow statistics of one executed job.
///
/// Field names follow Hadoop's job counters; all byte counts use the
/// [`crate::Datum::size_bytes`] serialization model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobStats {
    /// Number of map tasks (= input splits).
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,

    /// Bytes read by all mappers.
    pub map_input_bytes: u64,
    /// Records read by all mappers.
    pub map_input_records: u64,
    /// Records emitted by all mappers (before the combiner).
    pub map_output_records: u64,
    /// Bytes emitted by all mappers (before the combiner).
    pub map_output_bytes: u64,
    /// Records written to map outputs after combining.
    pub map_materialized_records: u64,
    /// Bytes written to map outputs after combining — this is what shuffles.
    pub map_materialized_bytes: u64,

    /// Records entering the combiner.
    pub combine_input_records: u64,
    /// Records leaving the combiner.
    pub combine_output_records: u64,

    /// Number of spills across all map tasks.
    pub spills: u64,
    /// Bytes written by spills (first write of each segment).
    pub spill_write_bytes: u64,
    /// Bytes re-read and re-written by extra map-side merge passes.
    pub map_merge_bytes: u64,
    /// Total extra map-side merge passes.
    pub map_merge_passes: u64,

    /// Bytes moved from map outputs to reducers.
    pub shuffle_bytes: u64,
    /// Bytes re-read and re-written by reduce-side merge passes beyond the
    /// streaming final merge.
    pub reduce_merge_bytes: u64,
    /// Total reduce-side merge passes.
    pub reduce_merge_passes: u64,

    /// Distinct key groups seen by reducers.
    pub reduce_input_groups: u64,
    /// Records consumed by reducers.
    pub reduce_input_records: u64,
    /// Records produced by reducers (or by map tasks for map-only jobs).
    pub output_records: u64,
    /// Bytes produced by reducers (or map output bytes for map-only jobs).
    pub output_bytes: u64,
}

impl JobStats {
    /// Adds another job's counters to these (the merged statistics of
    /// chained jobs).
    ///
    /// The destructure names every field, so a new counter cannot be
    /// forgotten here: it fails to compile until it is folded.
    pub fn absorb(&mut self, other: JobStats) {
        let JobStats {
            map_tasks,
            reduce_tasks,
            map_input_bytes,
            map_input_records,
            map_output_records,
            map_output_bytes,
            map_materialized_records,
            map_materialized_bytes,
            combine_input_records,
            combine_output_records,
            spills,
            spill_write_bytes,
            map_merge_bytes,
            map_merge_passes,
            shuffle_bytes,
            reduce_merge_bytes,
            reduce_merge_passes,
            reduce_input_groups,
            reduce_input_records,
            output_records,
            output_bytes,
        } = other;
        self.map_tasks += map_tasks;
        self.reduce_tasks += reduce_tasks;
        self.map_input_bytes += map_input_bytes;
        self.map_input_records += map_input_records;
        self.map_output_records += map_output_records;
        self.map_output_bytes += map_output_bytes;
        self.map_materialized_records += map_materialized_records;
        self.map_materialized_bytes += map_materialized_bytes;
        self.combine_input_records += combine_input_records;
        self.combine_output_records += combine_output_records;
        self.spills += spills;
        self.spill_write_bytes += spill_write_bytes;
        self.map_merge_bytes += map_merge_bytes;
        self.map_merge_passes += map_merge_passes;
        self.shuffle_bytes += shuffle_bytes;
        self.reduce_merge_bytes += reduce_merge_bytes;
        self.reduce_merge_passes += reduce_merge_passes;
        self.reduce_input_groups += reduce_input_groups;
        self.reduce_input_records += reduce_input_records;
        self.output_records += output_records;
        self.output_bytes += output_bytes;
    }

    /// Map selectivity: output bytes per input byte (before combining).
    pub fn map_selectivity(&self) -> f64 {
        if self.map_input_bytes == 0 {
            0.0
        } else {
            self.map_output_bytes as f64 / self.map_input_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_jobs() {
        let s = JobStats::default();
        assert_eq!(s.map_selectivity(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = JobStats {
            map_input_bytes: 100,
            map_output_bytes: 150,
            map_materialized_bytes: 75,
            shuffle_bytes: 75,
            ..JobStats::default()
        };
        assert_eq!(s.map_selectivity(), 1.5);
    }

    #[test]
    fn absorb_sums_counters() {
        let a = JobStats {
            map_tasks: 2,
            spills: 3,
            output_bytes: 10,
            ..JobStats::default()
        };
        let b = JobStats {
            map_tasks: 1,
            reduce_tasks: 1,
            output_bytes: 5,
            ..JobStats::default()
        };
        let mut merged = JobStats::default();
        merged.absorb(a);
        merged.absorb(b);
        assert_eq!(
            merged,
            JobStats {
                map_tasks: 3,
                reduce_tasks: 1,
                spills: 3,
                output_bytes: 15,
                ..JobStats::default()
            }
        );
    }
}
