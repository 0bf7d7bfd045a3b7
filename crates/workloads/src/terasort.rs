//! TeraSort (TS) — the scalable MapReduce sort. Mirrors the Hadoop
//! implementation: the client first *samples* the input to compute the
//! key-range quantiles (one cut per reducer boundary — "a sorted list of
//! N−1 sampled keys defines the key range for each reduce", §1.3.1), then
//! runs identity map/reduce under a total-order range partitioner so that
//! concatenated reducer outputs are globally sorted.

use bytes::Bytes;
use hhsim_mapreduce::{
    range_partition, run_job, text_splits_from_bytes, Emitter, JobConfig, JobResult, JobSpec, Line,
    Mapper, Reducer, TextSplit,
};

/// Keys each TeraGen row by its 10-character key prefix; key and filler
/// are windows into the input, so no row is copied.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeraKeyMapper;

impl Mapper for TeraKeyMapper {
    type KIn = u64;
    type VIn = Line;
    type KOut = Line;
    type VOut = Line;
    fn map(&mut self, _offset: &u64, row: &Line, out: &mut Emitter<Line, Line>) {
        let (key, filler) = row.split_key('\t');
        out.emit(key, filler);
    }
}

/// Identity reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeraReducer;

impl Reducer for TeraReducer {
    type KIn = Line;
    type VIn = Line;
    type KOut = Line;
    type VOut = Line;
    fn reduce(&mut self, key: &Line, values: &[Line], out: &mut Emitter<Line, Line>) {
        for v in values {
            out.emit(key.clone(), v.clone());
        }
    }
}

/// Samples `samples_per_split` keys from each split and returns the
/// `num_reducers − 1` quantile cut points (TeraInputFormat's partition
/// file).
pub fn sample_cut_points(
    splits: &[TextSplit],
    num_reducers: usize,
    samples_per_split: usize,
) -> Vec<Line> {
    let mut samples: Vec<Line> = Vec::new();
    for split in splits {
        let n = split.len();
        if n == 0 {
            continue;
        }
        let step = (n / samples_per_split.max(1)).max(1);
        for (_, row) in split.iter().step_by(step).take(samples_per_split) {
            samples.push(row.split_key('\t').0);
        }
    }
    samples.sort();
    if num_reducers <= 1 || samples.is_empty() {
        return Vec::new();
    }
    let mut cuts = Vec::with_capacity(num_reducers - 1);
    for i in 1..num_reducers {
        let idx = i * samples.len() / num_reducers;
        cuts.push(samples[idx.min(samples.len() - 1)].clone());
    }
    cuts.dedup();
    cuts
}

/// Runs TeraSort (sampling + total-order sort) over `input`.
pub fn run(input: &Bytes, block_bytes: u64, cfg: JobConfig) -> JobResult<Line, Line> {
    let splits = text_splits_from_bytes(input, block_bytes);
    let cuts = sample_cut_points(&splits, cfg.num_reducers, 32);
    let job = JobSpec::new(TeraKeyMapper, TeraReducer)
        .config(cfg)
        .partitioner(range_partition(cuts));
    run_job(&job, splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use hhsim_mapreduce::Datum;

    #[test]
    fn output_is_globally_sorted() {
        let input = datagen::teragen(40 << 10, 3);
        let res = run(&input, 8 << 10, JobConfig::default().num_reducers(4));
        let keys: Vec<&Line> = res.output.iter().map(|(k, _)| k).collect();
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "range partitioning must give a total order across reducers"
        );
        assert_eq!(res.output.len() as u64, res.stats.map_input_records);
    }

    #[test]
    fn sampling_balances_reducers() {
        let splits = text_splits_from_bytes(&datagen::teragen(100 << 10, 4), 20 << 10);
        let part = range_partition(sample_cut_points(&splits, 4, 32));
        let mut bytes = [0u64; 4];
        for split in &splits {
            for (_, row) in split {
                let (key, filler) = row.split_key('\t');
                bytes[part(&key, 4)] += (key.size_bytes() + filler.size_bytes()) as u64;
            }
        }
        let max = bytes.iter().max().copied().unwrap_or(0) as f64;
        let skew = max / (bytes.iter().sum::<u64>() as f64 / 4.0);
        assert!(
            skew < 1.6,
            "quantile cuts should balance partitions, skew {skew}"
        );
    }

    #[test]
    fn cut_points_are_sorted_and_bounded() {
        let splits = text_splits_from_bytes(&datagen::teragen(20 << 10, 5), 4 << 10);
        let cuts = sample_cut_points(&splits, 5, 16);
        assert!(cuts.len() <= 4);
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_reducer_needs_no_cuts() {
        let splits = text_splits_from_bytes(&datagen::teragen(4 << 10, 6), 1 << 10);
        assert!(sample_cut_points(&splits, 1, 8).is_empty());
        assert!(sample_cut_points(&[], 4, 8).is_empty());
    }
}
