//! Sort (ST) — the I/O-intensive micro-benchmark: sorts the input
//! directory into the output directory. Mappers and reducers are identity
//! functions; the actual sorting happens in the framework's internal
//! shuffle and sort, exactly as the paper describes (§1.3.1).

use bytes::Bytes;
use hhsim_mapreduce::{
    run_job, text_splits_from_bytes, Emitter, JobConfig, JobResult, JobSpec, Line, Mapper, Reducer,
};

/// Re-keys each row by its sort key (text up to the first tab), passing the
/// payload through; both are windows into the input, so no row is copied.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyByLineMapper;

impl Mapper for KeyByLineMapper {
    type KIn = u64;
    type VIn = Line;
    type KOut = Line;
    type VOut = Line;
    fn map(&mut self, _offset: &u64, line: &Line, out: &mut Emitter<Line, Line>) {
        let (key, payload) = line.split_key('\t');
        out.emit(key, payload);
    }
}

/// Identity reducer preserving every row.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassThroughReducer;

impl Reducer for PassThroughReducer {
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

/// Builds the Sort job (no combiner — identity data must not collapse).
pub fn job(cfg: JobConfig) -> JobSpec<KeyByLineMapper, PassThroughReducer> {
    JobSpec::new(KeyByLineMapper, PassThroughReducer).config(cfg)
}

/// Runs Sort over `input` split into `block_bytes` blocks.
pub fn run(input: &Bytes, block_bytes: u64, cfg: JobConfig) -> JobResult<Line, Line> {
    let splits = text_splits_from_bytes(input, block_bytes);
    run_job(&job(cfg), splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;

    #[test]
    fn each_reducers_output_is_sorted() {
        let input = datagen::table(20 << 10, 2);
        let res = run(&input, 4 << 10, JobConfig::default().num_reducers(1));
        let keys: Vec<&Line> = res.output.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(res.output.len() as u64, res.stats.map_input_records);
    }

    #[test]
    fn identity_selectivity_near_one() {
        let input = datagen::table(20 << 10, 2);
        let res = run(&input, 4 << 10, JobConfig::default().num_reducers(2));
        let sel = res.stats.map_selectivity();
        assert!(
            (0.8..=1.1).contains(&sel),
            "identity map keeps bytes ~constant, got {sel}"
        );
        // Shuffle volume equals materialized map output: everything moves.
        assert_eq!(res.stats.shuffle_bytes, res.stats.map_materialized_bytes);
    }

    #[test]
    fn record_conservation() {
        let input = datagen::table(10 << 10, 8);
        let res = run(&input, 2 << 10, JobConfig::default().num_reducers(3));
        assert_eq!(res.stats.map_input_records, res.stats.output_records);
    }
}
