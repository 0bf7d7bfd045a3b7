//! WordCount (WC) — the canonical CPU-intensive micro-benchmark: counts
//! how often each word appears in a set of text files.

use bytes::Bytes;
use hhsim_mapreduce::{
    run_job, text_splits_from_bytes, Emitter, JobConfig, JobResult, JobSpec, Line, Mapper, Reducer,
    Text,
};

/// Tokenizes lines into `(word, 1)` pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenizeMapper;

impl Mapper for TokenizeMapper {
    type KIn = u64;
    type VIn = Line;
    type KOut = Text;
    type VOut = u64;
    fn map(&mut self, _offset: &u64, line: &Line, out: &mut Emitter<Text, u64>) {
        for w in line.as_str().split_whitespace() {
            out.emit(Text::from(w), 1);
        }
    }
}

/// Sums counts per word (used as both combiner and reducer, like Hadoop's
/// `IntSumReducer`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumReducer;

impl Reducer for SumReducer {
    type KIn = Text;
    type VIn = u64;
    type KOut = Text;
    type VOut = u64;
    fn reduce(&mut self, key: &Text, values: &[u64], out: &mut Emitter<Text, u64>) {
        out.emit(key.clone(), values.iter().sum());
    }
}

/// Builds the WordCount job (with combiner, as the Hadoop example ships).
pub fn job(cfg: JobConfig) -> JobSpec<TokenizeMapper, SumReducer> {
    JobSpec::new(TokenizeMapper, SumReducer)
        .config(cfg)
        .combiner(SumReducer)
}

/// Runs WordCount over `input` split into `block_bytes` blocks.
pub fn run(input: &Bytes, block_bytes: u64, cfg: JobConfig) -> JobResult<Text, u64> {
    let splits = text_splits_from_bytes(input, block_bytes);
    run_job(&job(cfg), splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;

    #[test]
    fn counts_match_reference() {
        let input = Bytes::from("a b a\nc b a\n".to_string());
        let res = run(&input, 6, JobConfig::default().num_reducers(2));
        let mut out = res.output;
        out.sort();
        assert_eq!(
            out,
            vec![
                (Text::from("a"), 3),
                (Text::from("b"), 2),
                (Text::from("c"), 1)
            ]
        );
    }

    #[test]
    fn combiner_makes_map_output_smaller_than_emitted() {
        let input = datagen::text(64 << 10, 3);
        let res = run(&input, 16 << 10, JobConfig::default().num_reducers(2));
        assert!(res.stats.combine_output_records < res.stats.combine_input_records);
        assert!(res.stats.map_materialized_bytes < res.stats.map_output_bytes);
    }

    #[test]
    fn high_map_selectivity_is_wordcounts_signature() {
        // Each ~6-byte word becomes a (word, u64) pair: output bytes per
        // input byte (pre-combine) exceed 1.5.
        let input = datagen::text(32 << 10, 4);
        let res = run(&input, 8 << 10, JobConfig::default());
        assert!(
            res.stats.map_selectivity() > 1.2,
            "selectivity {}",
            res.stats.map_selectivity()
        );
    }

    #[test]
    fn total_count_equals_total_words() {
        let input = datagen::text(16 << 10, 5);
        let text = String::from_utf8(input.to_vec()).unwrap();
        let expect = text.split_whitespace().count() as u64;
        let res = run(&input, 4 << 10, JobConfig::default().num_reducers(3));
        let got: u64 = res.output.iter().map(|(_, c)| c).sum();
        assert_eq!(got, expect);
    }
}
