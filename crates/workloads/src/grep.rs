//! Grep (GP) — extracts strings matching a user pattern and sorts the
//! matches by frequency. Like Hadoop's example it runs **two jobs in
//! sequence**: a search job (match → count) and a sort job ordering matches
//! by descending frequency (§1.3.1 / §3.4 of the paper, which notes grep's
//! two phases and its significant setup/cleanup share).

use bytes::Bytes;
use hhsim_mapreduce::{
    run_job, text_splits_from_bytes, Emitter, JobConfig, JobResult, JobSpec, JobStats, Line,
    Mapper, Reducer, Text,
};

/// Emits `(matched word, 1)` for every word containing the pattern.
#[derive(Debug, Clone)]
pub struct MatchMapper {
    /// Substring pattern to search for.
    pub pattern: String,
}

impl Mapper for MatchMapper {
    type KIn = u64;
    type VIn = Line;
    type KOut = Text;
    type VOut = u64;
    fn map(&mut self, _offset: &u64, line: &Line, out: &mut Emitter<Text, u64>) {
        for w in line.as_str().split_whitespace() {
            if w.contains(self.pattern.as_str()) {
                out.emit(Text::from(w), 1);
            }
        }
    }
}

/// Sums match counts (shared with WordCount semantics); the search job's
/// combiner and reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountReducer;

impl Reducer for CountReducer {
    type KIn = Text;
    type VIn = u64;
    type KOut = Text;
    type VOut = u64;
    fn reduce(&mut self, key: &Text, values: &[u64], out: &mut Emitter<Text, u64>) {
        out.emit(key.clone(), values.iter().sum());
    }
}

/// Inverts `(word, count)` to `(count descending, word)` for the sort job.
#[derive(Debug, Clone, Copy, Default)]
pub struct InvertMapper;

impl Mapper for InvertMapper {
    type KIn = Text;
    type VIn = u64;
    type KOut = u64;
    type VOut = Text;
    fn map(&mut self, word: &Text, count: &u64, out: &mut Emitter<u64, Text>) {
        // Descending order via complemented key, like Hadoop's
        // `LongWritable.DecreasingComparator`.
        out.emit(u64::MAX - count, word.clone());
    }
}

/// Identity reducer of the sort job.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitSortedReducer;

impl Reducer for EmitSortedReducer {
    type KIn = u64;
    type VIn = Text;
    type KOut = String;
    type VOut = u64;
    fn reduce(&mut self, inv_count: &u64, words: &[Text], out: &mut Emitter<String, u64>) {
        for w in words {
            out.emit(w.as_str().to_owned(), u64::MAX - inv_count);
        }
    }
}

/// Result of the two-job grep pipeline.
#[derive(Debug, Clone)]
pub struct GrepResult {
    /// Matches sorted by descending frequency.
    pub output: Vec<(String, u64)>,
    /// Statistics of the search job (the dominant one).
    pub search_stats: JobStats,
    /// Statistics of the frequency-sort job.
    pub sort_stats: JobStats,
}

/// Runs both grep jobs over `input` with the given pattern.
pub fn run(input: &Bytes, pattern: &str, block_bytes: u64, cfg: JobConfig) -> GrepResult {
    let splits = text_splits_from_bytes(input, block_bytes);
    let search = JobSpec::new(
        MatchMapper {
            pattern: pattern.to_string(),
        },
        CountReducer,
    )
    .config(cfg)
    .combiner(CountReducer);
    let search_res: JobResult<Text, u64> = run_job(&search, splits);

    // Second job: single reducer over the (small) match table, one split.
    let sort_cfg = cfg.num_reducers(1);
    let sort_job = JobSpec::new(InvertMapper, EmitSortedReducer).config(sort_cfg);
    let sort_res = run_job(&sort_job, vec![search_res.output]);

    GrepResult {
        output: sort_res.output,
        search_stats: search_res.stats,
        sort_stats: sort_res.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;

    #[test]
    fn finds_and_ranks_matches() {
        let input = Bytes::from("the cat data\nthe the dog database\n".to_string());
        let res = run(&input, "the", 16, JobConfig::default().num_reducers(2));
        assert_eq!(res.output[0], ("the".to_string(), 3));
        assert_eq!(res.output.len(), 1, "only exact 'the'-containing words");
    }

    #[test]
    fn substring_matching_includes_longer_words() {
        let input = Bytes::from("data database update\nnothing here\n".to_string());
        let res = run(&input, "data", 64, JobConfig::default());
        let words: Vec<&str> = res.output.iter().map(|(w, _)| w.as_str()).collect();
        assert!(words.contains(&"data"));
        assert!(words.contains(&"database"));
        assert!(!words.contains(&"update"));
    }

    #[test]
    fn output_is_descending_by_count() {
        let input = datagen::text(64 << 10, 6);
        let res = run(&input, "w0", 16 << 10, JobConfig::default().num_reducers(2));
        let counts: Vec<u64> = res.output.iter().map(|(_, c)| *c).collect();
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "must be sorted desc"
        );
        assert!(res.output.len() > 5, "zipf tail words w0xx must match");
    }

    #[test]
    fn search_job_is_selective() {
        // Grep's map output is much smaller than its input — opposite of
        // WordCount — because only matches are emitted.
        let input = datagen::text(64 << 10, 7);
        let res = run(&input, "w01", 16 << 10, JobConfig::default());
        assert!(res.search_stats.map_selectivity() < 0.3);
        assert!(res.sort_stats.map_input_bytes < res.search_stats.map_input_bytes / 10);
    }
}
