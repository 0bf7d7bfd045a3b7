//! Naive Bayes (NB) — Mahout-style distributed training of a multinomial
//! Naive Bayes classifier (the paper's "real world" classification
//! workload). The MapReduce job accumulates per-(class, term) counts and
//! per-class document counts; the driver assembles a [`NaiveBayesModel`]
//! that can classify held-out documents.

#![expect(
    clippy::disallowed_types,
    reason = "workload-internal tables: the MapReduce engine key-sorts all emitted pairs before they reach any simulation output, so hash iteration order cannot leak"
)]

use std::collections::HashMap;

use bytes::Bytes;
use hhsim_mapreduce::{
    run_job, text_splits_from_bytes, Emitter, JobConfig, JobResult, JobSpec, Line, Mapper, Reducer,
    Text,
};

/// Counter key: either a (class, term) pair or a per-class document count
/// (encoded with the reserved term `"\u{1}doc"`, which cannot tokenize).
pub type CountKey = (Text, Text);

const DOC_MARK: &str = "\u{1}doc";

/// Emits `((class, term), 1)` per token and `((class, DOC)), 1)` per doc.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainMapper;

impl Mapper for TrainMapper {
    type KIn = u64;
    type VIn = Line;
    type KOut = CountKey;
    type VOut = u64;
    fn map(&mut self, _offset: &u64, line: &Line, out: &mut Emitter<CountKey, u64>) {
        let Some((label, text)) = line.as_str().split_once('\t') else {
            return;
        };
        let label = Text::from(label);
        out.emit((label.clone(), Text::from(DOC_MARK)), 1);
        for w in text.split_whitespace() {
            out.emit((label.clone(), Text::from(w)), 1);
        }
    }
}

/// Sums counters; the training job's combiner and reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSumReducer;

impl Reducer for CountSumReducer {
    type KIn = CountKey;
    type VIn = u64;
    type KOut = CountKey;
    type VOut = u64;
    fn reduce(&mut self, key: &CountKey, values: &[u64], out: &mut Emitter<CountKey, u64>) {
        out.emit(key.clone(), values.iter().sum());
    }
}

/// A trained multinomial Naive Bayes model.
#[derive(Debug, Clone, Default)]
pub struct NaiveBayesModel {
    /// Documents per class.
    pub class_docs: HashMap<String, u64>,
    /// Term counts per (class, term).
    pub term_counts: HashMap<(String, String), u64>,
    /// Total tokens per class.
    pub class_tokens: HashMap<String, u64>,
    /// Vocabulary size (distinct terms across classes).
    pub vocabulary: u64,
}

impl NaiveBayesModel {
    /// Assembles a model from the training job's output counters.
    pub fn from_counts(counts: &[(CountKey, u64)]) -> Self {
        let mut model = NaiveBayesModel::default();
        let mut vocab = std::collections::BTreeSet::new();
        for ((class, term), n) in counts {
            let (class, term) = (class.as_str(), term.as_str());
            if term == DOC_MARK {
                *model.class_docs.entry(class.to_owned()).or_insert(0) += n;
            } else {
                vocab.insert(term);
                *model.class_tokens.entry(class.to_owned()).or_insert(0) += n;
                *model
                    .term_counts
                    .entry((class.to_owned(), term.to_owned()))
                    .or_insert(0) += n;
            }
        }
        model.vocabulary = vocab.len() as u64;
        model
    }

    /// Classifies a document by maximum log-posterior with Laplace
    /// smoothing. Returns `None` on an untrained model.
    pub fn classify(&self, text: &str) -> Option<String> {
        if self.class_docs.is_empty() {
            return None;
        }
        let total_docs: u64 = self.class_docs.values().sum();
        let mut best: Option<(f64, &String)> = None;
        let mut classes: Vec<&String> = self.class_docs.keys().collect();
        classes.sort(); // deterministic tie-break
        for class in classes {
            let prior = (*self.class_docs.get(class).expect("key from map") as f64
                / total_docs as f64)
                .ln();
            let tokens = *self.class_tokens.get(class).unwrap_or(&0) as f64;
            let denom = tokens + self.vocabulary as f64;
            let mut score = prior;
            for w in text.split_whitespace() {
                let c = *self
                    .term_counts
                    .get(&(class.clone(), w.to_string()))
                    .unwrap_or(&0) as f64;
                score += ((c + 1.0) / denom).ln();
            }
            if best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, class));
            }
        }
        best.map(|(_, c)| c.clone())
    }
}

/// Trained model plus the training job's statistics.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The assembled classifier.
    pub model: NaiveBayesModel,
    /// MapReduce dataflow statistics of training.
    pub result: JobResult<CountKey, u64>,
}

/// Runs the training job over labeled documents ("label\tword word ..."):
/// the counters a model is assembled from, and the job's statistics.
pub fn train_job(input: &Bytes, block_bytes: u64, cfg: JobConfig) -> JobResult<CountKey, u64> {
    let splits = text_splits_from_bytes(input, block_bytes);
    let job = JobSpec::new(TrainMapper, CountSumReducer)
        .config(cfg)
        .combiner(CountSumReducer);
    run_job(&job, splits)
}

/// Trains Naive Bayes over labeled documents: [`train_job`], then the
/// model assembled from its counters.
pub fn train(input: &Bytes, block_bytes: u64, cfg: JobConfig) -> TrainResult {
    let result = train_job(input, block_bytes, cfg);
    let model = NaiveBayesModel::from_counts(&result.output);
    TrainResult { model, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;

    #[test]
    fn learns_separable_classes() {
        let input = Bytes::from(
            "spam\tbuy pills now buy\nham\tmeeting agenda notes\n\
             spam\tbuy now cheap pills\nham\tproject meeting notes agenda\n"
                .to_string(),
        );
        let t = train(&input, 64, JobConfig::default().num_reducers(2));
        assert_eq!(t.model.classify("buy cheap pills").as_deref(), Some("spam"));
        assert_eq!(
            t.model.classify("agenda for meeting").as_deref(),
            Some("ham")
        );
    }

    #[test]
    fn model_counts_are_exact() {
        let input = Bytes::from("a\tx x y\nb\tz\na\ty\n".to_string());
        let t = train(&input, 1024, JobConfig::default());
        assert_eq!(t.model.class_docs["a"], 2);
        assert_eq!(t.model.class_docs["b"], 1);
        assert_eq!(t.model.term_counts[&("a".into(), "x".into())], 2);
        assert_eq!(t.model.class_tokens["a"], 4);
        assert_eq!(t.model.vocabulary, 3);
    }

    #[test]
    fn synthetic_corpus_classifies_above_chance() {
        let input = datagen::labeled_docs(128 << 10, 3, 9);
        let t = train(&input, 32 << 10, JobConfig::default().num_reducers(3));
        // Held-out docs from the same generator, different seed.
        let test = datagen::labeled_docs(8 << 10, 3, 10);
        let text = String::from_utf8(test.to_vec()).unwrap();
        let mut right = 0;
        let mut total = 0;
        for line in text.lines() {
            let (label, doc) = line.split_once('\t').unwrap();
            total += 1;
            if t.model.classify(doc).as_deref() == Some(label) {
                right += 1;
            }
        }
        let acc = right as f64 / total as f64;
        assert!(acc > 0.55, "accuracy {acc} barely above 1/3 chance");
    }

    #[test]
    fn untrained_model_returns_none() {
        assert_eq!(NaiveBayesModel::default().classify("x"), None);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let input = Bytes::from("no-tab-here\nspam\tbuy\n".to_string());
        let t = train(&input, 1024, JobConfig::default());
        assert_eq!(t.model.class_docs.len(), 1);
    }
}
