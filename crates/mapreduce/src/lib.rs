//! A functional MapReduce engine faithful to Hadoop's dataflow.
//!
//! This crate really executes MapReduce jobs — mappers emit, buffers spill
//! when `io.sort.mb` fills, spills are sorted, combined and merged with
//! `io.sort.factor`-way passes, partitions shuffle to reducers, reducers
//! merge and group — over real in-memory data. Every structural statistic
//! the paper's timing analysis depends on (map output volume, spill count,
//! merge passes, shuffle bytes) falls out of the execution and is reported
//! in [`JobStats`].
//!
//! There is one runner, [`run_job`] (and [`run_map_only_job`] for jobs
//! without a reduce phase): tasks execute one after another on the calling
//! thread, so output and statistics are deterministic by construction.
//! *Simulated* wall-clock parallelism is the job of the discrete-event
//! cluster simulator layered above, which replays these statistics
//! against a machine model.
//!
//! # Examples
//!
//! A minimal word count:
//!
//! ```
//! use hhsim_mapreduce::{Emitter, JobConfig, JobSpec, Mapper, Reducer, run_job};
//!
//! #[derive(Clone)]
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type KIn = u64;
//!     type VIn = String;
//!     type KOut = String;
//!     type VOut = u64;
//!     fn map(&mut self, _k: &u64, line: &String, out: &mut Emitter<String, u64>) {
//!         for w in line.split_whitespace() {
//!             out.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! #[derive(Clone)]
//! struct Sum;
//! impl Reducer for Sum {
//!     type KIn = String;
//!     type VIn = u64;
//!     type KOut = String;
//!     type VOut = u64;
//!     fn reduce(&mut self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
//!         out.emit(k.clone(), vs.iter().sum());
//!     }
//! }
//!
//! let splits = vec![vec![(0u64, "a b a".to_string())], vec![(0u64, "b a".to_string())]];
//! let result = run_job(
//!     &JobSpec::new(Tokenize, Sum).config(JobConfig::default().num_reducers(2)),
//!     splits,
//! );
//! let mut out = result.output;
//! out.sort();
//! assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2)]);
//! ```

// Every lossy `as` cast in shipped code names why it cannot lose bits,
// in an `#[expect]` at the site (test code is exempt).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod config;
mod emit;
mod engine;
mod input;
mod kv;
mod merge;
mod partition;
mod phase;
mod stats;
mod task;

pub use config::JobConfig;
pub use emit::Emitter;
pub use engine::{run_job, run_map_only_job, JobResult, JobSpec};
pub use input::{text_splits_from_bytes, TextSplit};
pub use kv::{Datum, Line, Text};
pub use partition::{hash_partition, range_partition, Partitioner};
pub use phase::{Phase, PhaseBreakdown};
pub use stats::JobStats;
pub use task::{Combiner, IdentityMapper, IdentityReducer, Mapper, Reducer};
