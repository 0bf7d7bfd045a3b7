//! The analytic half of the model: what one task of one chained job costs
//! on one machine model.

use hhsim_arch::{ComputeProfile, Frequency, MachineModel};
use hhsim_hdfs::{DiskModel, GIGE_BYTES_PER_S};

use super::config::SimConfig;
use super::prep::KindPrep;
use crate::cluster::Cluster;
use crate::ratios::JobRatios;

/// Replication factor charged on final output writes.
const OUTPUT_REPLICATION: f64 = 2.0;

/// Seconds of CPU time for `instructions` of `profile` on `machine` at
/// `f`, using memoizable stalls.
pub(super) fn cpu_seconds(
    machine: &MachineModel,
    profile: &ComputeProfile,
    stalls: (f64, f64),
    f: Frequency,
    instructions: f64,
) -> f64 {
    instructions * machine.cpi_with_stalls(profile, f, stalls.0, stalls.1) / f.hz()
}

/// Per-task timing of one chained job's phases on one machine model.
#[derive(Debug, Clone, Copy)]
pub(super) struct JobTiming {
    pub(super) map_task_s: f64,
    pub(super) red_task_s: f64,
    pub(super) map_io_task: f64,
    pub(super) red_io_task: f64,
    pub(super) n_map: usize,
    pub(super) n_red: usize,
    /// Bytes one map task reads — what a non-local read moves over the
    /// network when a topology is active.
    pub(super) map_task_bytes: f64,
    /// Bytes one reduce task pulls in the shuffle — the contended-shuffle
    /// engine's per-reducer demand.
    pub(super) red_input_bytes: f64,
}

/// Prices one chained job's map and reduce tasks on `kind`'s machine —
/// the analytic half of the model. Wave scheduling of the resulting tasks
/// is the cluster engine's job. Task counts (`n_map`, `n_red`) depend
/// only on data volume and cluster shape, never on the machine, so
/// heterogeneous clusters can price the same task list per node kind.
/// The kind's slots per node set the task streams; its stall splits of
/// `map_prof` and `red_prof` price the CPU time.
pub(super) fn job_timing(
    kind: KindPrep<'_>,
    cluster: &Cluster,
    cfg: &SimConfig,
    disk: &DiskModel,
    job: &JobRatios,
    map_prof: &ComputeProfile,
    red_prof: &ComputeProfile,
) -> JobTiming {
    let (f, jobcfg, data_per_node_bytes) = (cfg.frequency, &cfg.job, cfg.data_per_node_bytes);
    let block = cfg.block_size.bytes();
    let (nodes, total_slots) = (cluster.nodes.len(), cluster.total_slots());
    let data_total = data_per_node_bytes * nodes as u64;
    let KindPrep { m, slots, .. } = kind;
    let [map_stalls, red_stalls, _] = kind.stalls;

    // ------------------------------------------------------------------
    // Map phase of this job.
    // ------------------------------------------------------------------
    let job_input = (data_total as f64 * job.input_fraction).max(1.0);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a whole number of blocks, positive and far below usize::MAX"
    )]
    let n_map = ((job_input / block as f64).ceil() as usize).max(1);
    let task_input = job_input / n_map as f64;

    // Spill/merge structure at target scale. The materialized volume
    // of any spill or merge is capped by the distinct key space when a
    // combiner runs (duplicates collapse), which makes combining far
    // more effective at production buffer sizes than at MB scale.
    let emitted = task_input * job.map_selectivity;
    let spills = (emitted / jobcfg.sort_buffer_bytes as f64).ceil().max(1.0);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`spills` is a whole number of spills, at least 1"
    )]
    let merge_passes = jobcfg.merge_passes(spills as usize) as f64;
    let key_cap_task = job.distinct_key_bytes_at(task_input).max(1.0);
    let (materialized, spill_write) = if job.has_combiner {
        let per_spill = (emitted / spills).min(jobcfg.sort_buffer_bytes as f64);
        // One spill sees only `task_input / spills` of input, so its
        // combiner output is capped by *that slice's* key space.
        let key_cap_spill = job.distinct_key_bytes_at(task_input / spills).max(1.0);
        let spill_out = per_spill.min(key_cap_spill);
        // The combiner reruns during the merge: the final task output
        // is again capped by the whole task's key space.
        (emitted.min(key_cap_task), spills * spill_out)
    } else {
        (emitted * job.combine_ratio, emitted * job.combine_ratio)
    };
    let merge_io = (spill_write + materialized) * merge_passes;

    let map_io_bytes = task_input + spill_write + merge_io;
    let t_cpu_map = cpu_seconds(
        m,
        map_prof,
        map_stalls,
        f,
        task_input * map_prof.instr_per_byte,
    ) + m.core.io_path_seconds(map_io_bytes, f);

    let map_streams = slots.min(n_map.div_ceil(nodes)).max(1);
    let map_concurrency = map_streams as f64;
    // Concurrent task streams interleave on the node disk: the
    // effective sequential chunk shrinks with concurrency — why small
    // blocks hurt I/O-bound jobs most (§3.1.1).
    let read_chunk = (block / map_streams as u64).max(1 << 20);
    let write_chunk = ((32 << 20) / map_streams as u64).max(1 << 20);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a non-negative byte volume of one task, far below u64::MAX; the disk model takes whole bytes"
    )]
    let mut t_disk_map = (disk.read_seconds(task_input as u64, read_chunk)
        + disk.write_seconds((spill_write + merge_io) as u64, write_chunk))
        * map_concurrency;

    // Shuffle/output volumes.
    let shuffle_total = if job.has_reduce {
        materialized * n_map as f64
    } else {
        0.0
    };
    let output_total = if job.has_combiner {
        (job_input * job.output_selectivity).min(job.distinct_key_bytes_at(job_input) * 2.0)
    } else {
        job_input * job.output_selectivity
    };

    // Map-only jobs write their output from the map task.
    let mut t_cpu_map = t_cpu_map;
    if !job.has_reduce && output_total > 0.0 {
        let out_per_task = output_total / n_map as f64 * OUTPUT_REPLICATION;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a non-negative byte volume of one task, far below u64::MAX; the disk model takes whole bytes"
        )]
        let t_out = disk.write_seconds(out_per_task as u64, write_chunk);
        t_disk_map += t_out * map_concurrency;
        t_cpu_map += m.core.io_path_seconds(out_per_task, f);
    }
    let map_task_s = t_cpu_map + t_disk_map * (1.0 - m.core.io_overlap);

    // ------------------------------------------------------------------
    // Reduce phase of this job.
    // ------------------------------------------------------------------
    let n_red = if job.has_reduce {
        (total_slots / 2).max(1)
    } else {
        0
    };
    let (red_task_s, t_io_red_raw, red_input_bytes) = if n_red > 0 {
        let red_input = shuffle_total / n_red as f64;
        let red_streams = slots.min(n_red.div_ceil(nodes)).max(1);
        let red_concurrency = red_streams as f64;
        // Cross-node shuffle transfer (the local share stays on-node).
        let cross = red_input * (nodes as f64 - 1.0) / nodes as f64;
        let t_net = cross / GIGE_BYTES_PER_S * red_concurrency;
        // Reduce-side merge passes over n_map segments; the final merge
        // feeds the reducer directly.
        let passes = jobcfg.merge_passes(n_map).saturating_sub(1) as f64;
        let merge_bytes = red_input * passes * 2.0;
        let out_bytes = output_total / n_red as f64 * OUTPUT_REPLICATION;
        let io_bytes = red_input + merge_bytes + out_bytes;
        let t_cpu = cpu_seconds(
            m,
            red_prof,
            red_stalls,
            f,
            red_input * red_prof.instr_per_byte,
        ) + m.core.io_path_seconds(io_bytes, f);
        let red_chunk = ((32 << 20) / red_streams as u64).max(1 << 20);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a non-negative byte volume of one task, far below u64::MAX; the disk model takes whole bytes"
        )]
        let t_disk = (disk.write_seconds((merge_bytes + out_bytes) as u64, red_chunk)
            + disk.read_seconds(red_input as u64, red_chunk))
            * red_concurrency;
        let t_io_raw = t_disk + t_net;
        let task_s = t_cpu + t_io_raw * (1.0 - m.core.io_overlap);
        (task_s, t_io_raw, red_input)
    } else {
        (0.0, 0.0, 0.0)
    };

    JobTiming {
        map_task_s,
        red_task_s,
        map_io_task: t_disk_map,
        red_io_task: t_io_red_raw,
        n_map,
        n_red,
        map_task_bytes: task_input,
        red_input_bytes,
    }
}
