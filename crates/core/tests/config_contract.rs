//! The config contract, row by row: every hostile config below used to
//! panic, abort, hang or price a silently wrong number, and now comes back
//! from `SimConfig::run` as its typed error. The last row is the control:
//! every shipped trace config, and a default config per app, runs. A stall
//! split declared into a plan on its own is held to the same machine
//! checks, plus its memory profile's.

use std::mem::discriminant;

use hhsim_core::accel::AccelConfig;
use hhsim_core::arch::cache::{MAX_LINES, MAX_WAYS};
use hhsim_core::arch::{presets, CacheConfig, ComputeProfile, MachineModel, MemoryProfile};
use hhsim_core::faults::{DomainConfig, FaultConfig, PhaseError};
use hhsim_core::harness::Plan;
use hhsim_core::hdfs::Topology;
use hhsim_core::workloads::AppId;
use hhsim_core::{ConfigError, NodeMix, PlacementKind, Reading, SimCache, SimConfig, SimError};

/// The paper's default point: WordCount on three Xeons, 1 GB per node.
fn base() -> SimConfig {
    SimConfig::new(AppId::WordCount, presets::xeon_e5_2420())
}

fn faulty(fc: FaultConfig) -> SimConfig {
    base().faults(fc)
}

fn racked(t: Topology) -> SimConfig {
    base().topology(t)
}

/// The base point with its Xeon's L2 (256 KiB, 8 ways, 64-byte lines)
/// edited.
fn with_l2(edit: impl FnOnce(&mut CacheConfig)) -> SimConfig {
    let mut cfg = base();
    edit(&mut cfg.machine.cache_levels.to_mut()[1]);
    cfg
}

fn with_dram_ns(ns: f64) -> SimConfig {
    let mut cfg = base();
    cfg.machine.mem_latency_ns = ns;
    cfg
}

fn mix(big: usize, little: usize) -> NodeMix {
    NodeMix {
        big,
        little,
        placement: PlacementKind::FifoAny,
    }
}

fn out_of_range(field: &'static str) -> SimError {
    SimError::Config(ConfigError::OutOfRange { field })
}

/// One hostile config: what it is, the reading it is run with, and the
/// error it must come back as. An `Unrecoverable` row matches on the
/// kind of phase error, not on which task or how many.
struct Row {
    case: &'static str,
    cfg: SimConfig,
    reading: Reading,
    want: SimError,
}

fn row(case: &'static str, cfg: SimConfig, want: impl Into<SimError>) -> Row {
    Row {
        case,
        cfg,
        reading: Reading::Auto,
        want: want.into(),
    }
}

fn rows() -> Vec<Row> {
    let accel = AccelConfig::fpga(50.0);
    let mut no_nodes = base();
    no_nodes.nodes = 0;
    let mut four_nodes = base().data_per_node(1 << 62);
    four_nodes.nodes = 4;
    let mut no_cores = base();
    no_cores.machine.num_cores = 0;
    let mut no_memory = base();
    no_memory.machine.memory_gb = f64::NAN;
    let mut one_way_merge = base();
    one_way_merge.job.merge_factor = 1;
    let mut no_sort_buffer = base();
    no_sort_buffer.job.sort_buffer_bytes = 0;
    let mut no_cache = base();
    no_cache.machine.cache_levels.to_mut().clear();
    let levels = "machine.cache_levels";
    let four_racks = Topology::racked(4, 4.0);
    let per_node = |case, reading| Row {
        case,
        cfg: base().accelerator(accel),
        reading,
        want: ConfigError::AccelNeedsPhaseAverage.into(),
    };
    vec![
        row("nodes = 0", no_nodes, ConfigError::NoNodes),
        row("an empty mix", base().mix(mix(0, 0)), ConfigError::NoNodes),
        row("no input", base().data_per_node(0), ConfigError::NoData),
        row("4 EiB a node on 4 nodes", four_nodes, ConfigError::TooLarge),
        row(
            "u64::MAX bytes a node",
            base().data_per_node(u64::MAX),
            ConfigError::TooLarge,
        ),
        // Three nodes of these are u32::MAX slots: the one slot id the
        // engine's u32 columns keep for "none".
        row(
            "u32::MAX slots",
            base().mappers(1_431_655_765),
            ConfigError::TooLarge,
        ),
        row("a machine without cores", no_cores, ConfigError::NoCores),
        row("mappers(0)", base().mappers(0), ConfigError::NoSlots),
        row(
            "offload on a mix",
            base().accelerator(accel).mix(mix(1, 2)),
            ConfigError::AccelNeedsPhaseAverage,
        ),
        row(
            "offload under faults",
            base()
                .accelerator(accel)
                .faults(FaultConfig::none().failure_rates(0.06, 0.0)),
            ConfigError::AccelNeedsPhaseAverage,
        ),
        row(
            "offload on racks",
            base().accelerator(accel).topology(four_racks),
            ConfigError::AccelNeedsPhaseAverage,
        ),
        per_node("offload read per node", Reading::PerNode),
        per_node("offload traced", Reading::Traced),
        row(
            "NaN map failure rate",
            faulty(FaultConfig::none().failure_rates(f64::NAN, 0.0)),
            out_of_range("faults.map_failure_rate"),
        ),
        row(
            "negative reduce failure rate",
            faulty(FaultConfig::none().failure_rates(0.0, -0.5)),
            out_of_range("faults.reduce_failure_rate"),
        ),
        row(
            "infinite straggler slowdown",
            faulty(FaultConfig::none().stragglers(0.4, f64::INFINITY)),
            out_of_range("faults.straggler_slowdown"),
        ),
        row(
            "NaN straggler slowdown",
            faulty(FaultConfig::none().stragglers(0.4, f64::NAN)),
            out_of_range("faults.straggler_slowdown"),
        ),
        row(
            "zero node MTTF",
            faulty(FaultConfig::none().node_mttf(0.0)),
            out_of_range("faults.node_mttf_s"),
        ),
        row(
            "NaN node MTTF",
            faulty(FaultConfig::none().node_mttf(f64::NAN)),
            out_of_range("faults.node_mttf_s"),
        ),
        row(
            "negative node MTTF",
            faulty(FaultConfig::none().node_mttf(-1.0)),
            out_of_range("faults.node_mttf_s"),
        ),
        row(
            "node links without bandwidth",
            racked(Topology {
                node_bytes_per_s: 0.0,
                ..four_racks
            }),
            out_of_range("topology.node_bytes_per_s"),
        ),
        row(
            "NaN oversubscription",
            racked(Topology {
                oversubscription: f64::NAN,
                ..four_racks
            }),
            out_of_range("topology.oversubscription"),
        ),
        row(
            "an active fabric without racks",
            racked(Topology {
                racks: 0,
                ..four_racks
            }),
            out_of_range("topology.racks"),
        ),
        row(
            "switch crashes over 3 failure domains on a 4-rack fabric",
            racked(four_racks).faults(
                FaultConfig::none().domains(DomainConfig::none().racks(3).switch_mttf(3600.0)),
            ),
            out_of_range("faults.domains.racks"),
        ),
        row("NaN memory", no_memory, out_of_range("machine.memory_gb")),
        row("no cache level", no_cache, out_of_range(levels)),
        row(
            "a 0-way L2",
            with_l2(|c| c.associativity = 0),
            out_of_range(levels),
        ),
        row(
            "an L2 one way wider than the kernel table",
            with_l2(|c| {
                c.associativity = MAX_WAYS + 1;
                c.size_bytes = 128 * (MAX_WAYS + 1) * 64;
            }),
            out_of_range(levels),
        ),
        row(
            "48-byte L2 lines",
            with_l2(|c| c.line_bytes = 48),
            out_of_range(levels),
        ),
        row(
            "1-byte L2 lines, whose all-ones tag is the empty way",
            with_l2(|c| c.line_bytes = 1),
            out_of_range(levels),
        ),
        row(
            "an L2 of 512 and a half sets",
            with_l2(|c| c.size_bytes = 256 * 1024 + 256),
            out_of_range(levels),
        ),
        row(
            "an L2 of more lines than the kernel holds",
            with_l2(|c| c.size_bytes = 2 * MAX_LINES * 64),
            out_of_range(levels),
        ),
        row(
            "NaN L2 latency",
            with_l2(|c| c.latency_cycles = f64::NAN),
            out_of_range(levels),
        ),
        row(
            "no DRAM latency",
            with_dram_ns(0.0),
            out_of_range("machine.mem_latency_ns"),
        ),
        row(
            "NaN DRAM latency",
            with_dram_ns(f64::NAN),
            out_of_range("machine.mem_latency_ns"),
        ),
        row(
            "a 1-way merge",
            one_way_merge,
            out_of_range("job.merge_factor"),
        ),
        row(
            "no sort buffer",
            no_sort_buffer,
            out_of_range("job.sort_buffer_bytes"),
        ),
        row(
            "NaN offload rate",
            base().accelerator(AccelConfig {
                rate: f64::NAN,
                ..accel
            }),
            out_of_range("accel.rate"),
        ),
        row(
            "every attempt fails",
            faulty(FaultConfig::none().failure_rates(1.0, 0.0)),
            PhaseError::AttemptsExhausted {
                task: 0,
                attempts: 0,
            },
        ),
        row(
            "every node crashes at once",
            faulty(FaultConfig::none().seed(7).node_mttf(1e-3)),
            PhaseError::NoUsableSlots { pending: 0 },
        ),
    ]
}

/// Equal configuration errors, or unrecoverable runs of the same kind.
fn matches(got: &SimError, want: &SimError) -> bool {
    match (got, want) {
        (SimError::Unrecoverable(g), SimError::Unrecoverable(w)) => {
            discriminant(g) == discriminant(w)
        }
        _ => got == want,
    }
}

#[test]
fn hostile_configs_return_their_typed_errors() {
    let cache = SimCache::new();
    for Row {
        case,
        cfg,
        reading,
        want,
    } in rows()
    {
        match cfg.run(&cache, reading) {
            Err(got) => assert!(matches(&got, &want), "{case}: {got:?}, want {want:?}"),
            Ok((m, _)) => panic!("{case}: ran to {} s, want {want:?}", m.breakdown.total()),
        }
    }
    // The control row: what the artifacts ship runs through the same
    // door. Each on a thread of its own — the memo dedupes what they share.
    let traces = (hhsim_bench::TRACES.iter()).map(|(_, cfg)| (cfg(), Reading::Traced));
    let defaults = (AppId::ALL.into_iter())
        .map(|app| (SimConfig::new(app, presets::atom_c2758()), Reading::Auto));
    let control: Vec<(SimConfig, Reading)> = traces.chain(defaults).collect();
    std::thread::scope(|s| {
        for (cfg, reading) in &control {
            let cache = &cache;
            s.spawn(move || {
                if let Err(e) = cfg.run(cache, *reading) {
                    panic!("{} on {}: {e}", cfg.app, cfg.machine.name);
                }
            });
        }
    });
}

/// A stall split declared into a plan on its own ([`Plan::split`]) meets
/// the contract a roster's machine does — levels a cache can simulate, a
/// DRAM latency — plus a valid memory profile. Each row used to panic
/// inside the fill; now its `cpi` is the typed error, and the plan's
/// other entries run.
#[test]
fn hostile_splits_return_their_typed_errors() {
    let good = presets::atom_c2758();
    let profile = ComputeProfile::hadoop_average();
    let edited = |edit: fn(&mut MachineModel)| {
        let mut m = good.clone();
        edit(&mut m);
        m
    };
    let with_mem = |edit: fn(&mut MemoryProfile)| {
        let mut p = profile.clone();
        edit(&mut p.mem);
        p
    };
    let levels = out_of_range("machine.cache_levels");
    let mem = out_of_range("profile.mem");
    let rows = [
        (
            "a 0-way L2",
            edited(|m| m.cache_levels.to_mut()[1].associativity = 0),
            profile.clone(),
            levels,
        ),
        (
            "48-byte L1 lines",
            edited(|m| m.cache_levels.to_mut()[0].line_bytes = 48),
            profile.clone(),
            levels,
        ),
        (
            "no cache level",
            edited(|m| m.cache_levels.to_mut().clear()),
            profile.clone(),
            levels,
        ),
        (
            "NaN DRAM latency",
            edited(|m| m.mem_latency_ns = f64::NAN),
            profile.clone(),
            out_of_range("machine.mem_latency_ns"),
        ),
        (
            "hot fraction 2",
            good.clone(),
            with_mem(|m| m.hot_fraction = 2.0),
            mem,
        ),
        (
            "no working set",
            good.clone(),
            with_mem(|m| m.working_set_bytes = 0),
            mem,
        ),
        (
            "NaN accesses",
            good.clone(),
            with_mem(|m| m.accesses_per_instr = f64::NAN),
            mem,
        ),
    ];
    let mut plan = Plan::new();
    let control = plan.split(good.clone(), profile.clone());
    let hostile: Vec<_> = (rows.into_iter())
        .map(|(case, m, p, want)| (case, plan.split(m, p), want))
        .collect();
    let cache = SimCache::new();
    let ran = plan.run_on(2, &cache);
    let f = hhsim_core::arch::Frequency::GHZ_1_8;
    for (case, split, want) in hostile {
        assert_eq!(ran.cpi(split, f), Err(want), "{case}");
    }
    let (on_chip, dram_ns) = good.stall_split(&profile);
    assert_eq!(
        ran.cpi(control, f),
        Ok(good.cpi_with_stalls(&profile, f, on_chip, dram_ns))
    );
    assert_eq!(cache.stats().stall_entries, 1, "the control's entry only");
}
