//! The 30 stall splits a regeneration runs (both presets x the 15 shipped
//! profiles), pinned bit for bit: each level's miss count and the
//! `to_bits()` of both split components, recorded from the one-machine,
//! one-trace simulation before the batched fill existed. Every stall path
//! is held to it: `MachineModel::stall_split`, a `StallBatch` of both
//! presets, and the memo after a plan's fill stage.
//!
//! A change that moves a miss fails here naming the machine, the profile
//! and the level, before fig1 or any artifact moves.

use hhsim_core::arch::{presets, CacheHierarchy, ComputeProfile, MachineModel, StallBatch};
use hhsim_core::harness::Plan;
use hhsim_core::workloads::AppId;
use hhsim_core::SimCache;

/// (machine, profile, misses per level innermost first, on-chip stall
/// cycles per access bits, DRAM stall ns per access bits).
type Row = (&'static str, &'static str, &'static [u64], u64, u64);

const GOLDEN: [Row; 30] = [
    (
        "Intel Xeon E5-2420",
        "SPEC2006-avg",
        &[7245, 7192, 7164],
        0x3fee451eb851eb85,
        0x3ff2a05bc01a36e3,
    ),
    (
        "Intel Xeon E5-2420",
        "PARSEC-avg",
        &[12214, 11283, 10898],
        0x3ff840be0ded288d,
        0x3ffc55b573eab368,
    ),
    (
        "Intel Xeon E5-2420",
        "Hadoop-avg",
        &[87222, 15142, 15120],
        0x4012c2f4f0d844d0,
        0x4003a7ef9db22d0e,
    ),
    (
        "Intel Xeon E5-2420",
        "WC-map",
        &[24127, 13930, 13882],
        0x4001af837b4a233a,
        0x40020bedfa43fe5d,
    ),
    (
        "Intel Xeon E5-2420",
        "WC-reduce",
        &[174972, 51740, 50879],
        0x4026d2fb7e90ff97,
        0x40208921ff2e48e9,
    ),
    (
        "Intel Xeon E5-2420",
        "ST-map",
        &[26911, 26779, 26365],
        0x400c285532617c1c,
        0x40112322d0e56042,
    ),
    (
        "Intel Xeon E5-2420",
        "ST-reduce",
        &[201719, 91408, 88942],
        0x4030224b5dcc63f1,
        0x402ce7f972474539,
    ),
    (
        "Intel Xeon E5-2420",
        "GP-map",
        &[16358, 16336, 16278],
        0x400128ce703afb7f,
        0x4005295182a9930c,
    ),
    (
        "Intel Xeon E5-2420",
        "GP-reduce",
        &[191471, 74315, 72449],
        0x402c4b5cfaacd9e8,
        0x40278bc1bda5119d,
    ),
    (
        "Intel Xeon E5-2420",
        "TS-map",
        &[32081, 24131, 23883],
        0x400bb8f9096bb98c,
        0x400f0c432ca57a78,
    ),
    (
        "Intel Xeon E5-2420",
        "TS-reduce",
        &[184837, 64800, 64046],
        0x402a034538ef34d7,
        0x4024d0a0902de00d,
    ),
    (
        "Intel Xeon E5-2420",
        "NB-map",
        &[78775, 19995, 19961],
        0x4013507ae147ae14,
        0x4009f305532617c2,
    ),
    (
        "Intel Xeon E5-2420",
        "NB-reduce",
        &[197670, 84516, 82082],
        0x402eac083126e979,
        0x402aad38ef34d6a1,
    ),
    (
        "Intel Xeon E5-2420",
        "FP-map",
        &[133966, 22522, 22494],
        0x401c8a6809d49518,
        0x400d3e00d1b71759,
    ),
    (
        "Intel Xeon E5-2420",
        "FP-reduce",
        &[180192, 58187, 57719],
        0x40286ca9930be0df,
        0x4022c23886594af5,
    ),
    (
        "Intel Atom C2758",
        "SPEC2006-avg",
        &[7409, 7164],
        0x3fd930cb295e9e1b,
        0x3ffa81bda5119ce0,
    ),
    (
        "Intel Atom C2758",
        "PARSEC-avg",
        &[33830, 10898],
        0x3ffcc16872b020c5,
        0x4004294af4f0d845,
    ),
    (
        "Intel Atom C2758",
        "Hadoop-avg",
        &[133163, 15120],
        0x401c4c113404ea4b,
        0x400bf8d4fdf3b646,
    ),
    (
        "Intel Atom C2758",
        "WC-map",
        &[72943, 13882],
        0x400f0032ca57a787,
        0x4009ae83e425aee6,
    ),
    (
        "Intel Atom C2758",
        "WC-reduce",
        &[192923, 50892],
        0x40247f816f0068dc,
        0x4027899ce075f6fd,
    ),
    (
        "Intel Atom C2758",
        "ST-map",
        &[31635, 26365],
        0x3ffae3c6a7ef9db2,
        0x4018633b645a1cac,
    ),
    (
        "Intel Atom C2758",
        "ST-reduce",
        &[213156, 89079],
        0x4026a5d7dbf487fd,
        0x4034997a0f9096bc,
    ),
    (
        "Intel Atom C2758",
        "GP-map",
        &[17696, 16278],
        0x3fee154c985f06f7,
        0x400e1d42c3c9eecc,
    ),
    (
        "Intel Atom C2758",
        "GP-reduce",
        &[205255, 72586],
        0x4025ceef9db22d0e,
        0x4030c91758e21965,
    ),
    (
        "Intel Atom C2758",
        "TS-map",
        &[63609, 23883],
        0x400b08a8c154c986,
        0x4016177e90ff9724,
    ),
    (
        "Intel Atom C2758",
        "TS-reduce",
        &[200337, 64077],
        0x4025492a9930be0e,
        0x402da2b780346dc6,
    ),
    (
        "Intel Atom C2758",
        "NB-map",
        &[128505, 19961],
        0x401b4eac083126e9,
        0x401276c3c9eecbfb,
    ),
    (
        "Intel Atom C2758",
        "NB-reduce",
        &[210178, 82283],
        0x402654d77318fc50,
        0x40330727525460aa,
    ),
    (
        "Intel Atom C2758",
        "FP-map",
        &[173279, 22494],
        0x402269305532617c,
        0x4014ce94467381d8,
    ),
    (
        "Intel Atom C2758",
        "FP-reduce",
        &[196787, 57727],
        0x4024e89b3d07c84b,
        0x402ab2e075f6fd22,
    ),
];

/// The 15 shipped profiles: the three suite averages, then each app's map
/// and reduce profile.
fn profiles() -> Vec<ComputeProfile> {
    let mut profiles = vec![
        ComputeProfile::spec_average(),
        ComputeProfile::parsec_average(),
        ComputeProfile::hadoop_average(),
    ];
    for app in AppId::ALL {
        profiles.push(app.map_profile());
        profiles.push(app.reduce_profile());
    }
    profiles
}

/// Every (machine, profile) pair with its golden row, in table order.
fn pairs() -> Vec<(MachineModel, ComputeProfile, &'static Row)> {
    let profiles = profiles();
    let pairs: Vec<_> = presets::both()
        .into_iter()
        .flat_map(|m| profiles.iter().map(move |p| (m.clone(), p.clone())))
        .zip(&GOLDEN)
        .map(|((m, p), row)| (m, p, row))
        .collect();
    assert_eq!(pairs.len(), GOLDEN.len());
    for (m, p, &(machine, profile, ..)) in &pairs {
        assert_eq!((&*m.name, &*p.name), (machine, profile));
    }
    pairs
}

fn assert_split(what: &str, (on_chip, dram_ns): (f64, f64), row: &Row) {
    let &(machine, profile, _, want_on_chip, want_dram_ns) = row;
    assert_eq!(
        (on_chip.to_bits(), dram_ns.to_bits()),
        (want_on_chip, want_dram_ns),
        "{what}: {machine} / {profile}: split ({on_chip}, {dram_ns})"
    );
}

/// `h`'s misses per level and accesses, and its split, against `row`.
fn assert_simulated(what: &str, h: &CacheHierarchy, row: &Row) {
    let stats = h.stats();
    let misses: Vec<u64> = stats.levels.iter().map(|(_, l)| l.misses()).collect();
    assert_eq!(
        misses, row.2,
        "{what}: {} / {}: misses per level",
        row.0, row.1
    );
    assert_eq!(
        stats.total_accesses, 320_000,
        "{what}: {} / {}",
        row.0, row.1
    );
    assert_split(what, h.stall_split_per_access(), row);
}

#[test]
fn one_machine_at_a_time_matches_the_golden_table() {
    for (m, p, row) in pairs() {
        assert_simulated("one machine", &StallBatch::default().run(&p, &[&m])[0], row);
        assert_split("stall_split", m.stall_split(&p), row);
    }
}

#[test]
fn one_trace_per_profile_matches_the_golden_table() {
    let [xeon, atom] = presets::both();
    let mut batch = StallBatch::default();
    let pairs = pairs();
    let (on_xeon, on_atom) = pairs.split_at(GOLDEN.len() / 2);
    for ((_, p, x_row), (_, _, a_row)) in on_xeon.iter().zip(on_atom) {
        let ran = batch.run(p, &[&xeon, &atom]);
        for (h, row) in ran.iter().zip([x_row, a_row]) {
            assert_simulated("StallBatch", h, row);
        }
    }
}

#[test]
fn the_filled_memo_matches_the_golden_table() {
    let pairs = pairs();
    let mut plan = Plan::new();
    for (m, p, _) in &pairs {
        plan.split(m.clone(), p.clone());
    }
    let cache = SimCache::new();
    plan.run_on(2, &cache);
    let filled = cache.stats();
    assert_eq!((filled.stall_entries, filled.misses), (30, 30));
    for (m, p, row) in &pairs {
        assert_split("SimCache", cache.stall_split(m, p), row);
    }
    assert_eq!(cache.stats().stall_entries, 30, "every lookup a hit");
}
