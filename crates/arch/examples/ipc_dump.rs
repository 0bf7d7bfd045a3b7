use hhsim_arch::{presets, ComputeProfile, Frequency};
fn main() {
    let f = Frequency::GHZ_1_8;
    for m in presets::both() {
        for p in [
            ComputeProfile::spec_average(),
            ComputeProfile::parsec_average(),
            ComputeProfile::hadoop_average(),
        ] {
            // One trace simulation per row; IPC and CPI derive from it.
            let (oc, dn) = m.stall_split(&p);
            let cpi = m.cpi_with_stalls(&p, f, oc, dn);
            println!(
                "{:<22} {:<12} ipc={:.3} on_chip={:.2}cyc dram={:.2}ns cpi={:.3}",
                m.name,
                p.name,
                1.0 / cpi,
                oc,
                dn,
                cpi
            );
        }
    }
}
