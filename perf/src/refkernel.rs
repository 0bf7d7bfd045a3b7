//! Reference kernel: a fixed piece of work timed before and after every
//! pass, so a pass can be reported as a multiple of it (`time_ref`).
//!
//! Host noise on a shared machine is mostly memory-side, so the divisor
//! has to feel it the way the simulator does. The kernel therefore mixes
//! three parts of fixed size — a little integer ALU work, sorting plus
//! ordered-map traffic, and small-string allocation — in the proportions
//! that left the least run-to-run spread across all six workloads; see
//! `perf/README.md` for those measurements. It is single-threaded and
//! allocates nothing that outlives it.

use crate::clock::Stopwatch;
use std::collections::BTreeMap;
use std::hint::black_box;

const ALU_ITERS: u64 = 15_000_000;
const SORT_LEN: usize = 600_000;
const MAP_KEYS: usize = 150_000;
const STRINGS: usize = 350_000;

/// Seconds each part of one kernel run took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefTimes {
    /// Register-only xorshift/multiply loop.
    pub alu_s: f64,
    /// `sort_unstable` over a `Vec<u64>` plus `BTreeMap` inserts and a scan.
    pub mem_s: f64,
    /// Small-string formatting, allocation, sort and drop.
    pub str_s: f64,
}

impl RefTimes {
    /// The whole kernel: the divisor behind `time_ref`.
    pub fn total_s(&self) -> f64 {
        self.alu_s + self.mem_s + self.str_s
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the kernel once.
pub fn run() -> RefTimes {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);

    let t0 = Stopwatch::start();
    let mut acc = 0u64;
    for i in 0..black_box(ALU_ITERS) {
        acc = acc.wrapping_add(xorshift(&mut x).wrapping_mul(i | 1));
    }
    black_box(acc);
    let alu_s = t0.seconds();

    let t1 = Stopwatch::start();
    let mut v: Vec<u64> = (0..black_box(SORT_LEN)).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in v.iter().step_by(SORT_LEN / MAP_KEYS).enumerate() {
        map.insert(k.rotate_left(17), i as u32);
    }
    let sum: u64 = map.values().map(|&i| u64::from(i)).sum();
    black_box((sum, v.len()));
    drop((map, v));
    let mem_s = t1.seconds();

    let t2 = Stopwatch::start();
    let mut names: Vec<String> = (0..black_box(STRINGS))
        .map(|_| format!("n{:x}", xorshift(&mut x) >> 24))
        .collect();
    names.sort_unstable();
    black_box(names.iter().map(String::len).sum::<usize>());
    drop(names);
    let str_s = t2.seconds();

    RefTimes {
        alu_s,
        mem_s,
        str_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_add_up() {
        let r = RefTimes {
            alu_s: 0.1,
            mem_s: 0.12,
            str_s: 0.08,
        };
        assert!((r.total_s() - 0.3).abs() < 1e-12);
    }
}
