//! True positive: every item trips a determinism lint clippy holds for the
//! workspace, so `cargo clippy -- -D warnings` must fail here.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub type SlotIndex = (HashMap<u64, usize>, HashSet<u64>);

pub fn pack(slot: u64) -> u32 {
    slot as u32
}

#[allow(clippy::cast_possible_truncation)]
pub fn bucket(delta_ns: u64) -> usize {
    delta_ns as usize
}
