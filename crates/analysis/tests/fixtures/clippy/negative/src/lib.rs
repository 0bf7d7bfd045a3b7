//! True negative: virtual time, ordered collections, lossless or checked
//! conversions, and escapes that say why they are sound.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

pub type SlotIndex = (BTreeMap<u64, usize>, BTreeSet<u64>);

pub fn service_time(virtual_ns: u64) -> Duration {
    Duration::from_nanos(virtual_ns)
}

pub fn pack(slot: u64) -> Result<u32, std::num::TryFromIntError> {
    u32::try_from(slot)
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "a remainder modulo a usize length is below that length"
)]
pub fn pick(draw: u64, len: usize) -> usize {
    (draw % len as u64) as usize
}

#[cfg(test)]
mod tests {
    #[test]
    #[expect(clippy::disallowed_types, reason = "a test-only bucket count")]
    fn test_code_may_narrow_but_still_says_why_it_hashes() {
        let buckets: std::collections::HashSet<u8> = (0u64..16).map(|i| (i % 4) as u8).collect();
        assert_eq!(buckets.len(), 4);
    }
}
