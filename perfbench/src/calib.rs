//! A fixed unit of work that measures how fast the host runs right now.
//!
//! On a shared host the checker's speed swings by up to 2× within seconds,
//! as neighbours load the caches and memory bus the vCPUs sit on. `run.py`
//! times [`work`] (in its own process, `perfbench-calib`) before and after
//! every timed call and scales the call's time by how long the work took
//! against [`NOMINAL_NS`]. The work mixes what the checker does: random
//! read-modify-writes over a table larger than L2, hash-map updates keyed
//! like per-variable state, and byte scanning like a decoder. It shares no
//! code with the repository, so no change to the checker moves it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;

/// A round figure near [`work`]'s time, in nanoseconds, on a 2-vCPU Xeon
/// VM whose host is quiet. A call's time is scaled by
/// `NOMINAL_NS / measured`, so scaled figures read roughly as they would
/// on that quiet host.
pub const NOMINAL_NS: u64 = 50_000_000;

/// Entries in the random-access table (8 MiB of `u64`).
const TABLE: usize = 1 << 20;
/// Read-modify-writes over the table.
const TABLE_OPS: u64 = 1_500_000;
/// Distinct hash-map keys.
const KEYS: u64 = 100_000;
/// Hash-map updates.
const MAP_OPS: u64 = 400_000;
/// Bytes of decimal text scanned.
const TEXT: usize = 4 << 20;

/// Does the fixed work and returns a checksum of it, which never changes.
pub fn work() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 17
    };

    let mut table = vec![0u64; TABLE];
    for i in 0..TABLE_OPS {
        let j = next() as usize % TABLE;
        table[j] = table[j].wrapping_add(i);
    }

    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..MAP_OPS {
        *map.entry(next() % KEYS).or_default() += i;
    }

    let mut text = Vec::with_capacity(TEXT);
    while text.len() < TEXT {
        text.extend_from_slice((next() % 100_000).to_string().as_bytes());
        text.push(b',');
    }
    let mut sum = 0u64;
    let mut n = 0u64;
    for &b in black_box(&text) {
        if b.is_ascii_digit() {
            n = n * 10 + u64::from(b - b'0');
        } else {
            sum = sum.wrapping_add(n);
            n = 0;
        }
    }

    let mut check = sum ^ map.len() as u64;
    for (i, v) in table.iter().enumerate().step_by(4099) {
        check = check.wrapping_add(v ^ i as u64);
    }
    black_box(check)
}

#[cfg(test)]
mod tests {
    /// The work is fixed: changing it would rescale every figure that
    /// `run.py` scales by it, so its result is pinned.
    #[test]
    fn the_work_never_changes() {
        assert_eq!(super::work(), 35_948_958_805);
    }
}
