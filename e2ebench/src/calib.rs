//! A fixed CPU kernel that tracks host speed.
//!
//! On a shared host the same binary runs up to 2× faster or slower for
//! minutes at a time, so raw host times of one commit spread more
//! between runs than the regressions the benchmark must catch. Runs
//! therefore time this kernel after every measured pass and scale the
//! passes' host times to a reference host: a time `t` measured while
//! the kernel took `k` ns is reported as `t × REFERENCE_NS / k`.
//!
//! The kernel is the benchmark's own code and never calls into the
//! program, so a change to the program cannot move it; only the host
//! can. It mixes the two kinds of work whose speed best followed the
//! serve workloads' host time: random read-modify-write over an
//! L2-sized array, and sorting (branchy compares).

use crate::stats::splitmix64;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, ns: roughly its time on a
/// 2-vCPU Xeon KVM guest in that host's slow state. It sets only the
/// scale of the scaled figures.
pub const REFERENCE_NS: f64 = 800_000.0;

/// Words in the read-modify-write array (128 KiB).
const WORDS: usize = 16 * 1024;

/// Sweeps over that array per sample.
const SWEEPS: usize = 8;

/// Keys sorted per sample.
const KEYS: usize = 8 * 1024;

/// Sorts per sample.
const SORTS: u32 = 3;

/// The kernel's working set.
#[derive(Debug)]
pub struct Calibration {
    words: Vec<u64>,
    keys: Vec<u32>,
    sorted: Vec<u32>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            words: (0..WORDS as u64).map(splitmix64).collect(),
            keys: (0..KEYS as u64).map(|i| splitmix64(i) as u32).collect(),
            sorted: Vec::with_capacity(KEYS),
        }
    }
}

impl Calibration {
    /// Runs the kernel once; returns its host time in ns.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        let mask = WORDS - 1;
        let mut h = 0u64;
        for _ in 0..SWEEPS {
            for i in 0..WORDS {
                let j = (self.words[i] as usize) & mask;
                let v = splitmix64(self.words[i] ^ self.words[j]);
                self.words[i] = v;
                h ^= v;
            }
        }
        for r in 0..SORTS {
            self.sorted.clear();
            self.sorted
                .extend(self.keys.iter().map(|k| k.rotate_left(r) ^ h as u32));
            self.sorted.sort_unstable();
            h ^= u64::from(self.sorted[KEYS / 2]);
        }
        black_box(h);
        t.elapsed().as_nanos() as u64
    }
}
