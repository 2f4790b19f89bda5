//! Deterministic random-number plumbing.
//!
//! Every stochastic element of a run (per-node jitter, workload shapes,
//! clock skew, loss processes) draws from its own `StdRng` derived from the
//! master seed and a stable stream identifier. Because each stream is
//! independent, adding a node or reordering event handling never perturbs
//! the random sequence seen by unrelated components — the property that
//! makes A/B comparisons between scheduler variants meaningful.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64 finalizer; the standard cheap way to decorrelate seed streams.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derive an independent RNG stream from `master_seed` and `stream`.
pub fn derive_rng(master_seed: u64, stream: u64) -> StdRng {
    let s = splitmix64(master_seed ^ splitmix64(stream.wrapping_add(1)));
    StdRng::seed_from_u64(s)
}

/// Well-known stream identifiers, so call sites don't invent colliding ones.
pub mod streams {
    /// Per-node streams start here; add the node id.
    pub const NODE_BASE: u64 = 0x1000_0000;
    /// Workload/traffic generator streams start here; add the flow id.
    pub const TRAFFIC_BASE: u64 = 0x2000_0000;
    /// Clock skew/drift assignment.
    pub const CLOCK: u64 = 0x4000_0000;
    /// Access-point delay process.
    pub const AP_DELAY: u64 = 0x5000_0000;
    /// Fault-injection streams start here; add the fault sub-stream id.
    pub const FAULT_BASE: u64 = 0x6000_0000;
    /// Markov channel-state model (per-client radio quality trajectory).
    pub const CHANNEL: u64 = 0x7000_0000;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 7);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_streams_decorrelate() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 8);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = derive_rng(1, 7);
        let mut b = derive_rng(2, 7);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
    }
}
