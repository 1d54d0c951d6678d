//! `StdRng` — ChaCha12, matching rand 0.8's choice of standard RNG.

use crate::chacha_impl::ChaChaAny;
use crate::{RngCore, SeedableRng};

/// The standard RNG: ChaCha with 12 rounds.
#[derive(Debug, Clone)]
pub struct StdRng(ChaChaAny<6>);

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        StdRng(ChaChaAny::from_seed_bytes(seed))
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
}

/// Mock generators, mirroring `rand::rngs::mock`.
pub mod mock {
    use crate::RngCore;

    /// A counter posing as an RNG: yields `initial`, `initial + increment`,
    /// … (wrapping) from `next_u64`, and their low 32 bits from `next_u32`,
    /// as `rand 0.8`'s `StepRng` does.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StepRng {
        v: u64,
        a: u64,
    }

    impl StepRng {
        /// A counter starting at `initial` and stepping by `increment`.
        pub fn new(initial: u64, increment: u64) -> Self {
            StepRng {
                v: initial,
                a: increment,
            }
        }
    }

    impl RngCore for StepRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let value = self.v;
            self.v = self.v.wrapping_add(self.a);
            value
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(8);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes());
            }
            let rest = chunks.into_remainder();
            if rest.len() > 4 {
                let n = rest.len();
                rest.copy_from_slice(&self.next_u64().to_le_bytes()[..n]);
            } else if !rest.is_empty() {
                let n = rest.len();
                rest.copy_from_slice(&self.next_u32().to_le_bytes()[..n]);
            }
        }
    }
}
