//! The benchmark's own randomness: every input of every workload (keys,
//! payloads, request arguments, revisit order) is drawn from a SplitMix64
//! stream derived from `--seed`. The program under test never generates
//! random data itself.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, and with published
/// reference outputs the unit tests pin.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `(seed, lane…)`: workloads derive one per
    /// client / repetition / key so that streams never overlap.
    pub fn derive(seed: u64, lanes: &[u64]) -> Self {
        let mut s = Self(seed);
        let mut state = s.next_u64();
        for &lane in lanes {
            s = Self(state ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            state = s.next_u64();
        }
        Self(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for every
    /// `n` the workloads use (< 2³²), which no metric here can resolve.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Running FNV-1a 64 digest of an op stream: the determinism tests compare
/// digests, not whole streams.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

#[cfg(test)]
impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

#[cfg(test)]
impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// `x'…'` SQL blob literal of `bytes`.
pub fn hex_literal(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2 + 3);
    s.push_str("x'");
    for &b in bytes {
        s.push(HEX[usize::from(b >> 4)] as char);
        s.push(HEX[usize::from(b & 15)] as char);
    }
    s.push('\'');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_golden_values() {
        // Reference outputs of the public-domain C implementation
        // (Vigna, prng.di.unimi.it/splitmix64.c) for seeds 0 and 1234567.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn derived_streams_differ_by_lane_and_seed() {
        let a = SplitMix64::derive(7, &[0, 1]).next_u64();
        assert_eq!(a, SplitMix64::derive(7, &[0, 1]).next_u64());
        assert_ne!(a, SplitMix64::derive(7, &[1, 0]).next_u64());
        assert_ne!(a, SplitMix64::derive(8, &[0, 1]).next_u64());
    }

    #[test]
    fn fill_is_prefix_stable() {
        let mut long = [0u8; 19];
        let mut short = [0u8; 8];
        SplitMix64::new(3).fill(&mut long);
        SplitMix64::new(3).fill(&mut short);
        assert_eq!(long[..8], short);
    }

    #[test]
    fn hex_literal_format() {
        assert_eq!(hex_literal(&[0x00, 0xab, 0x7f]), "x'00ab7f'");
    }
}
