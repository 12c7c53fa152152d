//! Self-contained randomized-testing support.
//!
//! The repository must build with no network access, so the integration
//! tests use this deterministic generator instead of an external
//! property-testing crate. Tests derive every case from a fixed seed;
//! failures reproduce exactly by re-running the same test.

/// A splitmix64/xorshift-style deterministic PRNG.
///
/// Not cryptographic; purpose-built for reproducible test-case
/// generation. The sequence depends only on the seed.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> TestRng {
        // splitmix64 scramble so that small consecutive seeds (0, 1, 2…)
        // do not produce correlated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        TestRng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// Next raw 64-bit value (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Modulo bias is irrelevant for test generation at these bounds.
        self.next_u64() % bound
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A random ASCII-ish string of length `< max_len`, biased toward
    /// printable characters but including some arbitrary bytes.
    pub fn fuzz_string(&mut self, max_len: usize) -> String {
        let len = self.below(max_len as u64 + 1) as usize;
        let mut s = String::with_capacity(len);
        for _ in 0..len {
            let c = match self.below(10) {
                0..=6 => (0x20 + self.below(0x5f) as u8) as char,
                7 => ['\n', '\t', '\r'][self.below(3) as usize],
                8 => char::from_u32(0x80 + self.below(0x700) as u32).unwrap_or('ä'),
                _ => char::from_u32(self.below(0x11_0000 - 0x800) as u32 + 0x800)
                    .unwrap_or('\u{fffd}'),
            };
            s.push(c);
        }
        s
    }

    /// Picks a random element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// `set`'s `Debug` form with the entries of every `elem_counts` map in
/// sorted order: that map is hashed with a per-process seed, so its
/// entries print in a different order from run to run. Tests pin the
/// SHA-256 of this text.
pub fn canonical_profile_debug(set: &algoprof::ProfileSet) -> String {
    const MAP: &str = "elem_counts: {";
    let text = format!("{set:?}");
    let mut out = String::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find(MAP) {
        let (head, tail) = rest.split_at(at + MAP.len());
        out.push_str(head);
        let end = tail.find('}').expect("the map is closed");
        let mut entries: Vec<&str> = tail[..end].split(", ").collect();
        entries.sort_unstable();
        out.push_str(&entries.join(", "));
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::TestRng;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = TestRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = TestRng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = TestRng::new(7);
        for _ in 0..1000 {
            let v = r.range(3, 9);
            assert!((3..9).contains(&v));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }
}
