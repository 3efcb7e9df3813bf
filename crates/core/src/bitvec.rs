//! A compact bit vector for prediction and classification strings.
//!
//! Prediction strings `aᵢ` and classification vectors `cᵢ` are `n`-bit
//! strings (§3). At benchmark scale (`n` in the hundreds, `n²` bits of
//! prediction state per execution) a packed representation keeps the
//! harness memory-friendly.

/// A fixed-length packed bit vector.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

/// A 4-byte length prefix plus the packed bits.
impl ba_sim::WireSize for BitVec {
    fn wire_bytes(&self) -> u64 {
        4 + self.len.div_ceil(8) as u64
    }
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Builds from booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    fn mask_tail(&mut self) {
        let used = self.len % 64;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips bit `i`, returning its new value.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.get(69));
    }

    #[test]
    fn tail_masking_keeps_count_exact() {
        let o = BitVec::ones(65);
        assert_eq!(o.count_ones(), 65);
        assert_eq!(o.hamming(&BitVec::zeros(65)), 65);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zeros(10);
        v.set(3, true);
        assert!(v.get(3));
        assert!(!v.flip(3));
        assert!(!v.get(3));
        assert!(v.flip(9));
    }

    #[test]
    fn from_bools_matches_iter() {
        let bits = [true, false, true, true, false];
        let v = BitVec::from_bools(&bits);
        let back: Vec<bool> = v.iter().collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn hamming_distance() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        BitVec::zeros(4).get(4);
    }
}
