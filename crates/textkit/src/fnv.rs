//! The workspace's one FNV-1a (64-bit). Page fingerprints, index and trust
//! digests, stream watermarks, shard assignment and fault rolls all hash
//! through this type, so a digest in one crate can be recomputed in another
//! and never moves under a `std` hasher change.

/// A 64-bit FNV-1a hasher. Apart from [`Fnv1a::framed_str`], feeders hash
/// exactly the bytes they are given — no length prefix, no terminator.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// A hasher continuing from `state` — a digest chained onto another.
    #[inline]
    pub const fn resume(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Feed raw bytes.
    #[inline]
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feed a string's UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Feed a string behind its byte length, so adjacent strings cannot run
    /// together: the framing of the injective encodings (page fingerprints,
    /// trust digests).
    #[inline]
    pub fn framed_str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.str(s);
    }

    /// Feed a word as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Fold a whole word in one round (xor, then one multiply) — the
    /// combiner the index digests use to chain ids and sub-digests.
    #[inline]
    pub fn fold(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// The hash of everything fed so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }

    /// FNV-1a of one string.
    #[inline]
    pub fn of(s: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.str(s);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Formatted output hashes as the bytes it renders to, so
/// `write!(h, "{x:?}")` equals `h.str(&format!("{x:?}"))` without the
/// intermediate `String`.
impl std::fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.str(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(Fnv1a::of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::of("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn u64_feeds_little_endian_bytes() {
        let mut h = Fnv1a::new();
        h.u64(0x0102_0304_0506_0708);
        let mut bytewise = Fnv1a::new();
        bytewise.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(h.finish(), bytewise.finish());
    }

    #[test]
    fn formatted_output_hashes_as_its_rendered_bytes() {
        use std::fmt::Write;
        let value = vec![Some(("caf\u{e9} \"x\"", -4.5f64)), None];
        let mut streamed = Fnv1a::new();
        write!(streamed, "{value:?}").expect("hashing never fails");
        assert_eq!(streamed.finish(), Fnv1a::of(&format!("{value:?}")));
    }
}
