//! The Internet checksum (RFC 1071): the host-side work that
//! [`Machine::charge_checksum`](crate::Machine::charge_checksum) books in
//! virtual time.
//!
//! Both network stacks sum with the one [`Cksum`] accumulator, fed with
//! each fragment where its bytes already lie: a pseudo-header on the
//! stack, a header buffer, the payload mbufs or `sk_buff` data.  Nothing
//! is flattened just to be summed.

use std::net::Ipv4Addr;

/// An RFC 1071 ones'-complement sum over a sequence of byte fragments.
///
/// The sum is taken 8 bytes a step into a `u64` with end-around carry;
/// the fold to 16 bits is deferred to [`Cksum::finish`].  That is exact
/// because 2¹⁶ − 1 divides 2⁶⁴ − 1 (RFC 1071 §2, "deferred carries").
/// A fragment that starts at an odd offset of the running sum has every
/// byte in the other half of its 16-bit word; its partial sum is rotated
/// by 8 bits to match (§2, "byte order independence").
///
/// ```
/// use oskit_machine::Cksum;
/// // RFC 1071 §3: the worked example sums to 0xddf2.
/// let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(Cksum::new().add(&data).finish(), !0xddf2);
/// // Split anywhere, the fragments sum the same.
/// assert_eq!(Cksum::new().add(&data[..3]).add(&data[3..]).finish(), !0xddf2);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Cksum {
    sum: u64,
    odd: bool,
}

impl Cksum {
    /// An empty sum.
    pub fn new() -> Cksum {
        Cksum::default()
    }

    /// Adds the next `bytes` of the summed sequence.
    pub fn add(&mut self, bytes: &[u8]) -> &mut Cksum {
        let (words, rest) = bytes.as_chunks::<8>();
        let mut part = 0u64;
        for w in words {
            part = add1c(part, u64::from_be_bytes(*w));
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            part = add1c(part, u64::from_be_bytes(tail));
        }
        if self.odd {
            part = part.rotate_left(8);
        }
        self.sum = add1c(self.sum, part);
        self.odd ^= bytes.len() % 2 == 1;
        self
    }

    /// The checksum: the ones' complement of the folded 16-bit sum.
    pub fn finish(&self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xFFFF) + (s >> 16);
        }
        !(s as u16)
    }
}

/// Ones'-complement addition: the carry out of bit 63 wraps to bit 0.
fn add1c(a: u64, b: u64) -> u64 {
    let (s, carry) = a.overflowing_add(b);
    s + u64::from(carry)
}

/// The 12-byte IPv4 pseudo-header that TCP and UDP checksums cover
/// (RFC 793 §3.1, RFC 768): source, destination, zero, protocol and the
/// transport length.
pub fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: usize) -> [u8; 12] {
    let mut p = [0u8; 12];
    p[0..4].copy_from_slice(&src.octets());
    p[4..8].copy_from_slice(&dst.octets());
    p[9] = proto;
    p[10..12].copy_from_slice(&(len as u16).to_be_bytes());
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        let seg: Vec<u8> = (0..1500u32).map(|i| (i * 131 % 256) as u8).collect();
        let clean = Cksum::new().add(&seg).finish();
        let mut bad = seg.clone();
        for bit in 0..seg.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(Cksum::new().add(&bad).finish(), clean, "flip of bit {bit}");
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_split_sums_the_same() {
        let data: Vec<u8> = (0..67u32).map(|i| (i * 29 + 3) as u8).collect();
        let whole = Cksum::new().add(&data).finish();
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut c = Cksum::new();
                c.add(&data[..a]).add(&data[a..b]).add(&[]).add(&data[b..]);
                assert_eq!(c.finish(), whole, "split at {a}, {b}");
            }
        }
        // All-ones words exercise the end-around carry: twenty 0xffff
        // words fold away, leaving the odd byte's 0xff00.
        assert_eq!(Cksum::new().add(&[0xFF; 41]).finish(), !0xFF00);
        assert_eq!(Cksum::new().finish(), 0xFFFF);
    }

    #[test]
    fn pseudo_header_layout() {
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let p = pseudo_header(a, b, 6, 1480);
        assert_eq!(p, [10, 0, 0, 1, 10, 0, 0, 2, 0, 6, 0x05, 0xC8]);
    }
}
