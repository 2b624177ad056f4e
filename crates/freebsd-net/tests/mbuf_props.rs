//! Property tests: mbuf chains against a flat-vector model.  The chain
//! operations (prepend, adjust, copy, concatenate, pull-up) must agree
//! with plain byte-slice semantics no matter how the chain is fragmented,
//! and the chain's Internet checksum and fragment walk must agree with the
//! flat bytes.

use oskit_com::interfaces::blkio::VecBufIo;
use oskit_freebsd_net::bsd::mbuf::{Mbuf, MbufChain, MCLBYTES, MLEN};
use oskit_machine::Cksum;
use proptest::prelude::*;

/// Builds a chain holding `data` with an arbitrary fragmentation chosen
/// by `cuts`, mixing small mbufs and clusters.
fn build_chain(data: &[u8], cuts: &[usize]) -> MbufChain {
    let mut chain = MbufChain::new();
    let mut at = 0;
    let mut cuts = cuts.to_vec();
    cuts.sort_unstable();
    for &cut in &cuts {
        let cut = cut % (data.len() + 1);
        if cut <= at {
            continue;
        }
        push_frag(&mut chain, &data[at..cut]);
        at = cut;
    }
    if at < data.len() {
        push_frag(&mut chain, &data[at..]);
    }
    chain
}

fn push_frag(chain: &mut MbufChain, mut frag: &[u8]) {
    while !frag.is_empty() {
        let n = frag.len().min(MCLBYTES);
        if n <= MLEN / 2 {
            chain.m_cat(MbufChain::from_mbuf(Mbuf::small(&frag[..n], 4)));
        } else {
            chain.m_cat(MbufChain::from_mbuf(Mbuf::cluster(&frag[..n])));
        }
        frag = &frag[n..];
    }
}

/// RFC 1071 by its definition: big-endian 16-bit words, one byte a
/// step, folded at the end.
fn bytewise_cksum(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    for (i, &b) in data.iter().enumerate() {
        let shift = if i % 2 == 0 { 8 } else { 0 };
        sum += u64::from(b) << shift;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// One mbuf holding `bytes` in storage `kind`: 0 small, 1 cluster,
/// 2 external (at an odd offset inside a larger `VecBufIo`).
fn mbuf_of(kind: u8, bytes: &[u8]) -> Mbuf {
    match kind {
        0 => Mbuf::small(bytes, MLEN - bytes.len()),
        1 => Mbuf::cluster(bytes),
        _ => {
            let mut backing = vec![0xA5u8; bytes.len() + 8];
            backing[3..3 + bytes.len()].copy_from_slice(bytes);
            Mbuf::ext(VecBufIo::from_vec(backing), 3, bytes.len())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// A pseudo-header plus a chain cut into empty, 1-byte, odd and
    /// cluster-sized fragments of every storage kind sums like the flat
    /// bytes summed one at a time.
    #[test]
    fn chain_cksum_matches_bytewise_reference(
        pseudo in proptest::collection::vec(any::<u8>(), 12..13),
        frags in proptest::collection::vec(
            (
                0u8..3,
                prop_oneof![
                    proptest::collection::vec(any::<u8>(), 0..2),
                    proptest::collection::vec(any::<u8>(), 2..64),
                    proptest::collection::vec(any::<u8>(), 64..MCLBYTES + 1),
                ],
            ),
            0..10,
        ),
    ) {
        let frags: Vec<(u8, Vec<u8>)> = frags;
        let mut flat = pseudo.clone();
        let mut chain = MbufChain::new();
        for (kind, mut bytes) in frags {
            if kind == 0 {
                bytes.truncate(MLEN);
            }
            flat.extend_from_slice(&bytes);
            chain.m_cat(MbufChain::from_mbuf(mbuf_of(kind, &bytes)));
        }
        let mut sum = Cksum::new();
        sum.add(&pseudo);
        chain.cksum_into(&mut sum);
        prop_assert_eq!(sum.finish(), bytewise_cksum(&flat));
    }

    /// Any window of a chain of small, cluster and external mbufs walks
    /// as one fragment per mbuf touched, and the fragments concatenate
    /// to the window's flat bytes.
    #[test]
    fn fragments_concatenate_to_the_flat_window(
        frags in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(any::<u8>(), 1..MLEN + 1)),
            1..12,
        ),
        off in 0usize..4000,
        len in 0usize..4000,
    ) {
        let frags: Vec<(u8, Vec<u8>)> = frags;
        let mut chain = MbufChain::new();
        for (kind, bytes) in &frags {
            chain.m_cat(MbufChain::from_mbuf(mbuf_of(*kind, bytes)));
        }
        let flat = chain.to_vec();
        let off = off % flat.len();
        let len = len % (flat.len() - off + 1);
        let (joined, n) = chain
            .with_fragments(off, len, |fs| (fs.concat(), fs.len()))
            .expect("local and mappable external storage both gather");
        prop_assert_eq!(&joined[..], &flat[off..off + len]);
        prop_assert!(n <= chain.num_bufs());
        prop_assert_eq!(n == 0, len == 0);
    }
}

proptest! {
    #[test]
    fn chain_matches_flat_model(
        data in proptest::collection::vec(any::<u8>(), 1..5000),
        cuts in proptest::collection::vec(0usize..5000, 0..6),
        front in 0usize..100,
        back in 0usize..100,
    ) {
        let chain = build_chain(&data, &cuts);
        prop_assert_eq!(chain.pkt_len(), data.len());
        prop_assert_eq!(chain.to_vec(), data.clone());

        // m_adj front/back vs slice.
        let mut model = data.clone();
        let mut c2 = chain.clone();
        let f = front.min(model.len());
        c2.m_adj(f);
        model.drain(..f);
        let b = back.min(model.len());
        c2.m_adj_tail(b);
        model.truncate(model.len() - b);
        prop_assert_eq!(c2.to_vec(), model);
    }

    #[test]
    fn copym_matches_slice(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        cuts in proptest::collection::vec(0usize..4000, 0..5),
        off in 0usize..4000,
        len in 0usize..4000,
    ) {
        let chain = build_chain(&data, &cuts);
        let off = off % data.len();
        let len = len.min(data.len() - off);
        if len == 0 {
            return Ok(());
        }
        let copy = chain.m_copym(off, len);
        prop_assert_eq!(copy.to_vec(), &data[off..off + len]);
        // The original is untouched.
        prop_assert_eq!(chain.to_vec(), data);
    }

    #[test]
    fn prepend_then_pullup(
        data in proptest::collection::vec(any::<u8>(), 1..3000),
        cuts in proptest::collection::vec(0usize..3000, 0..5),
        hdr in proptest::collection::vec(any::<u8>(), 1..54),
    ) {
        let mut chain = build_chain(&data, &cuts);
        chain.m_prepend(&hdr);
        let mut expect = hdr.clone();
        expect.extend_from_slice(&data);
        prop_assert_eq!(chain.to_vec(), expect.clone());
        // Pull up a header-sized prefix and read it contiguously.
        let n = (hdr.len() + 7).min(expect.len()).min(MLEN);
        chain.m_pullup(n);
        let got = chain.with_contig(n, |d| d.to_vec()).expect("pullup contract");
        prop_assert_eq!(&got[..], &expect[..n]);
        prop_assert_eq!(chain.to_vec(), expect);
    }

    #[test]
    fn m_copydata_any_window(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        cuts in proptest::collection::vec(0usize..4000, 0..5),
        off in 0usize..4000,
        len in 1usize..512,
    ) {
        let chain = build_chain(&data, &cuts);
        let off = off % data.len();
        let len = len.min(data.len() - off);
        if len == 0 {
            return Ok(());
        }
        let mut out = vec![0u8; len];
        chain.m_copydata(off, &mut out);
        prop_assert_eq!(&out[..], &data[off..off + len]);
    }
}
