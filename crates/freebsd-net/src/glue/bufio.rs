//! Exporting mbuf chains as COM bufio objects (paper §4.7.3).
//!
//! "Outgoing packets manufactured by the FreeBSD TCP/IP code ... sometimes
//! consist of multiple discontiguous buffers chained together; in this
//! case, when the mbuf chain is passed to the Linux driver as a bufio
//! object, the Linux glue code must read the data into its own contiguous
//! buffer" — mapping succeeds only for single-mbuf packets, which is
//! precisely what makes small (ACK/latency) packets free and bulk data
//! cost one copy on the send path.

use crate::bsd::mbuf::MbufChain;
use oskit_com::interfaces::blkio::{BlkIo, BufIo};
use oskit_com::{com_object, new_com, Error, Result, SelfRef};
use std::sync::Arc;

/// An mbuf chain exported as a bufio object.
pub struct MbufBufIo {
    me: SelfRef<MbufBufIo>,
    chain: MbufChain,
}

impl MbufBufIo {
    /// Wraps a chain.
    pub fn new(chain: MbufChain) -> Arc<MbufBufIo> {
        new_com(
            MbufBufIo {
                me: SelfRef::new(),
                chain,
            },
            |o| &o.me,
        )
    }

    /// The wrapped chain (diagnostics).
    pub fn num_bufs(&self) -> usize {
        self.chain.num_bufs()
    }
}

impl BlkIo for MbufBufIo {
    fn get_block_size(&self) -> usize {
        1
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        let len = self.chain.pkt_len();
        let off = offset as usize;
        if off >= len {
            return Ok(0);
        }
        let n = buf.len().min(len - off);
        self.chain.m_copydata(off, &mut buf[..n]);
        Ok(n)
    }

    fn write(&self, _buf: &[u8], _offset: u64) -> Result<usize> {
        Err(Error::NotImpl) // Protocol output is immutable once exported.
    }

    fn get_size(&self) -> Result<u64> {
        Ok(self.chain.pkt_len() as u64)
    }
}

impl BufIo for MbufBufIo {
    fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        // "This call will only succeed if the implementor of the bufio
        // object happens to store the requested range of data in
        // contiguous local memory" (§4.7.3).
        if !self.chain.is_contiguous() {
            return Err(Error::NotImpl);
        }
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > self.chain.pkt_len() {
            return Err(Error::Inval);
        }
        self.chain
            .with_contig(end, |d| f(&d[offset..end]))
            .ok_or(Error::NotImpl)
    }

    fn with_map_mut(&self, _o: usize, _l: usize, _f: &mut dyn FnMut(&mut [u8])) -> Result<()> {
        Err(Error::NotImpl)
    }

    fn with_map_fragments(
        &self,
        offset: usize,
        len: usize,
        f: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        // The vectored relaxation of `with_map`: the chain maps as a
        // fragment list with no flattening.  External (foreign-buffer)
        // mbufs contribute through their own map protocol — still
        // zero-copy — so lent buffer-cache pages (sendfile) gather
        // straight to the driver; only a foreign buffer that declines
        // to map forces the copy fallback.
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > self.chain.pkt_len() {
            return Err(Error::Inval);
        }
        self.chain
            .with_fragments(offset, len, f)
            .ok_or(Error::NotImpl)
    }
}

com_object!(MbufBufIo, me, [BlkIo, BufIo]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsd::mbuf::{Mbuf, MLEN};

    #[test]
    fn single_mbuf_packet_maps() {
        // A pure-ACK-sized packet: one small mbuf → mappable, no copy.
        let chain = MbufChain::from_mbuf(Mbuf::small(&[0xAC; 54], MLEN - 54));
        let b = MbufBufIo::new(chain);
        let mut seen = 0;
        b.with_map(0, 54, &mut |d| seen = d.len()).unwrap();
        assert_eq!(seen, 54);
    }

    #[test]
    fn chained_packet_refuses_to_map() {
        // Header mbuf + payload cluster: the discontiguous bulk-data case.
        let mut chain = MbufChain::from_slice(&[0xDD; 1460]);
        chain.m_prepend(&[0xBB; 54]);
        assert_eq!(chain.num_bufs(), 2);
        let b = MbufBufIo::new(chain);
        assert!(matches!(
            b.with_map(0, 1514, &mut |_| ()),
            Err(Error::NotImpl)
        ));
        // But `read` (the copy path) works.
        let mut flat = vec![0u8; 1514];
        assert_eq!(b.read(&mut flat, 0).unwrap(), 1514);
        assert_eq!(&flat[..54], &[0xBB; 54]);
        assert_eq!(&flat[54..], &[0xDD; 1460]);
    }

    #[test]
    fn chained_packet_maps_as_fragments() {
        // The same chain that refuses `with_map` exposes itself as a
        // zero-copy fragment list through the gather view.
        let mut chain = MbufChain::from_slice(&[0xDD; 1460]);
        chain.m_prepend(&[0xBB; 54]);
        let b = MbufBufIo::new(chain);
        let mut lens = Vec::new();
        b.with_map_fragments(0, 1514, &mut |fs| {
            lens = fs.iter().map(|f| f.len()).collect();
        })
        .unwrap();
        assert_eq!(lens, vec![54, 1460]);
        assert_eq!(
            b.with_map_fragments(0, 1515, &mut |_| panic!("must not run"))
                .unwrap_err(),
            Error::Inval
        );
    }

    #[test]
    fn ext_backed_chain_maps_as_fragments() {
        // A lent foreign buffer (a cache page on the sendfile path) is
        // reachable through its own map protocol: the exported chain
        // gathers zero-copy instead of refusing.
        use oskit_com::interfaces::blkio::VecBufIo;
        let foreign = VecBufIo::from_vec(vec![7; 64]);
        let mut chain = MbufChain::from_mbuf(Mbuf::ext(foreign, 8, 48));
        chain.m_prepend(&[1; 14]);
        let b = MbufBufIo::new(chain);
        let mut lens = Vec::new();
        b.with_map_fragments(0, 62, &mut |fs| {
            lens = fs.iter().map(|f| f.len()).collect();
        })
        .unwrap();
        assert_eq!(lens, vec![14, 48]);
    }

    #[test]
    fn read_at_offset() {
        let b = MbufBufIo::new(MbufChain::from_slice(&(0..100).collect::<Vec<u8>>()));
        let mut buf = [0u8; 10];
        assert_eq!(b.read(&mut buf, 90).unwrap(), 10);
        assert_eq!(buf[0], 90);
        assert_eq!(b.read(&mut buf, 100).unwrap(), 0);
    }
}
