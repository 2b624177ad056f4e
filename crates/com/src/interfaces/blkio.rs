//! Block and buffer I/O interfaces (paper Figure 2 and §4.4.2).

use crate::error::Result;
use crate::guid::Guid;
use crate::iunknown::IUnknown;
use crate::{com_interface_decl, Error};
use std::sync::Arc;

/// The `blkio` interface identifier from paper Figure 2.
pub const BLKIO_IID: Guid = Guid::new(
    0x4aa7_df81,
    0x7c74,
    0x11cf,
    0xb5,
    0x00,
    0x08,
    0x00,
    0x09,
    0x53,
    0xad,
    0xc2,
);

/// Absolute block/byte I/O — the OSKit's `oskit_blkio` (paper Figure 2).
///
/// "Implemented by each of the OSKit's disk device drivers as well as by
/// other components."  Offsets are byte offsets; implementations with a
/// block size greater than one may require offset and length to be
/// block-aligned.
pub trait BlkIo: IUnknown {
    /// Returns the natural block size of the object in bytes.
    ///
    /// Reads and writes should be multiples of this size; byte-grained
    /// objects return 1.
    fn get_block_size(&self) -> usize;

    /// Reads up to `buf.len()` bytes starting at byte `offset`.
    ///
    /// Returns the number of bytes actually read, which is less than
    /// requested only at end-of-object.
    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize>;

    /// Writes `buf` starting at byte `offset`, returning the number of
    /// bytes actually written.
    fn write(&self, buf: &[u8], offset: u64) -> Result<usize>;

    /// Returns the current size of the object in bytes.
    fn get_size(&self) -> Result<u64>;

    /// Resizes the object, if the implementation supports it.
    ///
    /// Fixed-size devices (disks, partitions) return [`Error::NotImpl`].
    fn set_size(&self, new_size: u64) -> Result<()> {
        let _ = new_size;
        Err(Error::NotImpl)
    }
}
com_interface_decl!(BlkIo, BLKIO_IID, "oskit_blkio");

/// Buffer I/O: `oskit_bufio`, the extension of [`BlkIo`] described in paper
/// §4.4.2.
///
/// "Adds methods to allow direct pointer-based access to the data stored in
/// the object in the common case in which this data happens to be in local
/// memory."  Network packets are passed between drivers and protocol stacks
/// as `bufio` objects (§4.7.3); mapping succeeds only when the implementor
/// stores the requested range contiguously, so callers fall back on
/// [`BlkIo::read`]/[`BlkIo::write`] when [`BufIo::with_map`] fails.
///
/// Rust reproduction note: C OSKit `map`/`unmap` hand out raw pointers; we
/// use scoped closures so the borrow is visible to the compiler, while
/// preserving the crucial property that a successful map is *zero-copy*.
pub trait BufIo: BlkIo {
    /// Calls `f` with a direct reference to bytes `[offset, offset+len)` if
    /// they are stored contiguously in local memory.
    ///
    /// Returns [`Error::NotImpl`] when the range is not mappable (e.g. it
    /// spans discontiguous mbufs); the caller must then copy via `read`.
    fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()>;

    /// Mutable counterpart of [`BufIo::with_map`].
    fn with_map_mut(&self, offset: usize, len: usize, f: &mut dyn FnMut(&mut [u8]))
        -> Result<()>;

    /// Wires the buffer for DMA, returning a simulated physical address.
    ///
    /// Drivers use this before handing buffers to hardware; the default
    /// declines, forcing a copy into driver-owned storage.
    fn wire(&self) -> Result<u64> {
        Err(Error::NotImpl)
    }

    /// Releases a [`BufIo::wire`] pin.
    fn unwire(&self) {}

    /// Calls `f` with bytes `[offset, offset+len)` as an ordered list of
    /// contiguous fragments, borrowed zero-copy from local storage.
    ///
    /// [`BufIo::with_map`] answers "is the range *contiguous* in local
    /// memory?"; this relaxes the question to "is the range *in* local
    /// memory?".  A chained packet (headers in one buffer, payload in
    /// another) that `with_map` must refuse can still be handed to
    /// scatter-gather hardware without flattening.  The provided method
    /// presents the mapped range as one fragment, so a contiguous object
    /// answers exactly as `with_map` does; chained storage overrides it.
    ///
    /// Returns [`Error::NotImpl`] when some part of the range does not
    /// reside in local memory (the caller falls back to `read`) and
    /// [`Error::Inval`] when the range exceeds the object.
    fn with_map_fragments(
        &self,
        offset: usize,
        len: usize,
        f: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.with_map(offset, len, &mut |d| f(&[d]))
    }
}
com_interface_decl!(BufIo, crate::guid::oskit_iid(0x82), "oskit_bufio");

/// A simple heap-backed [`BufIo`], used when packets must be manufactured
/// from scratch (and by tests).
pub struct VecBufIo {
    me: crate::SelfRef<VecBufIo>,
    data: std::sync::Mutex<Vec<u8>>,
}

impl VecBufIo {
    /// Creates a buffer object of `len` zero bytes.
    pub fn with_len(len: usize) -> Arc<VecBufIo> {
        Self::from_vec(vec![0; len])
    }

    /// Creates a buffer object owning `data`.
    pub fn from_vec(data: Vec<u8>) -> Arc<VecBufIo> {
        crate::new_com(
            VecBufIo {
                me: crate::SelfRef::new(),
                data: std::sync::Mutex::new(data),
            },
            |o| &o.me,
        )
    }
}

impl BlkIo for VecBufIo {
    fn get_block_size(&self) -> usize {
        1
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        let data = self.data.lock().expect("poisoned");
        let off = offset as usize;
        if off >= data.len() {
            return Ok(0);
        }
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        Ok(n)
    }

    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        let mut data = self.data.lock().expect("poisoned");
        let off = offset as usize;
        if off >= data.len() {
            return Err(Error::Inval);
        }
        let n = buf.len().min(data.len() - off);
        data[off..off + n].copy_from_slice(&buf[..n]);
        Ok(n)
    }

    fn get_size(&self) -> Result<u64> {
        Ok(self.data.lock().expect("poisoned").len() as u64)
    }

    fn set_size(&self, new_size: u64) -> Result<()> {
        self.data.lock().expect("poisoned").resize(new_size as usize, 0);
        Ok(())
    }
}

impl BufIo for VecBufIo {
    fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        let data = self.data.lock().expect("poisoned");
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > data.len() {
            return Err(Error::Inval);
        }
        f(&data[offset..end]);
        Ok(())
    }

    fn with_map_mut(
        &self,
        offset: usize,
        len: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<()> {
        let mut data = self.data.lock().expect("poisoned");
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > data.len() {
            return Err(Error::Inval);
        }
        f(&mut data[offset..end]);
        Ok(())
    }
}

crate::com_object!(VecBufIo, me, [BlkIo, BufIo]);

/// Copies the full contents of a [`BufIo`] into a fresh `Vec`.
///
/// Gathers the fragment view (one fragment for a contiguous object) and
/// falls back on `read` when the bytes are not in local memory, exactly
/// like the driver glue in paper §4.7.3.  An object whose mapped bytes
/// disagree with its declared size is malformed: that is reported as
/// [`Error::Inval`], never truncated silently.
pub fn bufio_to_vec(b: &dyn BufIo) -> Result<Vec<u8>> {
    let len = b.get_size()? as usize;
    let mut out = Vec::with_capacity(len);
    match b.with_map_fragments(0, len, &mut |fs| {
        for frag in fs {
            out.extend_from_slice(frag);
        }
    }) {
        Ok(()) if out.len() == len => Ok(out),
        Ok(()) => Err(Error::Inval),
        Err(Error::NotImpl) => {
            let mut copy = vec![0u8; len];
            let n = b.read(&mut copy, 0)?;
            copy.truncate(n);
            Ok(copy)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;

    #[test]
    fn vec_bufio_read_write() {
        let b = VecBufIo::with_len(8);
        assert_eq!(b.write(&[1, 2, 3], 2).unwrap(), 3);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf, 0).unwrap(), 8);
        assert_eq!(buf, [0, 0, 1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn read_past_end_returns_zero() {
        let b = VecBufIo::with_len(4);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf, 100).unwrap(), 0);
    }

    #[test]
    fn short_read_at_end() {
        let b = VecBufIo::from_vec(vec![9; 10]);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf, 6).unwrap(), 4);
    }

    #[test]
    fn map_is_bounds_checked() {
        let b = VecBufIo::with_len(4);
        assert_eq!(
            b.with_map(2, 3, &mut |_| panic!("must not run")).unwrap_err(),
            Error::Inval
        );
        assert_eq!(
            b.with_map(usize::MAX, 2, &mut |_| ()).unwrap_err(),
            Error::Inval
        );
    }

    #[test]
    fn blkio_queries_to_bufio() {
        // Paper §4.4.2: a RAM-backed object supports the extended bufio
        // interface; a client holding blkio can discover it.
        let b = VecBufIo::with_len(4);
        let blk: Arc<dyn BlkIo> = b.query::<dyn BlkIo>().unwrap();
        let buf = blk.query::<dyn BufIo>().unwrap();
        buf.with_map(0, 4, &mut |s| assert_eq!(s.len(), 4)).unwrap();
    }

    #[test]
    fn bufio_to_vec_uses_map() {
        let b = VecBufIo::from_vec(vec![5, 6, 7]);
        assert_eq!(bufio_to_vec(&*b).unwrap(), vec![5, 6, 7]);
    }

    #[test]
    fn contiguous_bufio_maps_as_one_fragment() {
        // The provided fragment view: a contiguous object is a trivial
        // one-fragment gather list.
        let b = VecBufIo::from_vec((0..50).collect());
        let mut frags = Vec::new();
        b.with_map_fragments(10, 30, &mut |fs| {
            frags = fs.iter().map(|f| f.to_vec()).collect();
        })
        .unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], (10..40).collect::<Vec<u8>>());
        // Bounds violations surface exactly as with_map's.
        assert_eq!(
            b.with_map_fragments(40, 11, &mut |_| panic!("must not run"))
                .unwrap_err(),
            Error::Inval
        );
    }

    #[test]
    fn set_size_resizes() {
        let b = VecBufIo::with_len(2);
        b.set_size(5).unwrap();
        assert_eq!(b.get_size().unwrap(), 5);
    }

    #[test]
    fn bufio_upcasts_to_blkio_on_every_bufio_object() {
        // BufIo extends BlkIo, so every bufio reference upcasts to a
        // blkio one statically, with no query and whatever the object's
        // com_object! list says.
        let buf: Arc<dyn BufIo> = VecBufIo::from_vec(vec![42; 6]);
        let blk: Arc<dyn BlkIo> = buf;
        let mut probe = [0u8; 6];
        assert_eq!(blk.read(&mut probe, 0).unwrap(), 6);
        assert_eq!(probe, [42; 6]);
    }

    /// A two-fragment buffer: `with_map` refuses (discontiguous), the
    /// fragment view succeeds — the mbuf-chain shape.
    struct TwoFrags {
        me: crate::SelfRef<TwoFrags>,
        a: Vec<u8>,
        b: Vec<u8>,
    }
    impl BlkIo for TwoFrags {
        fn get_block_size(&self) -> usize {
            1
        }
        fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
            let all: Vec<u8> = self.a.iter().chain(self.b.iter()).copied().collect();
            let off = offset as usize;
            if off >= all.len() {
                return Ok(0);
            }
            let n = buf.len().min(all.len() - off);
            buf[..n].copy_from_slice(&all[off..off + n]);
            Ok(n)
        }
        fn write(&self, _buf: &[u8], _offset: u64) -> Result<usize> {
            Err(Error::NotImpl)
        }
        fn get_size(&self) -> Result<u64> {
            Ok((self.a.len() + self.b.len()) as u64)
        }
    }
    impl BufIo for TwoFrags {
        fn with_map(&self, _o: usize, _l: usize, _f: &mut dyn FnMut(&[u8])) -> Result<()> {
            Err(Error::NotImpl)
        }
        fn with_map_mut(
            &self,
            _o: usize,
            _l: usize,
            _f: &mut dyn FnMut(&mut [u8]),
        ) -> Result<()> {
            Err(Error::NotImpl)
        }
        fn with_map_fragments(
            &self,
            offset: usize,
            len: usize,
            f: &mut dyn FnMut(&[&[u8]]),
        ) -> Result<()> {
            if offset != 0 || len != self.a.len() + self.b.len() {
                return Err(Error::NotImpl);
            }
            f(&[&self.a, &self.b]);
            Ok(())
        }
    }
    crate::com_object!(TwoFrags, me, [BlkIo, BufIo]);

    #[test]
    fn bufio_to_vec_honors_fragment_lists() {
        let b = crate::new_com(
            TwoFrags {
                me: crate::SelfRef::new(),
                a: vec![1, 2, 3],
                b: vec![4, 5],
            },
            |o| &o.me,
        );
        assert_eq!(bufio_to_vec(&*b).unwrap(), vec![1, 2, 3, 4, 5]);
    }

    /// An object whose declared size disagrees with its mapped bytes.
    struct Liar {
        me: crate::SelfRef<Liar>,
    }
    impl BlkIo for Liar {
        fn get_block_size(&self) -> usize {
            1
        }
        fn read(&self, _buf: &mut [u8], _offset: u64) -> Result<usize> {
            Ok(0)
        }
        fn write(&self, _buf: &[u8], _offset: u64) -> Result<usize> {
            Err(Error::NotImpl)
        }
        fn get_size(&self) -> Result<u64> {
            Ok(10) // Claims 10 bytes...
        }
    }
    impl BufIo for Liar {
        fn with_map(&self, _o: usize, _l: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
            f(&[7; 4]); // ...maps only 4.
            Ok(())
        }
        fn with_map_mut(
            &self,
            _o: usize,
            _l: usize,
            _f: &mut dyn FnMut(&mut [u8]),
        ) -> Result<()> {
            Err(Error::NotImpl)
        }
    }
    crate::com_object!(Liar, me, [BlkIo, BufIo]);

    #[test]
    fn bufio_to_vec_rejects_length_mismatch() {
        let b = crate::new_com(Liar { me: crate::SelfRef::new() }, |o| &o.me);
        assert_eq!(bufio_to_vec(&*b).unwrap_err(), Error::Inval);
    }
}
