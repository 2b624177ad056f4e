//! The buffer cache — NetBSD's `bread`/`bwrite`/`bdwrite` glue, now an
//! adapter over the *shared* [`oskit_bufcache`] component.
//!
//! Historically this file held a private file-system cache; the cache
//! proper moved to `crates/bufcache` so its pages can travel across
//! component boundaries (file system → socket → NIC) as refcounted COM
//! buffer objects.  What remains here is the donor-shaped closure API
//! (`bread`/`bmodify`/`bwrite_full`/`sync`) the FFS code was written
//! against, plus [`BufCache::bread_block`], which hands out the pinned
//! cache page itself for the zero-copy `sendfile` path.

use super::ondisk::BLOCK_SIZE;
use oskit_bufcache::CachedBlock;
use oskit_com::interfaces::blkio::BlkIo;
use oskit_com::Result;
use oskit_machine::Tracer;
use std::sync::Arc;

/// The file system's buffer cache: donor-idiom closures over the shared
/// [`oskit_bufcache::BufCache`].
pub struct BufCache {
    inner: oskit_bufcache::BufCache,
}

impl BufCache {
    /// Wraps a device with a `max_bufs`-block cache that books its hits,
    /// misses and evictions on `tracer`.
    pub fn new(dev: Arc<dyn BlkIo>, max_bufs: usize, tracer: &Tracer) -> BufCache {
        BufCache {
            inner: oskit_bufcache::BufCache::new(&dev, BLOCK_SIZE, max_bufs, tracer),
        }
    }

    /// `bread`: runs `f` over the (read-only) contents of block `blkno`.
    pub fn bread<R>(&self, blkno: u32, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.inner.bread_with(blkno, f)
    }

    /// `bread` returning the pinned cache page itself — the handle keeps
    /// the block resident, and the page is a full COM buffer object
    /// (`BlkIo`/`BufIo`/`SgBufIo`), so it can be lent across component
    /// boundaries without copying.
    pub fn bread_block(&self, blkno: u32) -> Result<Arc<CachedBlock>> {
        self.inner.bread(blkno)
    }

    /// `bdwrite` after modification: runs `f` over the mutable contents
    /// and marks the block dirty (delayed write).
    pub fn bmodify<R>(&self, blkno: u32, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        self.inner.bmodify(blkno, f)
    }

    /// Overwrites a whole block without reading it first (`getblk` for
    /// full-block writes).
    pub fn bwrite_full(&self, blkno: u32, data: &[u8]) -> Result<()> {
        self.inner.bwrite_full(blkno, data)
    }

    /// `sync`: writes every dirty buffer back.
    pub fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn BlkIo> {
        self.inner.device()
    }

    /// The shared cache component itself.
    pub fn shared(&self) -> &oskit_bufcache::BufCache {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::{BufIo, VecBufIo};

    fn ram_dev(blocks: usize) -> Arc<dyn BlkIo> {
        VecBufIo::with_len(blocks * BLOCK_SIZE) as Arc<dyn BlkIo>
    }

    #[test]
    fn read_back_what_was_written() {
        let cache = BufCache::new(ram_dev(16), 8, &Tracer::new());
        cache
            .bmodify(3, |b| b[0..4].copy_from_slice(b"OFS!"))
            .unwrap();
        let tag = cache.bread(3, |b| b[0..4].to_vec()).unwrap();
        assert_eq!(tag, b"OFS!");
    }

    #[test]
    fn dirty_blocks_reach_device_only_on_sync() {
        let dev = ram_dev(16);
        let cache = BufCache::new(Arc::clone(&dev), 8, &Tracer::new());
        cache.bmodify(2, |b| b[0] = 0xEE).unwrap();
        let mut probe = [0u8; 1];
        dev.read(&mut probe, 2 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(probe[0], 0, "write must be delayed");
        cache.sync().unwrap();
        dev.read(&mut probe, 2 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(probe[0], 0xEE);
    }

    #[test]
    fn eviction_writes_back_dirty_buffers() {
        let dev = ram_dev(64);
        let cache = BufCache::new(Arc::clone(&dev), 4, &Tracer::new());
        cache.bmodify(0, |b| b[0] = 1).unwrap();
        // Touch enough other blocks to evict block 0.
        for blk in 1..10 {
            cache.bread(blk, |_| ()).unwrap();
        }
        let mut probe = [0u8; 1];
        dev.read(&mut probe, 0).unwrap();
        assert_eq!(probe[0], 1, "eviction must write back");
        // And reading it again still yields the data.
        assert_eq!(cache.bread(0, |b| b[0]).unwrap(), 1);
    }

    /// (hits, misses) on `t`'s `bufcache::getblk` row.
    fn hits_misses(t: &Tracer) -> (u64, u64) {
        let m = *t.metrics().get("bufcache", "getblk").unwrap();
        (m.cache_hits, m.cache_misses)
    }

    #[test]
    fn cache_hits_avoid_device_reads() {
        let t = Tracer::new();
        let cache = BufCache::new(ram_dev(16), 8, &t);
        cache.bread(5, |_| ()).unwrap();
        cache.bread(5, |_| ()).unwrap();
        cache.bread(5, |_| ()).unwrap();
        assert_eq!(hits_misses(&t), (2, 1));
    }

    #[test]
    fn bwrite_full_replaces_without_read() {
        let t = Tracer::new();
        let cache = BufCache::new(ram_dev(16), 8, &t);
        cache.bwrite_full(7, &vec![0xAB; BLOCK_SIZE]).unwrap();
        assert_eq!(cache.bread(7, |b| b[100]).unwrap(), 0xAB);
        assert_eq!(hits_misses(&t).1, 0, "full write must not read the device");
    }

    #[test]
    fn out_of_range_read_errors() {
        let cache = BufCache::new(ram_dev(4), 8, &Tracer::new());
        assert!(cache.bread(100, |_| ()).is_err());
    }

    #[test]
    fn bread_block_lends_the_cache_page_as_bufio() {
        let cache = BufCache::new(ram_dev(16), 8, &Tracer::new());
        cache
            .bmodify(4, |b| b[10..14].copy_from_slice(b"page"))
            .unwrap();
        let page = cache.bread_block(4).unwrap();
        page.with_map(10, 4, &mut |s| assert_eq!(s, b"page")).unwrap();
        // Holding the handle pins the block against thrashing.
        for blk in 5..16 {
            cache.bread(blk, |_| ()).unwrap();
        }
        assert!(cache.shared().cached(4));
    }
}
