//! The `bread`/`bwrite`/`bdwrite` contract the FFS code relies on, checked
//! on the shared [`oskit_bufcache::BufCache`] at the file system's own
//! block size.  `FsCore` and `fsck` call the shared cache directly; these
//! tests pin the donor semantics they assume: delayed writes, full-block
//! writes that never read, and a lent page that stays resident.

#[cfg(test)]
mod tests {
    use crate::ffs::ondisk::BLOCK_SIZE;
    use oskit_bufcache::BufCache;
    use oskit_com::interfaces::blkio::{BlkIo, BufIo, VecBufIo};
    use oskit_machine::Tracer;
    use std::sync::Arc;

    fn ram_dev(blocks: usize) -> Arc<dyn BlkIo> {
        VecBufIo::with_len(blocks * BLOCK_SIZE) as Arc<dyn BlkIo>
    }

    /// (hits, misses) on `t`'s `bufcache::getblk` row.
    fn hits_misses(t: &Tracer) -> (u64, u64) {
        let m = *t.metrics().get("bufcache", "getblk").unwrap();
        (m.cache_hits, m.cache_misses)
    }

    #[test]
    fn dirty_blocks_reach_device_only_on_sync() {
        let dev = ram_dev(16);
        let cache = BufCache::new(&dev, BLOCK_SIZE, 8, &Tracer::new());
        cache.bmodify(2, |b| b[0] = 0xEE).unwrap();
        let mut probe = [0u8; 1];
        dev.read(&mut probe, 2 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(probe[0], 0, "write must be delayed");
        cache.sync().unwrap();
        dev.read(&mut probe, 2 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(probe[0], 0xEE);
    }

    #[test]
    fn bwrite_full_replaces_without_read() {
        let t = Tracer::new();
        let cache = BufCache::new(&ram_dev(16), BLOCK_SIZE, 8, &t);
        cache.bwrite_full(7, &vec![0xAB; BLOCK_SIZE]).unwrap();
        assert_eq!(cache.bread_with(7, |b| b[100]).unwrap(), 0xAB);
        assert_eq!(hits_misses(&t).1, 0, "full write must not read the device");
    }

    #[test]
    fn bread_block_lends_the_cache_page_as_bufio() {
        let cache = BufCache::new(&ram_dev(16), BLOCK_SIZE, 8, &Tracer::new());
        cache
            .bmodify(4, |b| b[10..14].copy_from_slice(b"page"))
            .unwrap();
        let page = cache.bread(4).unwrap();
        page.with_map(10, 4, &mut |s| assert_eq!(s, b"page")).unwrap();
        // Holding the handle pins the block against thrashing.
        for blk in 5..16 {
            cache.bread_with(blk, |_| ()).unwrap();
        }
        assert!(cache.cached(4));
    }
}
