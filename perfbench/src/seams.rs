//! COM interposers for the traced run.
//!
//! Each wrapper implements the interface it stands in for by timing the
//! call and forwarding it, and answers `query` for every other interface
//! by forwarding to the wrapped object — so capability probes such as
//! `File::send_on`'s search for `FileBufIo`/`SendBufIo` see exactly what
//! they would see unwrapped.  A wrapper makes no query of its own except
//! where noted, because some objects do work to answer one (an FFS node
//! reads its inode to decide whether it is a directory).

use crate::span::{Recorder, Seam};
use oskit::com::interfaces::blkio::{BlkIo, BufIo};
use oskit::com::interfaces::fs::{Dir, Dirent, File, FileStat, StatChange};
use oskit::com::interfaces::netio::{EtherAddr, EtherDev, NetIo};
use oskit::com::interfaces::socket::{SendBufIo, Shutdown, SockAddr, SockOpt, Socket};
use oskit::com::interfaces::stream::Stream;
use oskit::com::{new_com, AnyRef, ComInterface, Guid, IUnknown, Result, SelfRef, IUNKNOWN_IID};
use oskit::machine::Machine;
use std::sync::Arc;

/// Where a wrapper records: the run's recorder and the virtual clock of
/// the machine the seam lives on.
#[derive(Clone)]
pub struct Tap {
    pub rec: Arc<Recorder>,
    pub machine: Arc<Machine>,
}

impl Tap {
    pub fn call<R>(&self, seam: Seam, f: impl FnOnce() -> R) -> R {
        let open = self.rec.open(seam, self.machine.cpu_now());
        let r = f();
        open.close(self.machine.cpu_now());
        r
    }
}

fn is<I: ComInterface + ?Sized>(iid: &Guid) -> bool {
    *iid == I::IID
}

// ---- Socket ----

pub struct TracedSocket {
    me: SelfRef<TracedSocket>,
    inner: Arc<dyn Socket>,
    /// Probed once at wrap time; a BSD socket answers without side
    /// effects.
    send_bufio: Option<Arc<dyn SendBufIo>>,
    tap: Tap,
}

impl TracedSocket {
    pub fn wrap(inner: Arc<dyn Socket>, tap: &Tap) -> Arc<dyn Socket> {
        let send_bufio = oskit::com::Query::query::<dyn SendBufIo>(&*inner);
        new_com(
            TracedSocket {
                me: SelfRef::new(),
                inner,
                send_bufio,
                tap: tap.clone(),
            },
            |o| &o.me,
        )
    }

    fn call<R>(&self, f: impl FnOnce(&dyn Socket) -> R) -> R {
        self.tap.call(Seam::Socket, || f(&*self.inner))
    }
}

impl Socket for TracedSocket {
    fn bind(&self, addr: SockAddr) -> Result<()> {
        self.call(|s| s.bind(addr))
    }
    fn connect(&self, addr: SockAddr) -> Result<()> {
        self.call(|s| s.connect(addr))
    }
    fn listen(&self, backlog: usize) -> Result<()> {
        self.call(|s| s.listen(backlog))
    }
    fn accept(&self) -> Result<(Arc<dyn Socket>, SockAddr)> {
        let (conn, peer) = self.call(|s| s.accept())?;
        Ok((TracedSocket::wrap(conn, &self.tap), peer))
    }
    fn send(&self, buf: &[u8]) -> Result<usize> {
        self.call(|s| s.send(buf))
    }
    fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        self.call(|s| s.recv(buf))
    }
    fn sendto(&self, buf: &[u8], addr: SockAddr) -> Result<usize> {
        self.call(|s| s.sendto(buf, addr))
    }
    fn recvfrom(&self, buf: &mut [u8]) -> Result<(usize, SockAddr)> {
        self.call(|s| s.recvfrom(buf))
    }
    fn getsockname(&self) -> Result<SockAddr> {
        self.call(|s| s.getsockname())
    }
    fn getpeername(&self) -> Result<SockAddr> {
        self.call(|s| s.getpeername())
    }
    fn setsockopt(&self, opt: SockOpt) -> Result<()> {
        self.call(|s| s.setsockopt(opt))
    }
    fn shutdown(&self, how: Shutdown) -> Result<()> {
        self.call(|s| s.shutdown(how))
    }
}

impl Stream for TracedSocket {
    fn read(&self, buf: &mut [u8]) -> Result<usize> {
        self.recv(buf)
    }
    fn write(&self, buf: &[u8]) -> Result<usize> {
        self.send(buf)
    }
}

impl SendBufIo for TracedSocket {
    fn send_bufio(&self, buf: &Arc<dyn BufIo>, off: usize, len: usize) -> Result<usize> {
        let inner = self
            .send_bufio
            .as_ref()
            .expect("answered only when the socket has it");
        self.tap
            .call(Seam::Socket, || inner.send_bufio(buf, off, len))
    }
}

impl IUnknown for TracedSocket {
    fn query_any(&self, iid: &Guid) -> Option<AnyRef> {
        let me = self.me.get();
        if *iid == IUNKNOWN_IID {
            return Some(AnyRef::new::<dyn IUnknown>(me));
        }
        if is::<dyn Socket>(iid) {
            return Some(AnyRef::new::<dyn Socket>(me));
        }
        if is::<dyn SendBufIo>(iid) && self.send_bufio.is_some() {
            return Some(AnyRef::new::<dyn SendBufIo>(me));
        }
        if is::<dyn Stream>(iid) {
            // Answer only if the wrapped socket is a stream itself.
            self.inner.query_any(iid)?;
            return Some(AnyRef::new::<dyn Stream>(me));
        }
        self.inner.query_any(iid)
    }
}

// ---- EtherDev and its NetIo pair ----

pub struct TracedEtherDev {
    me: SelfRef<TracedEtherDev>,
    inner: Arc<dyn EtherDev>,
    tap: Tap,
}

impl TracedEtherDev {
    pub fn wrap(inner: Arc<dyn EtherDev>, tap: &Tap) -> Arc<dyn EtherDev> {
        new_com(
            TracedEtherDev {
                me: SelfRef::new(),
                inner,
                tap: tap.clone(),
            },
            |o| &o.me,
        )
    }
}

impl EtherDev for TracedEtherDev {
    fn open(&self, rx: Arc<dyn NetIo>) -> Result<Arc<dyn NetIo>> {
        let rx = TracedNetIo::wrap(rx, Seam::NetioRx, &self.tap);
        let tx = self.tap.call(Seam::EtherDev, || self.inner.open(rx))?;
        Ok(TracedNetIo::wrap(tx, Seam::NetioTx, &self.tap))
    }
    fn get_addr(&self) -> EtherAddr {
        self.tap.call(Seam::EtherDev, || self.inner.get_addr())
    }
    fn describe(&self) -> String {
        self.tap.call(Seam::EtherDev, || self.inner.describe())
    }
}

impl IUnknown for TracedEtherDev {
    fn query_any(&self, iid: &Guid) -> Option<AnyRef> {
        let me = self.me.get();
        if *iid == IUNKNOWN_IID {
            return Some(AnyRef::new::<dyn IUnknown>(me));
        }
        if is::<dyn EtherDev>(iid) {
            return Some(AnyRef::new::<dyn EtherDev>(me));
        }
        self.inner.query_any(iid)
    }
}

pub struct TracedNetIo {
    me: SelfRef<TracedNetIo>,
    inner: Arc<dyn NetIo>,
    seam: Seam,
    tap: Tap,
}

impl TracedNetIo {
    pub fn wrap(inner: Arc<dyn NetIo>, seam: Seam, tap: &Tap) -> Arc<dyn NetIo> {
        new_com(
            TracedNetIo {
                me: SelfRef::new(),
                inner,
                seam,
                tap: tap.clone(),
            },
            |o| &o.me,
        )
    }
}

impl NetIo for TracedNetIo {
    fn push(&self, pkt: Arc<dyn BufIo>) -> Result<()> {
        self.tap.call(self.seam, || self.inner.push(pkt))
    }
    fn alloc_bufio(&self, size: usize) -> Result<Arc<dyn BufIo>> {
        self.tap.call(self.seam, || self.inner.alloc_bufio(size))
    }
}

impl IUnknown for TracedNetIo {
    fn query_any(&self, iid: &Guid) -> Option<AnyRef> {
        let me = self.me.get();
        if *iid == IUNKNOWN_IID {
            return Some(AnyRef::new::<dyn IUnknown>(me));
        }
        if is::<dyn NetIo>(iid) {
            return Some(AnyRef::new::<dyn NetIo>(me));
        }
        self.inner.query_any(iid)
    }
}

// ---- BlkIo ----

pub struct TracedBlkIo {
    me: SelfRef<TracedBlkIo>,
    inner: Arc<dyn BlkIo>,
    tap: Tap,
}

impl TracedBlkIo {
    pub fn wrap(inner: Arc<dyn BlkIo>, tap: &Tap) -> Arc<dyn BlkIo> {
        new_com(
            TracedBlkIo {
                me: SelfRef::new(),
                inner,
                tap: tap.clone(),
            },
            |o| &o.me,
        )
    }
}

impl BlkIo for TracedBlkIo {
    fn get_block_size(&self) -> usize {
        self.inner.get_block_size()
    }
    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        self.tap
            .call(Seam::BlkRead, || self.inner.read(buf, offset))
    }
    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        self.tap
            .call(Seam::BlkWrite, || self.inner.write(buf, offset))
    }
    fn get_size(&self) -> Result<u64> {
        self.inner.get_size()
    }
    fn set_size(&self, new_size: u64) -> Result<()> {
        self.inner.set_size(new_size)
    }
}

impl IUnknown for TracedBlkIo {
    fn query_any(&self, iid: &Guid) -> Option<AnyRef> {
        let me = self.me.get();
        if *iid == IUNKNOWN_IID {
            return Some(AnyRef::new::<dyn IUnknown>(me));
        }
        if is::<dyn BlkIo>(iid) {
            return Some(AnyRef::new::<dyn BlkIo>(me));
        }
        self.inner.query_any(iid)
    }
}

// ---- File and Dir ----

/// Wraps a file, or a directory when built with [`TracedFile::dir`]: the
/// §3.8 file server's way of interposing on a whole tree by wrapping its
/// root.
pub struct TracedFile {
    me: SelfRef<TracedFile>,
    file: Arc<dyn File>,
    dir: Option<Arc<dyn Dir>>,
    tap: Tap,
}

impl TracedFile {
    pub fn file(file: Arc<dyn File>, tap: &Tap) -> Arc<dyn File> {
        Self::new(file, None, tap)
    }

    pub fn dir(dir: Arc<dyn Dir>, tap: &Tap) -> Arc<dyn Dir> {
        Self::new(Arc::clone(&dir) as Arc<dyn File>, Some(dir), tap)
    }

    fn new(file: Arc<dyn File>, dir: Option<Arc<dyn Dir>>, tap: &Tap) -> Arc<TracedFile> {
        new_com(
            TracedFile {
                me: SelfRef::new(),
                file,
                dir,
                tap: tap.clone(),
            },
            |o| &o.me,
        )
    }

    fn call<R>(&self, f: impl FnOnce(&dyn File) -> R) -> R {
        self.tap.call(Seam::File, || f(&*self.file))
    }

    fn call_dir<R>(&self, f: impl FnOnce(&dyn Dir) -> R) -> R {
        let dir = self
            .dir
            .as_ref()
            .expect("answered Dir only when wrapping one");
        self.tap.call(Seam::File, || f(&**dir))
    }
}

impl File for TracedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        self.call(|f| f.read_at(buf, offset))
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<usize> {
        self.call(|f| f.write_at(buf, offset))
    }
    fn getstat(&self) -> Result<FileStat> {
        self.call(|f| f.getstat())
    }
    fn setstat(&self, change: &StatChange) -> Result<()> {
        self.call(|f| f.setstat(change))
    }
    fn sync(&self) -> Result<()> {
        self.call(|f| f.sync())
    }
    /// Forwarded whole, so the wrapped file's own implementation probes
    /// itself for `FileBufIo` (and the socket for `SendBufIo`).
    fn send_on(&self, sock: &dyn IUnknown, offset: u64, len: u64) -> Result<u64> {
        self.call(|f| f.send_on(sock, offset, len))
    }
}

impl Dir for TracedFile {
    fn lookup(&self, name: &str) -> Result<Arc<dyn File>> {
        let f = self.call_dir(|d| d.lookup(name))?;
        Ok(TracedFile::file(f, &self.tap))
    }
    fn create(&self, name: &str, exclusive: bool, mode: u32) -> Result<Arc<dyn File>> {
        let f = self.call_dir(|d| d.create(name, exclusive, mode))?;
        Ok(TracedFile::file(f, &self.tap))
    }
    fn mkdir(&self, name: &str, mode: u32) -> Result<Arc<dyn Dir>> {
        let d = self.call_dir(|d| d.mkdir(name, mode))?;
        Ok(TracedFile::dir(d, &self.tap))
    }
    fn unlink(&self, name: &str) -> Result<()> {
        self.call_dir(|d| d.unlink(name))
    }
    fn rmdir(&self, name: &str) -> Result<()> {
        self.call_dir(|d| d.rmdir(name))
    }
    fn rename(&self, old_name: &str, new_dir: &dyn Dir, new_name: &str) -> Result<()> {
        self.call_dir(|d| d.rename(old_name, new_dir, new_name))
    }
    fn link(&self, name: &str, file: &dyn File) -> Result<()> {
        self.call_dir(|d| d.link(name, file))
    }
    fn readdir(&self, start: usize, count: usize) -> Result<Vec<Dirent>> {
        self.call_dir(|d| d.readdir(start, count))
    }
}

impl IUnknown for TracedFile {
    fn query_any(&self, iid: &Guid) -> Option<AnyRef> {
        let me = self.me.get();
        if *iid == IUNKNOWN_IID {
            return Some(AnyRef::new::<dyn IUnknown>(me));
        }
        if is::<dyn File>(iid) {
            return Some(AnyRef::new::<dyn File>(me));
        }
        if is::<dyn Dir>(iid) && self.dir.is_some() {
            return Some(AnyRef::new::<dyn Dir>(me));
        }
        self.file.query_any(iid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit::com::interfaces::blkio::VecBufIo;
    use oskit::com::interfaces::fs::{FileBufIo, FileSystem};
    use oskit::com::Query;
    use oskit::machine::Sim;
    use oskit::netbsd_fs::FfsFileSystem;

    #[test]
    fn wrappers_forward_queries_and_record_only_while_active() {
        let tap = Tap {
            rec: Arc::new(Recorder::default()),
            machine: Machine::new(&Sim::new(), "t", 1 << 16),
        };
        let dev = TracedBlkIo::wrap(VecBufIo::with_len(1 << 20), &tap);
        assert!(dev.query::<dyn BlkIo>().is_some());
        FfsFileSystem::mkfs(&dev).expect("mkfs");
        let fs = FfsFileSystem::mount_ram(&dev).expect("mount");
        let root = TracedFile::dir(fs.getroot().expect("root"), &tap);
        let f = root.create("a", true, 0o644).expect("create");
        assert_eq!(f.write_at(b"hello", 0).expect("write"), 5);
        assert!(tap.rec.take().is_empty());

        tap.rec.set_active(true);
        let f = root.lookup("a").expect("lookup");
        // `send_on`'s zero-copy probe must see through the wrapper.
        assert!(f.query::<dyn FileBufIo>().is_some());
        assert!(f.query::<dyn Dir>().is_none());
        assert!(root.query::<dyn Dir>().is_some());
        let mut buf = [0u8; 5];
        assert_eq!(f.read_at(&mut buf, 0).expect("read"), 5);
        assert_eq!(&buf, b"hello");
        tap.rec.set_active(false);
        let seams: Vec<Seam> = tap.rec.take().iter().map(|s| s.seam).collect();
        assert_eq!(seams, [Seam::File, Seam::File]);
    }
}
