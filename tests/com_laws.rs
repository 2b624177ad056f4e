//! COM identity laws over the production buffer objects (paper §4.4.2).
//!
//! Each object answers exactly the interfaces its `com_object!` list
//! names, and no others: from any one of them, a query for any listed
//! interface succeeds (reflexive, symmetric and transitive), `IUnknown`
//! always names the same object, queried references give their count
//! back when dropped, and an unlisted interface — the retired
//! scatter-gather IID 0x8d among them — is refused.

use oskit::com::interfaces::blkio::{BlkIo, BufIo, VecBufIo};
use oskit::com::interfaces::netio::NetIo;
use oskit::com::{oskit_iid, AnyRef, ComInterface, Guid, IUnknown, Query};
use oskit::freebsd_net::bsd::mbuf::MbufChain;
use oskit::freebsd_net::glue::bufio::MbufBufIo;
use oskit::linux_dev::{SkBuff, SkbBufIo, SkbIo};
use oskit::trace::Tracer;
use oskit_bufcache::BufCache;
use std::sync::Arc;

/// Every interface a buffer object might answer, plus the retired one.
fn known_iids() -> [Guid; 5] {
    [
        <dyn BlkIo>::IID,
        <dyn BufIo>::IID,
        <dyn SkbIo>::IID,
        <dyn NetIo>::IID,
        oskit_iid(0x8d),
    ]
}

/// A queried interface reference, seen through its `IUnknown` supertrait
/// so it can be queried in turn.
fn as_unknown(r: AnyRef, iid: Guid) -> Arc<dyn IUnknown> {
    if iid == <dyn BlkIo>::IID {
        r.downcast::<dyn BlkIo>().expect("blkio reference")
    } else if iid == <dyn BufIo>::IID {
        r.downcast::<dyn BufIo>().expect("bufio reference")
    } else if iid == <dyn SkbIo>::IID {
        r.downcast::<dyn SkbIo>().expect("skbio reference")
    } else {
        panic!("no typed view for {iid:?}")
    }
}

/// Queries `from` for `iid`, panicking with `what` if it is refused.
fn view(from: &dyn IUnknown, iid: Guid, what: &str) -> Arc<dyn IUnknown> {
    let r = from
        .query_any(&iid)
        .unwrap_or_else(|| panic!("{what}: {iid:?} refused"));
    as_unknown(r, iid)
}

/// The address of the object behind an interface reference.
fn addr(r: &Arc<dyn IUnknown>) -> *const () {
    Arc::as_ptr(r) as *const ()
}

fn check_laws(name: &str, obj: Arc<dyn IUnknown>) {
    let start = Arc::strong_count(&obj);
    let listed: Vec<Guid> = obj.interfaces().iter().map(|&(_, iid)| iid).collect();
    assert!(
        listed.contains(&<dyn BlkIo>::IID) && listed.contains(&<dyn BufIo>::IID),
        "{name}: a production bufio lists BlkIo and BufIo"
    );
    let me = obj.query::<dyn IUnknown>().expect("IUnknown");
    for &a in &listed {
        let va = view(&*obj, a, name);
        // Reflexive.
        view(&*va, a, name);
        // IUnknown from any interface is the same object.
        let unk = va.query::<dyn IUnknown>().expect("IUnknown");
        assert_eq!(addr(&unk), addr(&me), "{name}: IUnknown identity");
        for &b in &listed {
            let vb = view(&*va, b, name);
            // Symmetric: back from b to a.
            view(&*vb, a, name);
            for &c in &listed {
                // Transitive: a → b → c, and a → c directly.
                view(&*vb, c, name);
                view(&*va, c, name);
            }
        }
        for iid in known_iids() {
            if !listed.contains(&iid) {
                assert!(
                    va.query_any(&iid).is_none(),
                    "{name}: unlisted {iid:?} answered"
                );
            }
        }
    }
    drop(me);
    assert_eq!(Arc::strong_count(&obj), start, "{name}: references leaked");
}

#[test]
fn vec_bufio_obeys_the_com_laws() {
    check_laws("VecBufIo", VecBufIo::from_vec(vec![1; 64]));
}

#[test]
fn mbuf_bufio_obeys_the_com_laws() {
    let mut chain = MbufChain::from_slice(&[0xDD; 1460]);
    chain.m_prepend(&[0xBB; 54]);
    check_laws("MbufBufIo", MbufBufIo::new(chain));
}

#[test]
fn skb_bufio_obeys_the_com_laws() {
    check_laws("SkbBufIo", SkbBufIo::new(SkBuff::from_vec(vec![2; 60])));
}

#[test]
fn cached_block_obeys_the_com_laws() {
    let dev = VecBufIo::with_len(8 * 512) as Arc<dyn BlkIo>;
    let cache = BufCache::new(&dev, 512, 4, &Tracer::new());
    check_laws("CachedBlock", cache.bread(3).expect("bread"));
}
