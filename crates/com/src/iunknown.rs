//! The COM object model: `IUnknown`, interface queries, and reference
//! counting.
//!
//! Paper §4.4: "At its lowest level, COM is merely a language-independent
//! protocol allowing software components within an address space to
//! rendezvous and interact with each other efficiently, while retaining
//! sufficient separation so that they can be developed and evolved
//! independently."
//!
//! In this Rust reproduction:
//!
//! * An *interface* is an object-safe trait that extends [`IUnknown`] and
//!   carries a compile-time IID via [`ComInterface`] (declared with
//!   [`crate::com_interface_decl!`]).
//! * *Reference counting* (`addref`/`release`) is provided by [`Arc`]; the
//!   live count is observable through [`ref_count`].
//! * *Query* ("safe downcasting", paper §4.4.2) is [`IUnknown::query_any`],
//!   normally generated by [`crate::com_object!`], and used through the
//!   typed [`Query::query`] extension method.

use crate::guid::Guid;
use std::any::Any;
use std::sync::{Arc, OnceLock, Weak};

/// The IID of `IUnknown` itself (the standard COM value).
pub const IUNKNOWN_IID: Guid = Guid::new(
    0x0000_0000,
    0x0000,
    0x0000,
    0xc0,
    0x00,
    0x00,
    0x00,
    0x00,
    0x00,
    0x00,
    0x46,
);

/// Compile-time metadata attached to each interface trait object type.
///
/// Implemented for `dyn MyInterface` by [`crate::com_interface_decl!`].
pub trait ComInterface: Send + Sync + 'static {
    /// The interface identifier.
    const IID: Guid;
    /// Human-readable interface name (used by the component registry and
    /// the Figure 1 structure dump).
    const NAME: &'static str;
}

/// A type-erased interface reference produced by [`IUnknown::query_any`].
///
/// Internally holds an `Arc<dyn I>` for some interface trait `I`, boxed as
/// `dyn Any` so that `query_any` stays object safe.
pub struct AnyRef(Box<dyn Any + Send + Sync>);

impl AnyRef {
    /// Wraps a typed interface reference.
    pub fn new<I: ComInterface + ?Sized>(arc: Arc<I>) -> Self {
        AnyRef(Box::new(arc))
    }

    /// Recovers the typed interface reference, if the IIDs matched.
    pub fn downcast<I: ComInterface + ?Sized>(self) -> Option<Arc<I>> {
        self.0.downcast::<Arc<I>>().ok().map(|b| *b)
    }
}

/// The root of every OSKit component interface.
///
/// Unlike C COM there are no explicit `addref`/`release` methods — `Arc`
/// supplies them — but `query_any` reproduces `QueryInterface`, letting a
/// client holding any interface of an object ask for any other
/// (paper §4.4.2 "Interface Extension and Evolution").
pub trait IUnknown: Send + Sync + 'static {
    /// Queries for the interface identified by `iid`.
    ///
    /// Returns a type-erased reference on success; use the typed
    /// [`Query::query`] wrapper instead of calling this directly.
    fn query_any(&self, iid: &Guid) -> Option<AnyRef>;

    /// Lists the interfaces this object implements (introspection used by
    /// the structure dump; not part of C COM).
    fn interfaces(&self) -> &'static [(&'static str, Guid)] {
        &[]
    }
}

/// Typed interface query, the Rust spelling of `QueryInterface`.
pub trait Query {
    /// Asks the object for interface `I`, bumping the reference count on
    /// success and returning [`None`] if the object does not support it.
    fn query<I: ComInterface + ?Sized>(&self) -> Option<Arc<I>>;
}

impl<T: IUnknown + ?Sized> Query for T {
    fn query<I: ComInterface + ?Sized>(&self) -> Option<Arc<I>> {
        if let Some(r) = self.query_any(&I::IID) {
            return r.downcast::<I>();
        }
        // Subtype lattice fallback: a query for a *supertype* interface is
        // answered through any registered subtype (e.g. BufIo ⊂ BlkIo), so
        // interface extension behaves like true subtyping (paper §4.4.2).
        crate::interfaces::blkio::upcast_query(self, &I::IID)?.downcast::<I>()
    }
}

/// Returns the current COM reference count of an object.
///
/// This is what `addref`/`release` would report; exposed for tests and
/// diagnostics.
pub fn ref_count<T: ?Sized>(obj: &Arc<T>) -> usize {
    Arc::strong_count(obj)
}

/// A deferred self-reference, letting an object hand out new `Arc`s of
/// itself from `&self` methods (needed to implement `query_any`).
///
/// Objects embed a `SelfRef<Self>` field and are constructed with
/// [`new_com`], which wires the weak pointer up; `com_object!` then uses it
/// to manufacture interface references.
pub struct SelfRef<T: ?Sized>(OnceLock<Weak<T>>);

impl<T: ?Sized> Default for SelfRef<T> {
    fn default() -> Self {
        SelfRef(OnceLock::new())
    }
}

impl<T: ?Sized> SelfRef<T> {
    /// Creates an unset self-reference; [`new_com`] fills it in.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores the weak self pointer.  Called once during construction.
    ///
    /// # Panics
    ///
    /// Panics if the reference was already initialized.
    pub fn init(&self, weak: Weak<T>) {
        if self.0.set(weak).is_err() {
            panic!("SelfRef initialized twice");
        }
    }

    /// Produces a strong reference to the owning object.
    ///
    /// # Panics
    ///
    /// Panics if called before construction finished (i.e. from inside the
    /// `new_com` closure) or after the object was dropped, both of which
    /// indicate a bug in the component.
    pub fn get(&self) -> Arc<T> {
        self.0
            .get()
            .expect("SelfRef used before new_com completed")
            .upgrade()
            .expect("SelfRef used after object was dropped")
    }
}

/// Constructs a COM object, wiring up its [`SelfRef`].
///
/// `make` builds the object (typically with `SelfRef::new()` in its
/// self-reference field); `self_ref` extracts a reference to that field so
/// it can be initialized.
///
/// # Examples
///
/// ```
/// use oskit_com::{new_com, SelfRef};
/// struct Obj { me: SelfRef<Obj> }
/// let obj = new_com(Obj { me: SelfRef::new() }, |o| &o.me);
/// let again = obj.me.get();
/// assert!(std::sync::Arc::ptr_eq(&obj, &again));
/// ```
pub fn new_com<T>(obj: T, self_ref: impl FnOnce(&T) -> &SelfRef<T>) -> Arc<T> {
    let arc = Arc::new(obj);
    self_ref(&arc).init(Arc::downgrade(&arc));
    arc
}

/// Declares the IID metadata for an interface trait.
///
/// # Examples
///
/// ```
/// use oskit_com::{com_interface_decl, oskit_iid, IUnknown};
/// pub trait Frobber: IUnknown { fn frob(&self); }
/// com_interface_decl!(Frobber, oskit_iid(0xf0), "example_frobber");
/// ```
#[macro_export]
macro_rules! com_interface_decl {
    ($trait_:ident, $iid:expr, $name:expr) => {
        impl $crate::ComInterface for dyn $trait_ {
            const IID: $crate::Guid = $iid;
            const NAME: &'static str = $name;
        }
    };
}

/// Implements [`IUnknown`] for a concrete object type, exposing the listed
/// interfaces through `query_any`.
///
/// The type must have a [`SelfRef`]`<Self>` field named by the first
/// argument and be constructed through [`new_com`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use oskit_com::{com_interface_decl, com_object, new_com, oskit_iid};
/// use oskit_com::{IUnknown, Query, SelfRef};
///
/// pub trait Greeter: IUnknown { fn greet(&self) -> &'static str; }
/// com_interface_decl!(Greeter, oskit_iid(0xf1), "example_greeter");
///
/// struct Hello { me: SelfRef<Hello> }
/// impl Greeter for Hello { fn greet(&self) -> &'static str { "hi" } }
/// com_object!(Hello, me, [Greeter]);
///
/// let obj = new_com(Hello { me: SelfRef::new() }, |o| &o.me);
/// let g: Arc<dyn Greeter> = obj.query::<dyn Greeter>().unwrap();
/// assert_eq!(g.greet(), "hi");
/// ```
#[macro_export]
macro_rules! com_object {
    ($ty:ty, $self_field:ident, [ $( $iface:ident ),* $(,)? ]) => {
        impl $crate::IUnknown for $ty {
            fn query_any(&self, iid: &$crate::Guid) -> Option<$crate::AnyRef> {
                let me: ::std::sync::Arc<Self> = self.$self_field.get();
                if *iid == $crate::IUNKNOWN_IID {
                    return Some($crate::AnyRef::new::<dyn $crate::IUnknown>(me));
                }
                $(
                    if *iid == <dyn $iface as $crate::ComInterface>::IID {
                        return Some($crate::AnyRef::new::<dyn $iface>(
                            me as ::std::sync::Arc<dyn $iface>,
                        ));
                    }
                )*
                let _ = me;
                None
            }

            fn interfaces(&self) -> &'static [(&'static str, $crate::Guid)] {
                &[
                    $(
                        (
                            <dyn $iface as $crate::ComInterface>::NAME,
                            <dyn $iface as $crate::ComInterface>::IID,
                        ),
                    )*
                ]
            }
        }
    };
}

impl ComInterface for dyn IUnknown {
    const IID: Guid = IUNKNOWN_IID;
    const NAME: &'static str = "oskit_iunknown";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guid::oskit_iid;

    trait Base: IUnknown {
        fn base(&self) -> u32;
    }
    trait Ext: Base {
        fn ext(&self) -> u32;
    }
    com_interface_decl!(Base, oskit_iid(0xe0), "test_base");
    com_interface_decl!(Ext, oskit_iid(0xe1), "test_ext");

    struct Both {
        me: SelfRef<Both>,
    }
    impl Base for Both {
        fn base(&self) -> u32 {
            1
        }
    }
    impl Ext for Both {
        fn ext(&self) -> u32 {
            2
        }
    }
    com_object!(Both, me, [Base, Ext]);

    struct OnlyBase {
        me: SelfRef<OnlyBase>,
    }
    impl Base for OnlyBase {
        fn base(&self) -> u32 {
            3
        }
    }
    com_object!(OnlyBase, me, [Base]);

    #[test]
    fn query_extension_succeeds_when_implemented() {
        let obj = new_com(Both { me: SelfRef::new() }, |o| &o.me);
        let base: Arc<dyn Base> = obj.query::<dyn Base>().unwrap();
        // Paper §4.4.2: clients "probe an object safely and take advantage
        // of extended interfaces if available".
        let ext: Arc<dyn Ext> = base.query::<dyn Ext>().unwrap();
        assert_eq!(ext.ext(), 2);
        assert_eq!(ext.base(), 1);
    }

    #[test]
    fn query_extension_fails_when_absent() {
        let obj = new_com(OnlyBase { me: SelfRef::new() }, |o| &o.me);
        let base: Arc<dyn Base> = obj.query::<dyn Base>().unwrap();
        assert!(base.query::<dyn Ext>().is_none());
        assert_eq!(base.base(), 3);
    }

    #[test]
    fn every_object_answers_iunknown() {
        let obj = new_com(OnlyBase { me: SelfRef::new() }, |o| &o.me);
        let unk: Arc<dyn IUnknown> = obj.query::<dyn IUnknown>().unwrap();
        // Querying IUnknown from any interface of the same object must give
        // an identity-stable answer (COM identity rule).
        let unk2 = unk.query::<dyn IUnknown>().unwrap();
        assert!(Arc::ptr_eq(&unk, &unk2));
    }

    #[test]
    fn reference_counting_via_arc() {
        let obj = new_com(Both { me: SelfRef::new() }, |o| &o.me);
        let n0 = ref_count(&obj);
        let b = obj.query::<dyn Base>().unwrap();
        assert_eq!(ref_count(&obj), n0 + 1);
        drop(b);
        assert_eq!(ref_count(&obj), n0);
    }

    #[test]
    fn interfaces_lists_declarations() {
        let obj = new_com(Both { me: SelfRef::new() }, |o| &o.me);
        let names: Vec<_> = obj.interfaces().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["test_base", "test_ext"]);
    }

    #[test]
    #[should_panic(expected = "SelfRef initialized twice")]
    fn double_init_panics() {
        let obj = new_com(OnlyBase { me: SelfRef::new() }, |o| &o.me);
        obj.me.init(Arc::downgrade(&obj));
    }
}
