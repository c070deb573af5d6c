//! Heap: objects, prototype chains, and watchpoints.
//!
//! Two capabilities carry the whole instrumentation story from §4.2 of the
//! paper, and both live here:
//!
//! 1. **Prototype chains.** Method lookup on an object walks `proto` links,
//!    so overwriting `Document.prototype.createElement` with a wrapper is
//!    observed by every document object — exactly how the paper's extension
//!    shims methods.
//! 2. **Watchpoints.** `Object.watch`-style hooks fire on property writes to
//!    a watched object, which is how the paper counts property-write features
//!    on singletons (`window`, `navigator`, `document`).

use crate::ast::FunctionDef;
use crate::value::Value;
use bfu_util::{define_id, Atom};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

define_id!(
    /// Heap object index.
    ObjId,
    "obj"
);

define_id!(
    /// Environment (scope) index, used by closures.
    EnvId,
    "env"
);

/// Property key: an interned atom (always a string in the language, as in
/// pre-symbol JavaScript, but compared and hashed as a `u32`).
pub type PropKey = Atom;

/// How a function object is implemented.
#[derive(Clone)]
pub enum Callable {
    /// A host (native) function, identified by its registry index.
    Native(u32),
    /// A script closure: definition plus captured environment.
    Script {
        /// Shared function definition.
        def: Arc<FunctionDef>,
        /// Captured scope.
        env: EnvId,
    },
    /// A compiled closure: a lazily-lowered function plus captured
    /// environment. Allocation is an `Arc` clone; the body is lowered to
    /// bytecode on first call and memoized in the shared chunk.
    Compiled {
        /// Shared function (definition + memoized lowered body).
        func: Arc<crate::compile::LazyFunc>,
        /// Captured scope.
        env: EnvId,
    },
}

impl std::fmt::Debug for Callable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Callable::Native(i) => write!(f, "Native({i})"),
            Callable::Script { def, .. } => {
                write!(
                    f,
                    "Script({})",
                    def.name.map(Atom::as_str).unwrap_or("<anon>")
                )
            }
            Callable::Compiled { func, .. } => {
                write!(
                    f,
                    "Compiled({})",
                    func.name().map(Atom::as_str).unwrap_or("<anon>")
                )
            }
        }
    }
}

/// One heap object.
#[derive(Debug, Clone, Default)]
pub struct Object {
    /// Own properties.
    pub props: HashMap<PropKey, Value>,
    /// Prototype link.
    pub proto: Option<ObjId>,
    /// Present if the object is callable.
    pub callable: Option<Callable>,
    /// Watch handler (a callable object id) invoked on every property write:
    /// `handler(propName, oldValue, newValue)`, mirroring `Object.watch`.
    pub watch_all: Option<ObjId>,
    /// Opaque host tag: lets the embedder associate an object with a host
    /// entity (e.g. a DOM node id) without a side table.
    pub host_tag: Option<u64>,
}

/// The object heap.
///
/// Objects are copy-on-write: cloning a heap shares every object with the
/// original, and the first write to a shared object through either heap
/// copies just that object. A booted browser heap is cloned once per page,
/// and a page writes to few of its ~2,100 objects.
#[derive(Debug, Default, Clone)]
pub struct Heap {
    objects: Vec<Rc<Object>>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Allocate a plain object with the given prototype.
    pub fn alloc(&mut self, proto: Option<ObjId>) -> ObjId {
        let id = ObjId::from_usize(self.objects.len());
        self.objects.push(Rc::new(Object {
            proto,
            ..Object::default()
        }));
        id
    }

    /// Allocate a callable object.
    pub fn alloc_callable(&mut self, callable: Callable, proto: Option<ObjId>) -> ObjId {
        let id = self.alloc(proto);
        self.get_mut(id).callable = Some(callable);
        id
    }

    /// Borrow an object.
    pub fn get(&self, id: ObjId) -> &Object {
        &self.objects[id.index()]
    }

    /// Mutably borrow an object.
    pub fn get_mut(&mut self, id: ObjId) -> &mut Object {
        Rc::make_mut(&mut self.objects[id.index()])
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Whether an object is callable.
    pub fn is_callable(&self, id: ObjId) -> bool {
        self.objects[id.index()].callable.is_some()
    }

    /// Read a property by atom, walking the prototype chain. `Undefined` if
    /// absent. This is the interpreter's hot path: every hop is a `u32`
    /// hash-map probe, no string comparison.
    pub fn get_prop_atom(&self, id: ObjId, key: Atom) -> Value {
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(o) = cur {
            if let Some(v) = self.objects[o.index()].props.get(&key) {
                return v.clone();
            }
            cur = self.objects[o.index()].proto;
            hops += 1;
            if hops > 64 {
                break; // defensive: cyclic prototype chains
            }
        }
        Value::Undefined
    }

    /// Read a property by string, walking the prototype chain. `Undefined`
    /// if absent. A key nobody ever interned cannot exist on any object, so
    /// this never grows the atom table.
    pub fn get_prop(&self, id: ObjId, key: &str) -> Value {
        match Atom::get(key) {
            Some(atom) => self.get_prop_atom(id, atom),
            None => Value::Undefined,
        }
    }

    /// The object (self or ancestor) that *owns* `key`, if any.
    pub fn owner_of_prop_atom(&self, id: ObjId, key: Atom) -> Option<ObjId> {
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(o) = cur {
            if self.objects[o.index()].props.contains_key(&key) {
                return Some(o);
            }
            cur = self.objects[o.index()].proto;
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        None
    }

    /// The object (self or ancestor) that *owns* `key`, if any.
    pub fn owner_of_prop(&self, id: ObjId, key: &str) -> Option<ObjId> {
        self.owner_of_prop_atom(id, Atom::get(key)?)
    }

    /// Write an own property by atom **without** firing watchpoints.
    /// Returns the old own value.
    pub fn set_prop_raw_atom(&mut self, id: ObjId, key: Atom, value: Value) -> Value {
        self.get_mut(id)
            .props
            .insert(key, value)
            .unwrap_or(Value::Undefined)
    }

    /// Write an own property **without** firing watchpoints. Returns the old
    /// own value. Used by the embedder and by watch handlers themselves.
    pub fn set_prop_raw(&mut self, id: ObjId, key: &str, value: Value) -> Value {
        self.set_prop_raw_atom(id, Atom::intern(key), value)
    }

    /// Write an own property by atom, reporting whether a watchpoint must
    /// fire.
    ///
    /// Returns `(old_value, Some(handler))` when the object is watched; the
    /// interpreter is responsible for invoking the handler (it owns the call
    /// machinery). The write itself always happens.
    pub fn set_prop_atom(&mut self, id: ObjId, key: Atom, value: Value) -> (Value, Option<ObjId>) {
        let old = self.set_prop_raw_atom(id, key, value);
        let handler = self.objects[id.index()].watch_all;
        (old, handler)
    }

    /// Write an own property, reporting whether a watchpoint must fire (see
    /// [`Heap::set_prop_atom`]).
    pub fn set_prop(&mut self, id: ObjId, key: &str, value: Value) -> (Value, Option<ObjId>) {
        self.set_prop_atom(id, Atom::intern(key), value)
    }

    /// Install a watch handler on `id` (fires for every property write).
    pub fn watch(&mut self, id: ObjId, handler: ObjId) {
        self.get_mut(id).watch_all = Some(handler);
    }

    /// Remove the watch handler.
    pub fn unwatch(&mut self, id: ObjId) {
        self.get_mut(id).watch_all = None;
    }

    /// Own property names (sorted by *string*, for deterministic iteration —
    /// atom ids are scheduling-dependent and must never drive ordering).
    pub fn own_keys(&self, id: ObjId) -> Vec<&'static str> {
        let mut keys: Vec<&'static str> = self.objects[id.index()]
            .props
            .keys()
            .map(|a| a.as_str())
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_chain_lookup() {
        let mut heap = Heap::new();
        let proto = heap.alloc(None);
        heap.set_prop_raw(proto, "shared", Value::Num(7.0));
        let child = heap.alloc(Some(proto));
        assert!(matches!(heap.get_prop(child, "shared"), Value::Num(n) if n == 7.0));
        assert_eq!(heap.owner_of_prop(child, "shared"), Some(proto));
        // Shadowing: write goes to the child, proto unchanged.
        heap.set_prop_raw(child, "shared", Value::Num(9.0));
        assert!(matches!(heap.get_prop(child, "shared"), Value::Num(n) if n == 9.0));
        assert!(matches!(heap.get_prop(proto, "shared"), Value::Num(n) if n == 7.0));
    }

    #[test]
    fn missing_prop_is_undefined() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        assert!(matches!(heap.get_prop(o, "nope"), Value::Undefined));
        assert_eq!(heap.owner_of_prop(o, "nope"), None);
    }

    #[test]
    fn cyclic_prototypes_dont_hang() {
        let mut heap = Heap::new();
        let a = heap.alloc(None);
        let b = heap.alloc(Some(a));
        heap.get_mut(a).proto = Some(b);
        assert!(matches!(heap.get_prop(a, "x"), Value::Undefined));
    }

    #[test]
    fn watchpoints_reported_on_set() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        let handler = heap.alloc_callable(Callable::Native(0), None);
        heap.watch(o, handler);
        let (old, h) = heap.set_prop(o, "x", Value::Num(1.0));
        assert!(matches!(old, Value::Undefined));
        assert_eq!(h, Some(handler));
        let (old, _) = heap.set_prop(o, "x", Value::Num(2.0));
        assert!(matches!(old, Value::Num(n) if n == 1.0));
        heap.unwatch(o);
        let (_, h) = heap.set_prop(o, "x", Value::Num(3.0));
        assert_eq!(h, None);
    }

    #[test]
    fn raw_set_bypasses_watch() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        let handler = heap.alloc_callable(Callable::Native(0), None);
        heap.watch(o, handler);
        heap.set_prop_raw(o, "x", Value::Num(1.0));
        // No way to observe a fire here because set_prop_raw returns no
        // handler — that's the point.
        assert!(matches!(heap.get_prop(o, "x"), Value::Num(n) if n == 1.0));
    }

    #[test]
    fn own_keys_sorted() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        heap.set_prop_raw(o, "b", Value::Num(1.0));
        heap.set_prop_raw(o, "a", Value::Num(2.0));
        assert_eq!(heap.own_keys(o), vec!["a", "b"]);
    }

    #[test]
    fn clones_share_objects_until_written() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        heap.set_prop_raw(o, "x", Value::Num(1.0));
        let mut copy = heap.clone();
        copy.set_prop_raw(o, "x", Value::Num(2.0));
        copy.get_mut(o).host_tag = Some(9);
        let fresh = copy.alloc(Some(o));
        assert!(matches!(heap.get_prop(o, "x"), Value::Num(n) if n == 1.0));
        assert_eq!(heap.get(o).host_tag, None);
        assert_eq!(heap.len(), 1);
        assert!(matches!(copy.get_prop(fresh, "x"), Value::Num(n) if n == 2.0));
    }

    #[test]
    fn callable_flag() {
        let mut heap = Heap::new();
        let f = heap.alloc_callable(Callable::Native(3), None);
        let o = heap.alloc(None);
        assert!(heap.is_callable(f));
        assert!(!heap.is_callable(o));
    }
}
