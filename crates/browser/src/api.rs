//! The Web API surface: every registry feature becomes a real method or
//! property slot on a prototype object inside the script interpreter.
//!
//! Layout mirrors a real browser:
//!
//! - one **prototype object** per WebIDL interface, carrying the interface's
//!   method features as callable natives (and a hidden `__iface` marker the
//!   instrumentation uses to attribute property writes);
//! - **inheritance** wired for the core DOM hierarchy
//!   (`HTMLElement → Element → Node`, `Document → Node`);
//! - **global constructors** (`new XMLHttpRequest()`, `new AudioContext()`,
//!   ...) whose `.prototype` is the interface prototype;
//! - **singletons** (`window`, `document`, `navigator`, `performance`) whose
//!   prototypes are their interfaces — the objects the paper's extension
//!   watches for property writes;
//! - a handful of uncounted **plumbing globals** (`setTimeout`,
//!   `clearTimeout`, `setInterval`) that exist in any browser but are not
//!   part of the 1,392-feature registry under study.
//!
//! A small set of methods carry *real behavior* against the page's DOM and
//! network (createElement, appendChild, querySelectorAll, addEventListener,
//! XHR open, sendBeacon, requestAnimationFrame, ...); the long tail are
//! plausible stubs. Either way every call flows through the prototype chain,
//! which is what the instrumentation patches.
//!
//! **Built once per thread, bound per page.** Nothing the builder makes
//! depends on the page: natives find the page's [`HostEnv`] through the
//! interpreter's embedder slot when they run, not through their closures.
//! So the surface is built once per thread and registry into a snapshot,
//! and [`install`] hands each page a clone of it, bound to the page's host:
//! the slot, the `document` object's DOM root, and `location.href` are the
//! only per-page writes. (The snapshot lives in the private `boot` module.)

use crate::log::FeatureLog;
use crate::timers::TimerQueue;
use bfu_dom::{Document, EventRegistry, NodeId};
use bfu_net::{ResourceType, Url};
use bfu_script::interp::{Interpreter, RuntimeError};
use bfu_script::object::ObjId;
use bfu_script::Value;
use bfu_util::Instant;
use bfu_webidl::{FeatureKind, FeatureRegistry};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Page-side state the API natives operate on.
#[derive(Debug)]
pub struct HostEnv {
    /// The page's DOM.
    pub doc: Document,
    /// The page URL (initiator for script-issued requests).
    pub base_url: Url,
    /// DOM event listener registry.
    pub events: EventRegistry,
    /// Listener handle → script callback.
    pub listeners: Vec<Value>,
    /// Virtual timers.
    pub timers: TimerQueue,
    /// Requests issued by scripts (XHR, beacons, fetch) awaiting the network.
    pub pending_requests: Vec<(Url, ResourceType)>,
    /// Script ↔ DOM object identity map.
    pub node_objs: HashMap<NodeId, ObjId>,
    /// Current virtual time (the page updates this before running timers).
    pub now: Instant,
    /// Compiled-selector memo, per page load: querySelector/__listen/element
    /// hiding re-query the same handful of selector strings many times per
    /// page, so each is compiled at most once (`None` = known-invalid).
    selector_cache: HashMap<String, Option<bfu_dom::Selector>>,
}

impl HostEnv {
    /// Fresh host state for a page at `base_url` with a parsed document.
    pub fn new(doc: Document, base_url: Url) -> Self {
        HostEnv {
            doc,
            base_url,
            events: EventRegistry::new(),
            listeners: Vec::new(),
            timers: TimerQueue::new(),
            pending_requests: Vec::new(),
            node_objs: HashMap::new(),
            now: Instant::ZERO,
            selector_cache: HashMap::new(),
        }
    }

    /// Register a script callback as a listener handle.
    pub fn add_listener_value(&mut self, callback: Value) -> u32 {
        let h = u32::try_from(self.listeners.len()).unwrap_or(u32::MAX);
        self.listeners.push(callback);
        h
    }

    /// Compile a selector, memoized for the life of this page load.
    /// Returns `None` for invalid selector syntax (also memoized, so a bad
    /// selector queried in a loop is diagnosed once).
    pub fn compile_selector(&mut self, src: &str) -> Option<bfu_dom::Selector> {
        if let Some(cached) = self.selector_cache.get(src) {
            return cached.clone();
        }
        let sel = bfu_dom::Selector::parse(src).ok();
        self.selector_cache.insert(src.to_owned(), sel.clone());
        sel
    }
}

/// The installed API surface.
#[derive(Debug)]
pub struct ApiSurface {
    /// Interface name → prototype object.
    pub prototypes: Rc<HashMap<String, ObjId>>,
    /// Singleton globals (`window`, `document`, `navigator`, `performance`).
    pub singletons: Vec<(String, ObjId)>,
    /// Shared host state.
    pub host: Rc<RefCell<HostEnv>>,
}

/// Hidden property marking an object's interface for the instrumentation.
pub const IFACE_MARKER: &str = "__iface";

/// Map an HTML tag to the interface backing its element objects.
fn interface_for_tag(tag: &str) -> &'static str {
    match tag {
        "canvas" => "HTMLCanvasElement",
        "form" => "HTMLFormElement",
        "input" => "HTMLInputElement",
        "a" => "HTMLAnchorElement",
        "img" => "HTMLImageElement",
        "iframe" => "HTMLIFrameElement",
        "select" => "HTMLSelectElement",
        "script" => "HTMLScriptElement",
        "video" => "HTMLVideoElement",
        "audio" => "HTMLAudioElement",
        _ => "HTMLElement",
    }
}

/// Wrap a DOM node as a script object (idempotent per node).
pub fn wrap_node(
    interp: &mut Interpreter,
    host: &Rc<RefCell<HostEnv>>,
    protos: &HashMap<String, ObjId>,
    node: NodeId,
) -> Value {
    if let Some(&obj) = host.borrow().node_objs.get(&node) {
        return Value::Obj(obj);
    }
    let tag = host.borrow().doc.tag(node).map(str::to_owned);
    let proto_name = match tag.as_deref() {
        Some(t) => interface_for_tag(t),
        None => "Node",
    };
    let proto = protos
        .get(proto_name)
        .or_else(|| protos.get("HTMLElement"))
        .or_else(|| protos.get("Element"))
        .or_else(|| protos.get("Node"))
        .copied();
    let obj = interp.heap.alloc(proto);
    interp.heap.get_mut(obj).host_tag = Some(u64::from(node.raw()));
    if let Some(t) = tag {
        interp
            .heap
            .set_prop_raw(obj, "tagName", Value::str(t.to_ascii_uppercase()));
    }
    host.borrow_mut().node_objs.insert(node, obj);
    Value::Obj(obj)
}

/// The DOM node behind a script object, if any.
pub fn node_of(interp: &Interpreter, v: &Value) -> Option<NodeId> {
    let obj = v.as_obj()?;
    interp
        .heap
        .get(obj)
        .host_tag
        .and_then(|t| u32::try_from(t).ok())
        .map(NodeId::new)
}

/// Build a script array object from values.
fn make_array(interp: &mut Interpreter, items: &[Value]) -> Value {
    let arr = interp.heap.alloc(None);
    for (i, v) in items.iter().enumerate() {
        interp.heap.set_prop_raw(arr, &i.to_string(), v.clone());
    }
    interp
        .heap
        .set_prop_raw(arr, "length", Value::Num(items.len() as f64));
    Value::Obj(arr)
}

/// What a page's natives reach through the interpreter's embedder slot:
/// the page's host state and, once the instrumentation is installed, its
/// feature log. Natives capture only what every page shares (prototype ids,
/// feature ids), so one booted interpreter serves any page it is cloned for.
pub(crate) struct PageSlot {
    pub(crate) host: Rc<RefCell<HostEnv>>,
    pub(crate) log: Option<Rc<RefCell<FeatureLog>>>,
}

/// The page's host state, read from the embedder slot.
fn host_of(i: &Interpreter) -> Result<Rc<RefCell<HostEnv>>, RuntimeError> {
    i.embedder::<PageSlot>()
        .map(|p| Rc::clone(&p.host))
        .ok_or_else(|| RuntimeError::TypeError("Web API called outside a page".into()))
}

/// Where the builder put the objects a page needs to find again: the same
/// ids in every clone of the interpreter it built.
#[derive(Clone)]
pub(crate) struct Layout {
    pub(crate) prototypes: Rc<HashMap<String, ObjId>>,
    pub(crate) singletons: Vec<(String, ObjId)>,
    pub(crate) document: ObjId,
    pub(crate) location: ObjId,
}

/// Install the full API surface into `interp`, bound to `host`.
///
/// Expects a fresh interpreter ([`Interpreter::is_fresh`]), as every caller
/// passes: it is then replaced by a clone of this thread's post-API
/// snapshot of `registry` (built on first use by the `boot` module), and
/// only the per-page state is bound — the embedder slot, the document
/// object's DOM root, and `location.href`. A non-fresh interpreter gets the
/// surface built into it in place: the same objects, rebuilt.
pub fn install(
    interp: &mut Interpreter,
    registry: &FeatureRegistry,
    host: Rc<RefCell<HostEnv>>,
) -> ApiSurface {
    let layout = if interp.is_fresh() {
        crate::boot::api_stage(interp, registry)
    } else {
        build(interp, registry)
    };
    bind_page(interp, &layout, &host, None);
    ApiSurface {
        prototypes: layout.prototypes,
        singletons: layout.singletons,
        host,
    }
}

/// Bind an interpreter booted with `layout` to one page: install the
/// embedder slot and write the per-page values the builder leaves out.
pub(crate) fn bind_page(
    interp: &mut Interpreter,
    layout: &Layout,
    host: &Rc<RefCell<HostEnv>>,
    log: Option<Rc<RefCell<FeatureLog>>>,
) {
    interp.set_embedder(Rc::new(PageSlot {
        host: Rc::clone(host),
        log,
    }));
    // document is backed by the DOM root.
    let root = host.borrow().doc.root();
    interp.heap.get_mut(layout.document).host_tag = Some(u64::from(root.raw()));
    host.borrow_mut().node_objs.insert(root, layout.document);
    let href = host.borrow().base_url.to_string();
    interp
        .heap
        .set_prop_raw(layout.location, "href", Value::str(&href));
}

/// Build the page-independent API surface into `interp`. Every native it
/// registers reads the page from the embedder slot, so the result can be
/// snapshotted and cloned for any page.
pub(crate) fn build(interp: &mut Interpreter, registry: &FeatureRegistry) -> Layout {
    // 1. Prototype objects for every interface in the registry.
    let mut protos: HashMap<String, ObjId> = HashMap::new();
    for f in registry.features() {
        protos
            .entry(f.interface.clone())
            .or_insert_with(|| interp.heap.alloc(None));
    }
    // Ensure core hierarchy interfaces exist even if no feature landed there.
    for name in ["Node", "Element", "HTMLElement", "Document", "Window"] {
        protos
            .entry(name.to_owned())
            .or_insert_with(|| interp.heap.alloc(None));
    }
    // Mark interfaces and wire the DOM hierarchy.
    for (name, &obj) in &protos {
        interp
            .heap
            .set_prop_raw(obj, IFACE_MARKER, Value::str(name));
    }
    let link =
        |interp: &mut Interpreter, protos: &HashMap<String, ObjId>, child: &str, parent: &str| {
            if let (Some(&c), Some(&p)) = (protos.get(child), protos.get(parent)) {
                interp.heap.get_mut(c).proto = Some(p);
            }
        };
    link(interp, &protos, "Node", "EventTarget");
    link(interp, &protos, "Element", "Node");
    link(interp, &protos, "HTMLElement", "Element");
    link(interp, &protos, "Document", "Node");
    link(interp, &protos, "Window", "EventTarget");
    for name in protos.keys().cloned().collect::<Vec<_>>() {
        if name.starts_with("HTML") && name.ends_with("Element") && name != "HTMLElement" {
            link(interp, &protos, &name, "HTMLElement");
        }
        if name.starts_with("SVG") && name.ends_with("Element") {
            link(interp, &protos, &name, "Element");
        }
    }
    // Media elements inherit HTMLMediaElement (where `play` et al. live).
    link(interp, &protos, "HTMLMediaElement", "HTMLElement");
    link(interp, &protos, "HTMLVideoElement", "HTMLMediaElement");
    link(interp, &protos, "HTMLAudioElement", "HTMLMediaElement");
    let protos = Rc::new(protos);

    // 2. Method features → natives on prototypes.
    for f in registry.features() {
        if f.kind != FeatureKind::Method {
            continue;
        }
        let proto = protos[&f.interface];
        let native = behavior_native(interp, &f.interface, &f.member, &protos);
        interp.heap.set_prop_raw(proto, &f.member, native);
    }

    // 3. Singletons.
    let mut singletons = Vec::new();
    for (global, iface) in [
        ("window", "Window"),
        ("document", "Document"),
        ("navigator", "Navigator"),
        ("performance", "Performance"),
    ] {
        let proto = protos.get(iface).copied();
        let obj = interp.heap.alloc(proto);
        interp.set_global(global, Value::Obj(obj));
        singletons.push((global.to_owned(), obj));
    }
    let window = singletons[0].1;
    for (name, obj) in &singletons[1..] {
        interp.heap.set_prop_raw(window, name, Value::Obj(*obj));
    }
    interp
        .heap
        .set_prop_raw(window, "window", Value::Obj(window));
    let document = singletons[1].1;
    // location: a plain object, not part of the registry surface here;
    // `href` is per page (see `bind_page`).
    let location = interp.heap.alloc(None);
    interp
        .heap
        .set_prop_raw(window, "location", Value::Obj(location));
    interp.set_global("location", Value::Obj(location));

    // 4. Global constructors for non-singleton interfaces.
    for (name, &proto) in protos.iter() {
        if matches!(
            name.as_str(),
            "Window" | "Document" | "Navigator" | "Performance"
        ) {
            continue;
        }
        let ctor = interp.register_native(Rc::new(|_, _, _| Ok(Value::Undefined)));
        let Some(ctor_obj) = ctor.as_obj() else {
            continue;
        };
        interp
            .heap
            .set_prop_raw(ctor_obj, "prototype", Value::Obj(proto));
        interp.set_global(name, ctor);
    }

    // 5. Plumbing globals (not registry features; uncounted by design).
    install_plumbing(interp);

    Layout {
        prototypes: protos,
        singletons,
        document,
        location,
    }
}

fn install_plumbing(interp: &mut Interpreter) {
    let set_timeout = interp.register_native(Rc::new(|i, _, args| {
        let cb = args.first().cloned().unwrap_or(Value::Undefined);
        let ms = args.get(1).map(|v| v.to_number()).unwrap_or(0.0);
        let ms = if ms.is_finite() && ms >= 0.0 {
            ms as u64
        } else {
            0
        };
        let host = host_of(i)?;
        let mut host = host.borrow_mut();
        let now = host.now;
        let id = host.timers.schedule(cb, now, ms);
        Ok(Value::Num(f64::from(id)))
    }));
    interp.set_global("setTimeout", set_timeout);

    let set_interval = interp.register_native(Rc::new(|i, _, args| {
        let cb = args.first().cloned().unwrap_or(Value::Undefined);
        let ms = args.get(1).map(|v| v.to_number()).unwrap_or(0.0);
        let ms = if ms.is_finite() && ms >= 1.0 {
            ms as u64
        } else {
            1
        };
        let host = host_of(i)?;
        let mut host = host.borrow_mut();
        let now = host.now;
        let id = host.timers.schedule_repeating(cb, now, ms);
        Ok(Value::Num(f64::from(id)))
    }));
    interp.set_global("setInterval", set_interval);

    let clear = interp.register_native(Rc::new(|i, _, args| {
        if let Some(id) = args.first().map(|v| v.to_number()) {
            if id.is_finite() && id >= 0.0 {
                host_of(i)?.borrow_mut().timers.cancel(id as u32);
            }
        }
        Ok(Value::Undefined)
    }));
    interp.set_global("clearTimeout", clear.clone());
    interp.set_global("clearInterval", clear);

    // `__listen(selector, type, fn)`: generator scaffolding used by the
    // synthetic web to wire interaction-triggered code without spending any
    // *registry* features on the wiring itself — so a site's measured
    // feature set equals its planned feature set exactly. Real pages would
    // use `addEventListener` (a DOM2-E feature); planned DOM2-E usage still
    // calls the real, instrumented `addEventListener`.
    let listen = interp.register_native(Rc::new(|i, _, args| {
        let sel_src = args.first().map(|v| v.to_display()).unwrap_or_default();
        let ev_type = args.get(1).map(|v| v.to_display()).unwrap_or_default();
        let cb = args.get(2).cloned().unwrap_or(Value::Undefined);
        let host = host_of(i)?;
        let mut hh = host.borrow_mut();
        let node = hh
            .compile_selector(&sel_src)
            .and_then(|s| s.query_first(&hh.doc))
            .unwrap_or(hh.doc.root());
        let handle = hh.add_listener_value(cb);
        hh.events.add_listener(node, &ev_type, handle, false);
        Ok(Value::Undefined)
    }));
    interp.set_global("__listen", listen);
}

/// Create the base (un-instrumented) native for a method feature.
fn behavior_native(
    interp: &mut Interpreter,
    interface: &str,
    member: &str,
    protos: &Rc<HashMap<String, ObjId>>,
) -> Value {
    let protos = protos.clone();
    match (interface, member) {
        ("Document", "createElement") => interp.register_native(Rc::new(move |i, _, args| {
            let host = host_of(i)?;
            let tag = args.first().map(|v| v.to_display()).unwrap_or_default();
            let node = host.borrow_mut().doc.create_element(&tag);
            Ok(wrap_node(i, &host, &protos, node))
        })),
        ("Node", "appendChild") => interp.register_native(Rc::new(move |i, this, args| {
            let host = host_of(i)?;
            let (Some(parent), Some(child)) =
                (node_of(i, &this), args.first().and_then(|a| node_of(i, a)))
            else {
                return Err(RuntimeError::TypeError("appendChild needs nodes".into()));
            };
            if !host.borrow().doc.is_ancestor(child, parent) {
                host.borrow_mut().doc.append_child(parent, child);
            }
            Ok(args[0].clone())
        })),
        ("Node", "insertBefore") => interp.register_native(Rc::new(move |i, this, args| {
            let host = host_of(i)?;
            let parent = node_of(i, &this);
            let child = args.first().and_then(|a| node_of(i, a));
            let reference = args.get(1).and_then(|a| node_of(i, a));
            match (parent, child, reference) {
                (Some(p), Some(c), Some(r))
                    if host.borrow().doc.children(p).contains(&r)
                        && !host.borrow().doc.is_ancestor(c, p) =>
                {
                    host.borrow_mut().doc.insert_before(p, c, r);
                }
                (Some(p), Some(c), None) if !host.borrow().doc.is_ancestor(c, p) => {
                    host.borrow_mut().doc.append_child(p, c);
                }
                _ => {}
            }
            Ok(args.first().cloned().unwrap_or(Value::Undefined))
        })),
        ("Node", "cloneNode") => interp.register_native(Rc::new(move |i, this, _| {
            let host = host_of(i)?;
            let Some(node) = node_of(i, &this) else {
                return Err(RuntimeError::TypeError("cloneNode needs a node".into()));
            };
            let copy = host.borrow_mut().doc.clone_subtree(node);
            Ok(wrap_node(i, &host, &protos, copy))
        })),
        ("Element", "remove") => interp.register_native(Rc::new(move |i, this, _| {
            let host = host_of(i)?;
            if let Some(node) = node_of(i, &this) {
                host.borrow_mut().doc.detach(node);
            }
            Ok(Value::Undefined)
        })),
        (_, "querySelectorAll") | (_, "querySelector") => {
            let first_only = member == "querySelector";
            interp.register_native(Rc::new(move |i, _, args| {
                let host = host_of(i)?;
                let sel_src = args.first().map(|v| v.to_display()).unwrap_or_default();
                let Some(sel) = host.borrow_mut().compile_selector(&sel_src) else {
                    return Ok(if first_only {
                        Value::Null
                    } else {
                        make_array(i, &[])
                    });
                };
                let nodes = sel.query_all(&host.borrow().doc);
                if first_only {
                    return Ok(match nodes.first() {
                        Some(&n) => wrap_node(i, &host, &protos, n),
                        None => Value::Null,
                    });
                }
                let items: Vec<Value> = nodes
                    .into_iter()
                    .map(|n| wrap_node(i, &host, &protos, n))
                    .collect();
                Ok(make_array(i, &items))
            }))
        }
        ("EventTarget", "addEventListener") => {
            interp.register_native(Rc::new(move |i, this, args| {
                let host = host_of(i)?;
                let ev_type = args.first().map(|v| v.to_display()).unwrap_or_default();
                let cb = args.get(1).cloned().unwrap_or(Value::Undefined);
                let capture = args.get(2).map(|v| v.truthy()).unwrap_or(false);
                let node = node_of(i, &this).unwrap_or(host.borrow().doc.root());
                let mut h = host.borrow_mut();
                let handle = h.add_listener_value(cb);
                h.events.add_listener(node, &ev_type, handle, capture);
                Ok(Value::Undefined)
            }))
        }
        ("XMLHttpRequest", "open") => interp.register_native(Rc::new(move |i, this, args| {
            let host = host_of(i)?;
            let url_str = args.get(1).map(|v| v.to_display()).unwrap_or_default();
            let mut h = host.borrow_mut();
            if let Ok(url) = h.base_url.join(&url_str) {
                h.pending_requests.push((url.clone(), ResourceType::Xhr));
                if let Some(obj) = this.as_obj() {
                    i.heap
                        .set_prop_raw(obj, "__url", Value::str(url.to_string()));
                }
            }
            Ok(Value::Undefined)
        })),
        ("Navigator", "sendBeacon") => interp.register_native(Rc::new(move |i, _, args| {
            let host = host_of(i)?;
            let url_str = args.first().map(|v| v.to_display()).unwrap_or_default();
            let mut h = host.borrow_mut();
            if let Ok(url) = h.base_url.join(&url_str) {
                h.pending_requests.push((url, ResourceType::Beacon));
            }
            Ok(Value::Bool(true))
        })),
        ("Window", "fetch") => interp.register_native(Rc::new(move |i, _, args| {
            let host = host_of(i)?;
            let url_str = args.first().map(|v| v.to_display()).unwrap_or_default();
            let mut h = host.borrow_mut();
            if let Ok(url) = h.base_url.join(&url_str) {
                h.pending_requests.push((url, ResourceType::Xhr));
            }
            Ok(Value::Obj(i.heap.alloc(None))) // a promise-shaped token
        })),
        ("Window", "requestAnimationFrame") => {
            interp.register_native(Rc::new(move |i, _, args| {
                let host = host_of(i)?;
                let cb = args.first().cloned().unwrap_or(Value::Undefined);
                let mut h = host.borrow_mut();
                let now = h.now;
                let id = h.timers.schedule(cb, now, 16);
                Ok(Value::Num(f64::from(id)))
            }))
        }
        ("HTMLCanvasElement", "getContext") => {
            let ctx_proto = protos.get("CanvasRenderingContext2D").copied();
            interp.register_native(Rc::new(move |i, _, _| {
                Ok(Value::Obj(i.heap.alloc(ctx_proto)))
            }))
        }
        ("Performance", "now") => interp.register_native(Rc::new(move |i, _, _| {
            let now = host_of(i)?.borrow().now;
            Ok(Value::Num(now.millis() as f64))
        })),
        ("Crypto", "getRandomValues") => interp.register_native(Rc::new(move |_, _, args| {
            Ok(args.first().cloned().unwrap_or(Value::Undefined))
        })),
        ("Storage", "setItem") => interp.register_native(Rc::new(move |i, this, args| {
            if let (Some(obj), Some(k), Some(v)) = (this.as_obj(), args.first(), args.get(1)) {
                i.heap
                    .set_prop_raw(obj, &format!("__item_{}", k.to_display()), v.clone());
            }
            Ok(Value::Undefined)
        })),
        ("Document", "execCommand") => {
            interp.register_native(Rc::new(move |_, _, _| Ok(Value::Bool(true))))
        }
        ("Element", "getBoundingClientRect") => interp.register_native(Rc::new(move |i, _, _| {
            let rect = i.heap.alloc(None);
            for (k, v) in [("x", 0.0), ("y", 0.0), ("width", 100.0), ("height", 20.0)] {
                i.heap.set_prop_raw(rect, k, Value::Num(v));
            }
            Ok(Value::Obj(rect))
        })),
        // Constructor-style factory methods that should return an object of
        // a related interface.
        ("Document", "createRange") => factory(interp, &protos, "Range"),
        ("Document", "evaluate") => factory(interp, &protos, "XPathResult"),
        ("IDBFactory", "open") => factory(interp, &protos, "IDBDatabase"),
        ("AudioContext", "createOscillator") => factory(interp, &protos, "OscillatorNode"),
        ("MediaDevices", "getUserMedia") => factory(interp, &protos, "MediaStream"),
        ("Window", "getSelection") => factory(interp, &protos, "Selection"),
        ("MediaSource", "addSourceBuffer") => factory(interp, &protos, "SourceBuffer"),
        ("RTCPeerConnection", "createOffer") => factory(interp, &protos, "RTCIceCandidate"),
        ("Document", "createTouch") => factory(interp, &protos, "Touch"),
        // Numeric-returning stubs for a few known measurement methods.
        ("SVGTextContentElement", "getComputedTextLength") => {
            interp.register_native(Rc::new(move |_, _, _| Ok(Value::Num(128.0))))
        }
        // Everything else: a plausible stub.
        _ => interp.register_native(Rc::new(move |_, _, _| Ok(Value::Undefined))),
    }
}

fn factory(interp: &mut Interpreter, protos: &Rc<HashMap<String, ObjId>>, iface: &str) -> Value {
    let proto = protos.get(iface).copied();
    interp.register_native(Rc::new(move |i, _, _| Ok(Value::Obj(i.heap.alloc(proto)))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfu_dom::html;

    fn setup() -> (Interpreter, ApiSurface, FeatureRegistry) {
        let registry = FeatureRegistry::build();
        let mut interp = Interpreter::new();
        let doc = html::parse("<html><head></head><body><div id=main></div></body></html>");
        let url = Url::parse("http://site.com/").unwrap();
        let host = Rc::new(RefCell::new(HostEnv::new(doc, url)));
        let api = install(&mut interp, &registry, host);
        (interp, api, registry)
    }

    #[test]
    fn create_element_and_append() {
        let (mut interp, api, _) = setup();
        interp
            .run_source(
                r#"
                var el = document.createElement('p');
                var main = document.querySelector('#main');
                main.appendChild(el);
            "#,
            )
            .unwrap();
        let host = api.host.borrow();
        let main = bfu_dom::Selector::parse("#main")
            .unwrap()
            .query_first(&host.doc)
            .unwrap();
        assert_eq!(host.doc.children(main).len(), 1);
        assert_eq!(host.doc.tag(host.doc.children(main)[0]), Some("p"));
    }

    #[test]
    fn query_selector_all_returns_array() {
        let (mut interp, _, _) = setup();
        let n = interp
            .run_source("document.querySelectorAll('div').length;")
            .unwrap();
        assert_eq!(n.to_number(), 1.0);
    }

    #[test]
    fn add_event_listener_registers() {
        let (mut interp, api, _) = setup();
        interp
            .run_source(
                r#"
                var main = document.querySelector('#main');
                main.addEventListener('click', function() { clicked = 1; });
            "#,
            )
            .unwrap();
        let host = api.host.borrow();
        assert_eq!(host.listeners.len(), 1);
        assert_eq!(host.events.listener_count(), 1);
    }

    #[test]
    fn xhr_open_queues_request() {
        let (mut interp, api, _) = setup();
        interp
            .run_source(
                r#"
                var x = new XMLHttpRequest();
                x.open('GET', '/api/data');
            "#,
            )
            .unwrap();
        let host = api.host.borrow();
        assert_eq!(host.pending_requests.len(), 1);
        assert_eq!(
            host.pending_requests[0].0.to_string(),
            "http://site.com/api/data"
        );
        assert_eq!(host.pending_requests[0].1, ResourceType::Xhr);
    }

    #[test]
    fn send_beacon_queues_beacon() {
        let (mut interp, api, _) = setup();
        interp
            .run_source("navigator.sendBeacon('http://metrics.io/b');")
            .unwrap();
        let host = api.host.borrow();
        assert_eq!(host.pending_requests[0].1, ResourceType::Beacon);
    }

    #[test]
    fn set_timeout_schedules_virtual_timer() {
        let (mut interp, api, _) = setup();
        interp
            .run_source("setTimeout(function() { fired = 1; }, 500);")
            .unwrap();
        assert_eq!(api.host.borrow().timers.len(), 1);
    }

    #[test]
    fn constructors_build_instances_with_interface_protos() {
        let (mut interp, _, _) = setup();
        let v = interp
            .run_source("var a = new AudioContext(); typeof a.createOscillator;")
            .unwrap();
        assert_eq!(v.to_display(), "function");
        // The factory returns an OscillatorNode-backed object.
        let o = interp
            .run_source("var osc = a.createOscillator(); osc;")
            .unwrap();
        let obj = o.as_obj().unwrap();
        assert_eq!(
            interp.heap.get_prop(obj, IFACE_MARKER).to_display(),
            "OscillatorNode"
        );
    }

    #[test]
    fn singleton_prototypes_marked() {
        let (mut interp, _, _) = setup();
        let v = interp.run_source("navigator;").unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(
            interp.heap.get_prop(obj, IFACE_MARKER).to_display(),
            "Navigator"
        );
    }

    #[test]
    fn performance_now_reads_virtual_clock() {
        let (mut interp, api, _) = setup();
        api.host.borrow_mut().now = Instant(1234);
        let v = interp.run_source("performance.now();").unwrap();
        assert_eq!(v.to_number(), 1234.0);
    }

    #[test]
    fn dom_hierarchy_wired() {
        let (mut interp, api, _) = setup();
        // An element object created via createElement should reach Node's
        // methods through the chain (HTMLElement -> Element -> Node).
        interp
            .run_source("var d = document.createElement('span'); d.cloneNode();")
            .unwrap();
        let _ = api; // chain lookup succeeding is the assertion
    }

    #[test]
    fn every_registry_method_is_callable() {
        // Spot-check a sample: every 37th method feature must resolve to a
        // callable through its interface prototype.
        let (interp, api, registry) = setup();
        for f in registry.features().iter().step_by(37) {
            if f.kind != FeatureKind::Method {
                continue;
            }
            let proto = api.prototypes[&f.interface];
            let v = interp.heap.get_prop(proto, &f.member);
            let obj = v.as_obj().unwrap_or_else(|| panic!("{} missing", f.name));
            assert!(interp.heap.is_callable(obj), "{} not callable", f.name);
        }
    }
}
