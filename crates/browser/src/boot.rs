//! Per-thread post-boot snapshots: every page boots by cloning one.
//!
//! Booting a page means building the whole Web API surface — a prototype
//! per interface, a native per method feature, constructors, singletons —
//! and then the measuring extension over it: some 2,100 heap objects and
//! 1,760 natives, about 1 ms per page. None of it depends on the page. The
//! natives find their page (its [`HostEnv`](crate::HostEnv) and its feature
//! log) through the interpreter's embedder slot, not through their
//! closures, so one booted interpreter can be cloned for every page and
//! each clone pointed at its own page. This is the per-realm intrinsics
//! pattern: build the realm's objects once through the builders, then hand
//! each realm a copy.
//!
//! Each thread keeps one snapshot in two stages, both made by the ordinary
//! builders ([`api::build`], [`instrument::build`]) the first time a page
//! on that thread needs them:
//!
//! - **post-API**: what [`api::install`] builds into a fresh interpreter;
//! - **post-instrumentation**: that, plus what
//!   [`Instrumentation::install_with_index`](crate::Instrumentation::install_with_index)
//!   adds.
//!
//! The snapshot is keyed by the registry's content digest
//! ([`FeatureRegistry::digest`]), never by its address: the crawler gives
//! every worker thread its own clone of the registry, and those clones must
//! share the snapshot. A thread that meets a registry with other content
//! replaces its snapshot. Snapshots are per thread because an interpreter
//! holds `Rc`s; a thread's snapshot lives as long as the thread.
//!
//! The snapshot sits behind the two public install calls rather than in
//! [`crate::Browser`] so that every embedder that boots a page through
//! them — the browser's load path and anything that replays it call by
//! call — gets the same boot, and the two keep timing alike.

use crate::api::{self, ApiSurface, Layout};
use crate::instrument::{self, PropIndex};
use crate::log::FeatureLog;
use bfu_script::interp::Interpreter;
use bfu_script::object::ObjId;
use bfu_webidl::FeatureRegistry;
use std::cell::RefCell;
use std::rc::Rc;

/// One thread's snapshot of a booted interpreter for one registry.
struct Snapshot {
    /// [`FeatureRegistry::digest`] of the registry it was built from.
    digest: u64,
    /// The post-API interpreter (embedder slot empty).
    api: Interpreter,
    /// Where the builder put the objects a page binds.
    layout: Layout,
    /// The post-instrumentation interpreter and its watch handler, built
    /// the first time a page on this thread is instrumented.
    instrumented: Option<(Interpreter, ObjId)>,
}

thread_local! {
    static SNAPSHOT: RefCell<Option<Snapshot>> = const { RefCell::new(None) };
}

/// Replace `interp` with a clone of this thread's post-API snapshot of
/// `registry`, building it first if needed. The clone is not yet bound to a
/// page.
pub(crate) fn api_stage(interp: &mut Interpreter, registry: &FeatureRegistry) -> Layout {
    SNAPSHOT.with(|cell| {
        let mut cell = cell.borrow_mut();
        let snap = match &mut *cell {
            Some(snap) if snap.digest == registry.digest() => snap,
            slot => {
                let mut fresh = Interpreter::new();
                let layout = api::build(&mut fresh, registry);
                slot.insert(Snapshot {
                    digest: registry.digest(),
                    api: fresh,
                    layout,
                    instrumented: None,
                })
            }
        };
        *interp = snap.api.clone();
        snap.layout.clone()
    })
}

/// Replace `interp` with a clone of this thread's post-instrumentation
/// snapshot, bound to `api`'s page and `log`, and return its watch handler.
///
/// `None`, leaving `interp` untouched, unless `interp` is still the
/// post-API clone [`api_stage`] handed out for `api`: `api` shares the
/// snapshot's prototype table, the interpreter's slot holds `api`'s page,
/// its heap, natives and fuel are the snapshot's, and `prop_index` indexes
/// the same registry content.
pub(crate) fn instrumented_stage(
    interp: &mut Interpreter,
    api: &ApiSurface,
    registry: &FeatureRegistry,
    prop_index: &PropIndex,
    log: &Rc<RefCell<FeatureLog>>,
) -> Option<ObjId> {
    SNAPSHOT.with(|cell| {
        let mut cell = cell.borrow_mut();
        let snap = cell.as_mut().filter(|s| s.digest == registry.digest())?;
        let untouched = Rc::ptr_eq(&api.prototypes, &snap.layout.prototypes)
            && interp
                .embedder::<api::PageSlot>()
                .is_some_and(|p| Rc::ptr_eq(&p.host, &api.host) && p.log.is_none())
            && interp.heap.len() == snap.api.heap.len()
            && interp.native_count() == snap.api.native_count()
            && interp.fuel() == snap.api.fuel()
            && prop_index.indexes(registry);
        if !untouched {
            return None;
        }
        let (booted, handler) = snap.instrumented.get_or_insert_with(|| {
            let mut booted = snap.api.clone();
            let handler = instrument::build(&mut booted, api, registry, prop_index);
            (booted, handler)
        });
        *interp = booted.clone();
        api::bind_page(interp, &snap.layout, &api.host, Some(Rc::clone(log)));
        Some(*handler)
    })
}
