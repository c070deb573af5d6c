//! Transparent timing decorators for the layers a caller reaches only
//! through a trait object it passes in.
//!
//! Each decorator forwards **every** trait method to the wrapped value —
//! the provided (defaulted) ones too — so wrapping never swaps in the
//! trait's weaker default semantics, and records a span around each call.

use crate::trace::Tracer;
use bfu_core::browser::RequestPolicy;
use bfu_core::crawler::BackendTotals;
use bfu_core::net::HttpRequest;
use bfu_core::objstore::{ObjectStore, RemoteTotals, ReplicaTotals};
use bfu_core::store::{StorageBackend, StorageFile};
use std::fmt;
use std::io;
use std::sync::Arc;

/// Every span name [`TimedBackend`] records: one per storage operation.
pub const STORE_OPS: &[&str] = &[
    "store.create",
    "store.get",
    "store.rename",
    "store.remove",
    "store.exists",
    "store.list",
    "store.sync_dir",
    "store.put",
    "store.replace",
    "store.generation",
    "store.replace_if",
    "store.write",
    "store.flush",
    "store.sync_all",
];

/// Every span name [`TimedObjectStore`] records.
pub const OBJSTORE_OPS: &[&str] = &[
    "objstore.put",
    "objstore.get",
    "objstore.delete",
    "objstore.list",
    "objstore.head",
    "objstore.put_if",
    "objstore.put_at",
    "objstore.get_at",
];

fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    errors: &'static str,
    f: impl FnOnce() -> io::Result<T>,
) -> io::Result<T> {
    let span = tracer.span(name, 0);
    let out = f();
    span.end();
    if out.is_err() {
        tracer.count(errors, 1);
    }
    out
}

/// A [`StorageBackend`] that times every call into the wrapped backend.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn StorageBackend>, tracer: Arc<Tracer>) -> Self {
        TimedBackend { inner, tracer }
    }

    fn op<T>(&self, name: &'static str, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        timed(&self.tracer, name, "store.errors", f)
    }
}

impl fmt::Debug for TimedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedBackend").field(&self.inner).finish()
    }
}

struct TimedFile {
    inner: Box<dyn StorageFile>,
    tracer: Arc<Tracer>,
}

impl fmt::Debug for TimedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedFile").field(&self.inner).finish()
    }
}

impl StorageFile for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = timed(&self.tracer, "store.write", "store.errors", || {
            self.inner.write(buf)
        })?;
        self.tracer.count("store.write_bytes", n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        timed(&self.tracer, "store.flush", "store.errors", || {
            self.inner.flush()
        })
    }

    fn sync_all(&mut self) -> io::Result<()> {
        timed(&self.tracer, "store.sync_all", "store.errors", || {
            self.inner.sync_all()
        })
    }
}

impl StorageBackend for TimedBackend {
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let inner = self.op("store.create", || self.inner.create(name))?;
        Ok(Box::new(TimedFile {
            inner,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.op("store.get", || self.inner.get(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.op("store.rename", || self.inner.rename(from, to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.op("store.remove", || self.inner.remove(name))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        self.op("store.exists", || self.inner.exists(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.op("store.list", || self.inner.list())
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.op("store.sync_dir", || self.inner.sync_dir())
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn put(&self, name: &str, contents: &[u8]) -> io::Result<()> {
        self.tracer
            .count("store.write_bytes", contents.len() as u64);
        self.op("store.put", || self.inner.put(name, contents))
    }

    fn replace(&self, name: &str, contents: &[u8]) -> io::Result<()> {
        self.tracer
            .count("store.write_bytes", contents.len() as u64);
        self.op("store.replace", || self.inner.replace(name, contents))
    }

    fn op_totals(&self) -> Option<BackendTotals> {
        self.inner.op_totals()
    }

    fn generation(&self, name: &str) -> io::Result<u64> {
        self.op("store.generation", || self.inner.generation(name))
    }

    fn replace_if(&self, name: &str, expected: u64, contents: &[u8]) -> io::Result<u64> {
        self.tracer
            .count("store.write_bytes", contents.len() as u64);
        self.op("store.replace_if", || {
            self.inner.replace_if(name, expected, contents)
        })
    }
}

/// An [`ObjectStore`] that times every call into the wrapped store.
pub struct TimedObjectStore {
    inner: Arc<dyn ObjectStore>,
    tracer: Arc<Tracer>,
}

impl TimedObjectStore {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn ObjectStore>, tracer: Arc<Tracer>) -> Self {
        TimedObjectStore { inner, tracer }
    }

    fn op<T>(&self, name: &'static str, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        timed(&self.tracer, name, "objstore.errors", f)
    }
}

impl fmt::Debug for TimedObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedObjectStore")
            .field(&self.inner)
            .finish()
    }
}

impl ObjectStore for TimedObjectStore {
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.op("objstore.put", || self.inner.put(name, bytes))
    }

    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.op("objstore.get", || self.inner.get(name))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.op("objstore.delete", || self.inner.delete(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.op("objstore.list", || self.inner.list())
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn head(&self, name: &str) -> io::Result<u64> {
        self.op("objstore.head", || self.inner.head(name))
    }

    fn put_if(&self, name: &str, expected: u64, bytes: &[u8]) -> io::Result<u64> {
        self.op("objstore.put_if", || {
            self.inner.put_if(name, expected, bytes)
        })
    }

    fn remote_totals(&self) -> Option<RemoteTotals> {
        self.inner.remote_totals()
    }

    fn put_at(&self, name: &str, gen: u64, bytes: &[u8]) -> io::Result<()> {
        self.op("objstore.put_at", || self.inner.put_at(name, gen, bytes))
    }

    fn get_at(&self, name: &str, gen: u64) -> io::Result<Vec<u8>> {
        self.op("objstore.get_at", || self.inner.get_at(name, gen))
    }

    fn replica_totals(&self) -> Option<ReplicaTotals> {
        self.inner.replica_totals()
    }
}

/// A [`RequestPolicy`] that times every decision of the wrapped policy and
/// counts how many it blocked.
pub struct TimedPolicy<'t, P> {
    inner: P,
    tracer: &'t Tracer,
}

impl<'t, P: RequestPolicy> TimedPolicy<'t, P> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: P, tracer: &'t Tracer) -> Self {
        TimedPolicy { inner, tracer }
    }
}

impl<P: RequestPolicy> RequestPolicy for TimedPolicy<'_, P> {
    fn decide(&self, req: &HttpRequest) -> Option<String> {
        let span = self.tracer.span("blocker.decide", 0);
        let out = self.inner.decide(req);
        span.end();
        self.tracer.count("blocker.decisions", 1);
        if out.is_some() {
            self.tracer.count("blocker.blocked", 1);
        }
        out
    }

    fn hiding_selectors(&self, domain: &str) -> Vec<String> {
        let _span = self.tracer.span("blocker.hiding", 0);
        self.inner.hiding_selectors(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfu_core::crawler::{CrawlConfig, Survey};
    use bfu_core::fabric::{run_survey_fabric, FabricConfig};
    use bfu_core::objstore::{ObjFaultPlan, ObjectBackend, SimObjectStore};
    use bfu_core::store::{
        load_survey_dataset_on, resume_survey_on, FaultFs, LoadOutcome, StoreFaultPlan,
    };
    use bfu_core::webgen::{SyntheticWeb, WebConfig};

    fn survey() -> Survey {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 6,
            seed: 11,
            script_weight: 0,
        });
        let mut config = CrawlConfig::quick(11);
        config.rounds_per_profile = 1;
        config.pages_per_site = 2;
        config.page_budget_ms = 2_000;
        Survey::new(web, config)
    }

    #[test]
    fn timed_backend_keeps_the_fingerprint() {
        let survey = survey();
        let plain = survey.run().fingerprint();
        let tracer = Arc::new(Tracer::default());
        let backend: Arc<dyn StorageBackend> = Arc::new(TimedBackend::new(
            Arc::new(FaultFs::new(StoreFaultPlan::none())),
            Arc::clone(&tracer),
        ));
        let written = resume_survey_on(&survey, Arc::clone(&backend)).expect("resume");
        assert_eq!(written.dataset.fingerprint(), plain);
        match load_survey_dataset_on(&survey, backend).expect("load") {
            LoadOutcome::Complete { dataset, .. } => assert_eq!(dataset.fingerprint(), plain),
            LoadOutcome::Incomplete { .. } => panic!("store incomplete"),
        }
        assert!(!tracer.durations("store.sync_all").is_empty());
        assert!(tracer.counter("store.write_bytes") > 0);
    }

    #[test]
    fn timed_backend_forwards_generations_and_cas() {
        // ObjectBackend implements the defaulted generation/replace_if; a
        // decorator that fell back to the defaults would say Unsupported.
        let inner: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(Arc::new(
            SimObjectStore::new(ObjFaultPlan::none()),
        )));
        let timed = TimedBackend::new(Arc::clone(&inner), Arc::new(Tracer::default()));
        let gen = timed.replace_if("k", 0, b"v1").expect("cas create");
        assert_eq!(timed.generation("k").expect("generation"), gen);
        assert_eq!(inner.generation("k").expect("generation"), gen);
        assert!(timed.replace_if("k", gen + 1, b"v2").is_err());
        assert_eq!(timed.op_totals(), inner.op_totals());
    }

    #[test]
    fn timed_object_store_keeps_the_fabric_fingerprint() {
        let survey = survey();
        let plain = survey.run().fingerprint();
        let tracer = Arc::new(Tracer::default());
        let store: Arc<dyn ObjectStore> = Arc::new(TimedObjectStore::new(
            Arc::new(SimObjectStore::new(ObjFaultPlan::none())),
            Arc::clone(&tracer),
        ));
        let cfg = FabricConfig {
            workers: 2,
            sites_per_lease: 1,
            ..FabricConfig::default()
        };
        let outcome =
            run_survey_fabric(&survey, Arc::new(ObjectBackend::new(store)), &cfg).expect("fabric");
        assert_eq!(outcome.dataset.fingerprint(), plain);
        assert!(!tracer.durations("objstore.put").is_empty());
        assert!(!tracer.durations("objstore.get").is_empty());
    }

    #[test]
    fn timed_object_store_forwards_exact_generation_ops() {
        let inner = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
        let timed = TimedObjectStore::new(inner, Arc::new(Tracer::default()));
        let gen = timed.put_if("k", 0, b"v").expect("put_if");
        assert_eq!(timed.head("k").expect("head"), gen);
        timed.put_at("j", gen, b"w").expect("put_at forwarded");
        assert_eq!(timed.get_at("j", gen).expect("get_at forwarded"), b"w");
    }
}
