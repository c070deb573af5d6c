//! The three workloads: how each is set up, what one timed pass does, and
//! the output checks every run makes.

use crate::decor::{TimedBackend, TimedObjectStore};
use crate::trace::Tracer;
use bfu_core::crawler::{policy_for, CrawlConfig, Dataset, SiteMeasurement, Survey};
use bfu_core::fabric::{run_survey_fabric, FabricConfig};
use bfu_core::net::WireFaultPlan;
use bfu_core::objstore::{
    ObjFaultPlan, ObjectBackend, ObjectServer, ObjectStore, RemoteClock, RemoteObjectStore,
    RemotePolicy, SimObjectStore, SimTransport,
};
use bfu_core::store::{
    load_survey_dataset_on, resume_survey_on, LoadOutcome, LocalFs, StorageBackend,
};
use bfu_core::util::{SimRng, VirtualClock};
use bfu_core::webgen::{SyntheticWeb, WebConfig};
use bfu_core::webidl::FeatureRegistry;
use bfu_core::{Study, StudyConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `repro --store` on the calibrated web: crawl into a fresh store,
    /// then report and render.
    PaperWeb,
    /// The same pipeline on a web whose scripts carry library-sized bodies.
    HeavyScripts,
    /// The lease fabric over the remote object-store stack.
    Fabric,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper-web" => Some(Kind::PaperWeb),
            "heavy-scripts" => Some(Kind::HeavyScripts),
            "fabric" => Some(Kind::Fabric),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperWeb => "paper-web",
            Kind::HeavyScripts => "heavy-scripts",
            Kind::Fabric => "fabric",
        }
    }

    /// Sites in the generated web.
    pub fn sites(self) -> usize {
        match self {
            Kind::PaperWeb => 40,
            Kind::HeavyScripts => 16,
            Kind::Fabric => 256,
        }
    }

    /// Inert library functions per generated script.
    pub fn script_weight(self) -> u32 {
        match self {
            Kind::HeavyScripts => 400,
            _ => 0,
        }
    }
}

/// Survey threads (crawl workloads) or fabric workers: two, capped at the
/// machine's parallelism.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Everything set-up builds for one workload.
pub struct Setup {
    /// The workload.
    pub kind: Kind,
    /// The generated web.
    pub web: SyntheticWeb,
    /// The survey every pass runs.
    pub survey: Survey,
    /// Study configuration the reports are built under.
    pub study: StudyConfig,
    /// The dataset fingerprint of a plain single-process `Survey::run`.
    pub reference: u64,
}

/// Seed of every workload's web. The web is a fixed calibrated sample so
/// that runs with different seeds do the same amount of work; `--seed`
/// drives the crawl's own randomness (link choice, monkey events, fault
/// sampling), so each seed is a different input to the program.
pub const WEB_SEED: u64 = 0x0B5E_55ED;

/// Build a workload's inputs from `seed`.
pub fn setup(kind: Kind, seed: u64, tracer: Option<&Tracer>) -> Setup {
    let span = |name| tracer.map(|t| t.span(name, 0));
    let generate = span("webgen.generate");
    let web = SyntheticWeb::generate(WebConfig {
        sites: kind.sites(),
        seed: WEB_SEED,
        script_weight: kind.script_weight(),
    });
    drop(generate);
    let registry = span("webidl.registry");
    std::hint::black_box(FeatureRegistry::build());
    drop(registry);
    let study = {
        let mut c = StudyConfig::quick(kind.sites(), seed);
        c.threads = parallelism();
        c
    };
    let config = match kind {
        Kind::Fabric => fabric_crawl_config(seed),
        _ => study.crawl_config(),
    };
    let blockers = span("blocker.build");
    for &p in &config.profiles {
        std::hint::black_box(policy_for(&web, p));
    }
    drop(blockers);
    let survey = Survey::new(web.clone(), config);
    // The reference every pass must match: a plain single-process survey,
    // no store and no fabric. Thread count is outside the fingerprint, so
    // it may use every survey thread. It also makes set-up a two-thread
    // crawl like the passes, whose time the host's speed phases move far
    // less than a 10 ms single-threaded set-up's (by 44 % between sets).
    let mut reference = survey.config().clone();
    reference.threads = parallelism();
    let reference = Survey::new(web.clone(), reference).run().fingerprint();
    Setup {
        kind,
        web,
        survey,
        study,
        reference,
    }
}

/// The shallow crawl `fabric_bench` runs: one round, two pages per site,
/// two profiles, single-threaded per worker so workers are the parallelism.
fn fabric_crawl_config(seed: u64) -> CrawlConfig {
    let mut config = CrawlConfig::quick(seed ^ 0xBEEF);
    config.threads = 1;
    config.rounds_per_profile = 1;
    config.pages_per_site = 2;
    config.page_budget_ms = 2_000;
    config
}

/// An empty directory `name` under `scratch`.
pub fn fresh_dir(scratch: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// What one timed pass produced.
pub struct Pass {
    /// Input to rendered report, seconds.
    pub wall_s: f64,
    /// The crawl part, seconds.
    pub crawl_s: f64,
    /// The dataset the pass produced or loaded.
    pub dataset: Dataset,
    /// The rendered report.
    pub report: String,
    /// The storage the pass wrote (fabric: its object-store stack).
    pub backend: Arc<dyn StorageBackend>,
    /// Fabric only: leases issued and publishes fenced.
    pub fabric: Option<(u64, u64)>,
}

fn render(setup: &Setup, dataset: Dataset, tracer: Option<&Tracer>) -> String {
    let study = Study::from_parts(setup.web.clone(), dataset, setup.study.clone());
    let span = tracer.map(|t| t.span("analysis.report", 0));
    let report = study.report();
    drop(span);
    let span = tracer.map(|t| t.span("analysis.render", 0));
    let text = report.render_all();
    drop(span);
    text
}

fn local_backend(
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Arc<dyn StorageBackend>, String> {
    let fs: Arc<dyn StorageBackend> =
        Arc::new(LocalFs::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))?);
    Ok(match tracer {
        Some(t) => Arc::new(TimedBackend::new(fs, Arc::clone(t))),
        None => fs,
    })
}

/// One crawl pass of `paper-web` or `heavy-scripts`: crawl into a fresh
/// store at `dir`, then report and render.
pub fn crawl_pass(setup: &Setup, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Pass, String> {
    let backend = local_backend(dir, tracer)?;
    let t0 = Instant::now();
    let span = tracer.map(|t| t.root_span("store.resume", 0));
    let outcome = resume_survey_on(&setup.survey, Arc::clone(&backend))
        .map_err(|e| format!("resume_survey_on: {e}"))?;
    drop(span);
    let crawl_s = t0.elapsed().as_secs_f64();
    let dataset = outcome.dataset;
    let report = render(setup, dataset.clone(), tracer.map(|t| &**t));
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        crawl_s,
        dataset,
        report,
        backend,
        fabric: None,
    })
}

/// The remote object-store stack the fabric runs over: `ObjectBackend` →
/// (timing decorator) → `RemoteObjectStore` → `SimTransport` →
/// `ObjectServer` → `SimObjectStore`, all fault-free.
fn fabric_backend(tracer: Option<&Arc<Tracer>>) -> Arc<dyn StorageBackend> {
    let server = Arc::new(ObjectServer::new(
        Arc::new(SimObjectStore::new(ObjFaultPlan::none())) as Arc<dyn ObjectStore>,
    ));
    let clock = Arc::new(Mutex::new(VirtualClock::new()));
    let remote: Arc<dyn ObjectStore> = Arc::new(RemoteObjectStore::new(
        1,
        Box::new(SimTransport::new(
            server,
            WireFaultPlan::none(),
            Arc::clone(&clock),
            2,
        )),
        RemoteClock::Virtual(Arc::clone(&clock)),
        RemotePolicy::default(),
    ));
    let store = match tracer {
        Some(t) => Arc::new(TimedObjectStore::new(remote, Arc::clone(t))) as Arc<dyn ObjectStore>,
        None => remote,
    };
    Arc::new(ObjectBackend::with_clock(store, clock))
}

/// One fabric pass: two workers, one site per lease, then report and render.
pub fn fabric_pass(setup: &Setup, tracer: Option<&Arc<Tracer>>) -> Result<Pass, String> {
    let backend = fabric_backend(tracer);
    let cfg = FabricConfig {
        workers: parallelism(),
        sites_per_lease: 1,
        ..FabricConfig::default()
    };
    let t0 = Instant::now();
    let span = tracer.map(|t| t.root_span("fabric.run", 0));
    let outcome = run_survey_fabric(&setup.survey, Arc::clone(&backend), &cfg)
        .map_err(|e| format!("run_survey_fabric: {e}"))?;
    drop(span);
    let crawl_s = t0.elapsed().as_secs_f64();
    let report = render(setup, outcome.dataset.clone(), tracer.map(|t| &**t));
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        crawl_s,
        dataset: outcome.dataset,
        report,
        backend,
        fabric: Some((outcome.stats.leases_issued, outcome.stats.publishes_fenced)),
    })
}

/// One re-render: read the whole dataset back from `backend`, report and
/// render. Returns the seconds it took, the dataset and the text.
pub fn rerender(
    setup: &Setup,
    backend: Arc<dyn StorageBackend>,
    tracer: Option<&Tracer>,
) -> Result<(f64, Dataset, String), String> {
    let t0 = Instant::now();
    let span = tracer.map(|t| t.root_span("store.scan", 0));
    let loaded =
        load_survey_dataset_on(&setup.survey, backend).map_err(|e| format!("load: {e}"))?;
    drop(span);
    let dataset = match loaded {
        LoadOutcome::Complete { dataset, .. } => dataset,
        LoadOutcome::Incomplete {
            present, missing, ..
        } => {
            return Err(format!(
                "store incomplete: {present} present, {missing} missing"
            ))
        }
    };
    let text = render(setup, dataset.clone(), tracer);
    Ok((t0.elapsed().as_secs_f64(), dataset, text))
}

/// Sites `SiteCrawler` recrawls to check a dataset, chosen from the seed.
pub fn sample_sites(kind: Kind, seed: u64, k: usize) -> Vec<usize> {
    let mut rng = SimRng::new(seed ^ 0x9E37_79B9_7F4A_7C15).fork(kind.name());
    let mut v = rng.sample_indices(kind.sites(), k.min(kind.sites()));
    v.sort_unstable();
    v
}

/// Fingerprint of a single site's measurement.
pub fn site_fingerprint(survey: &Survey, m: &SiteMeasurement) -> u64 {
    Dataset {
        profiles: survey.config().profiles.clone(),
        rounds_per_profile: survey.config().rounds_per_profile,
        sites: vec![m.clone()],
        cache: Default::default(),
    }
    .fingerprint()
}

/// Check: `sites` recrawled one at a time through `SiteCrawler::crawl`, on
/// the same survey with the compile cache off, equal the dataset's entries.
pub fn check_recrawl(
    setup: &Setup,
    dataset: &Dataset,
    sites: &[usize],
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let mut config = setup.survey.config().clone();
    config.compile_cache = false;
    let survey = Survey::new(setup.web.clone(), config);
    let mut crawler = survey.site_crawler();
    for &ix in sites {
        let span = tracer.map(|t| t.span("crawler.site", ix as u64));
        let m = crawler.crawl(ix);
        drop(span);
        if site_fingerprint(&survey, &m) != site_fingerprint(&survey, &dataset.sites[ix]) {
            return Err(format!(
                "site {ix} recrawled through SiteCrawler::crawl differs from the dataset entry"
            ));
        }
    }
    Ok(())
}
