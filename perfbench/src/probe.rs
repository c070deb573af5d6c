//! The traced run's look inside a site crawl and a page load.
//!
//! Two parts, both on a seed-chosen sample of the workload's sites:
//!
//! 1. **Site rounds.** Each sampled site is crawled again through a copy
//!    of the crawler's per-site procedure built only from public calls
//!    (`load_with_retry`, `GremlinHorde::interact`, the blocker policy
//!    behind [`TimedPolicy`]). Its measurement must fingerprint exactly
//!    like the dataset's entry, which shows both that the copy is faithful
//!    and that the policy decorator changes nothing.
//! 2. **Page loads.** Pages those rounds visited are loaded twice: once
//!    through `Browser::load`, and once through [`probe_load`], which calls
//!    the same public functions `Browser::load` calls, on the same inputs,
//!    with a span around each — document and subresource fetches, HTML
//!    parse, boot (interpreter, API surface, instrumentation), script
//!    cache lookups and execution. Both must record the same feature log,
//!    and the probe's spans must explain the `Browser::load` time within
//!    [`LOAD_TOLERANCE`].

use crate::decor::TimedPolicy;
use crate::trace::Tracer;
use crate::workload::{site_fingerprint, Setup};
use bfu_core::browser::api::{self, ApiSurface, HostEnv};
use bfu_core::browser::cache::FrameScript;
use bfu_core::browser::{
    Browser, BrowserConfig, CompileCache, FeatureLog, Instrumentation, LoadStats, PropIndex,
    RequestPolicy,
};
use bfu_core::crawler::{
    load_with_retry, policy_for, Admission, BrowserProfile, CrawlConfig, CrawlError, HostBreaker,
    PolicyAdapter, RoundMeasurement, SiteMeasurement, SiteOutcome, Survey,
};
use bfu_core::dom::html;
use bfu_core::monkey::{CrawlPlanner, GremlinHorde, Interactor};
use bfu_core::net::{HttpRequest, ResourceType, SimNet, Url};
use bfu_core::script::cache::{CacheOutcome, ChunkError};
use bfu_core::script::interp::Interpreter;
use bfu_core::script::{run_chunk, Engine};
use bfu_core::util::{hash_label, SimRng, VirtualClock};
use bfu_core::webgen::SiteId;
use bfu_core::webidl::FeatureRegistry;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// How far the probe's summed spans may sit from the summed
/// `Browser::load` time, as a share of the latter.
pub const LOAD_TOLERANCE: f64 = 0.25;

/// At most this many pages are loaded both ways.
const MAX_PAGES: usize = 80;

/// A page a replayed round visited, with the fault context it ran under.
struct Visit {
    url: Url,
    profile: usize,
    fault_ctx: u64,
}

/// What the probe measured besides its spans.
pub struct ProbeReport {
    /// Pages loaded both ways.
    pub pages: usize,
    /// Summed `Browser::load` seconds.
    pub load_s: f64,
    /// Summed probe seconds.
    pub probe_s: f64,
    /// Summed probe seconds its child spans cover.
    pub covered_s: f64,
    /// Network exchanges during the replayed rounds.
    pub requests: u64,
}

/// One worker's private world, built as the survey builds it.
fn world(survey: &Survey) -> (SimNet, Browser, Vec<(BrowserProfile, PolicyAdapter)>) {
    let config = survey.config();
    let web = survey.web();
    let mut net = SimNet::new(SimRng::new(config.seed ^ 0x5EED));
    web.install_into(&mut net);
    let mut faults = net.faults().clone();
    if faults.seed == 0 {
        faults.seed = config.seed;
    }
    net.set_faults(faults);
    let registry = Rc::new((**web.registry()).clone());
    let mut browser = Browser::with_config(registry, config.browser.clone());
    if config.compile_cache {
        browser.set_compile_cache(Arc::new(CompileCache::new()));
    }
    let policies = config
        .profiles
        .iter()
        .map(|&p| (p, policy_for(web, p)))
        .collect();
    (net, browser, policies)
}

fn round_slot_ms(config: &CrawlConfig) -> u64 {
    config
        .page_budget_ms
        .saturating_mul(config.pages_per_site as u64)
        .saturating_mul(2)
        .max(config.page_budget_ms)
}

fn harvest_budget_stats(m: &mut RoundMeasurement, stats: &LoadStats) {
    m.script_budget_errors += stats.script_budget_errors + stats.script_oversize_errors;
    m.script_heap_errors += stats.script_heap_errors;
    m.script_depth_errors += stats.script_depth_errors;
}

fn fatal_script_class(stats: &LoadStats) -> Option<CrawlError> {
    if stats.scripts_run == 0 {
        return None;
    }
    if stats.script_parse_errors == stats.scripts_run {
        return Some(CrawlError::ScriptSyntax);
    }
    if stats.budget_trips() == stats.scripts_run {
        return Some(CrawlError::ScriptBudget);
    }
    None
}

/// One site-round, the crawler's procedure step for step, with spans
/// around page loads and interaction.
#[allow(clippy::too_many_arguments)]
fn round(
    survey: &Survey,
    browser: &Browser,
    net: &mut SimNet,
    policy: &dyn RequestPolicy,
    profile: (usize, BrowserProfile),
    domain: &str,
    round: u32,
    rng: &mut SimRng,
    breaker: &mut HostBreaker,
    visits: &mut Vec<Visit>,
    tracer: &Tracer,
) -> RoundMeasurement {
    let config = survey.config();
    let wait_ms = match breaker.admit(round_slot_ms(config)) {
        Admission::Skip => return RoundMeasurement::failed_with(round, CrawlError::CircuitOpen),
        Admission::Proceed { wait_ms, .. } => wait_ms,
    };
    let mut clock = VirtualClock::new();
    let start = clock.now();
    clock.advance(wait_ms);
    let mut merged = FeatureLog::new();
    let mut planner = CrawlPlanner::new(domain);
    let mut pages_visited = 0u32;
    let mut m = RoundMeasurement::empty(round);
    let fault_ctx =
        hash_label(domain) ^ hash_label(profile.1.label()).rotate_left(17) ^ u64::from(round);
    net.set_fault_context(fault_ctx);
    let Ok(home) = Url::parse(&format!("http://{domain}/")) else {
        return RoundMeasurement::failed_with(round, CrawlError::DeadHost);
    };
    let watchdog = clock.now().plus(round_slot_ms(config));
    let mut frontier = vec![home];
    let mut error = None;
    while let Some(url) = frontier.pop() {
        if pages_visited as usize >= config.pages_per_site {
            break;
        }
        if clock.now() > watchdog {
            if pages_visited == 0 && error.is_none() {
                error = Some(CrawlError::WatchdogExpired);
            }
            break;
        }
        planner.mark_visited(&url);
        let span = tracer.span("crawler.page_load", 0);
        let (page, trace) = load_with_retry(
            browser,
            net,
            &url,
            policy,
            &mut clock,
            watchdog,
            &config.retry,
        );
        span.end();
        m.attempts += trace.attempts;
        m.retries += trace.retries;
        m.backoff_ms += trace.backoff_ms;
        let Some(mut page) = page else {
            if pages_visited == 0 {
                error = trace.error;
            }
            continue;
        };
        visits.push(Visit {
            url: url.clone(),
            profile: profile.0,
            fault_ctx,
        });
        if pages_visited == 0 {
            if let Some(fatal) = fatal_script_class(&page.stats) {
                harvest_budget_stats(&mut m, &page.stats);
                error = Some(fatal);
                break;
            }
        }
        pages_visited += 1;
        let mut horde = GremlinHorde::new(rng.fork_idx(u64::from(pages_visited)));
        let span = tracer.span("monkey.interact", 0);
        let report = horde.interact(&mut page, net, policy, &mut clock, config.page_budget_ms);
        span.end();
        merged.merge(&page.log.borrow());
        harvest_budget_stats(&mut m, &page.stats);
        let mut candidates = report.navigations;
        candidates.extend(page.links());
        for n in planner.select(&candidates, config.fanout, rng) {
            frontier.insert(0, n);
        }
    }
    m.log = merged;
    m.pages_visited = pages_visited;
    m.interaction_ms = clock.now().since(start);
    m.error = error;
    breaker.observe(m.error);
    m
}

/// Crawl `site_ix` through the replayed procedure with every request
/// decision going through [`TimedPolicy`].
fn replay_site(
    survey: &Survey,
    browser: &Browser,
    net: &mut SimNet,
    policies: &[(BrowserProfile, PolicyAdapter)],
    site_ix: usize,
    visits: &mut Vec<Visit>,
    tracer: &Tracer,
) -> SiteMeasurement {
    let config = survey.config();
    let site = SiteId::from_usize(site_ix);
    let plan = survey.web().plan(site);
    let base_rng = SimRng::new(config.seed).fork_idx(site_ix as u64);
    let mut breaker = HostBreaker::new(config.breaker);
    let mut rounds = Vec::new();
    for (pix, (profile, policy)) in policies.iter().enumerate() {
        let timed = TimedPolicy::new(policy.clone(), tracer);
        let mut per_round = Vec::new();
        for r in 0..config.rounds_per_profile {
            let mut rng = base_rng.fork(profile.label()).fork_idx(u64::from(r));
            per_round.push(round(
                survey,
                browser,
                net,
                &timed,
                (pix, *profile),
                &plan.site.domain,
                r,
                &mut rng,
                &mut breaker,
                visits,
                tracer,
            ));
        }
        rounds.push((*profile, per_round));
    }
    SiteMeasurement {
        site,
        domain: plan.site.domain.clone(),
        traffic_weight: plan.site.traffic_weight,
        outcome: SiteOutcome::from_rounds(&rounds),
        rounds,
    }
}

/// The parts of a browser [`probe_load`] needs, with its own cache.
struct ProbeBrowser {
    registry: Rc<FeatureRegistry>,
    config: BrowserConfig,
    cache: Arc<CompileCache>,
    prop_index: PropIndex,
}

fn bind_document_tree_globals(interp: &mut Interpreter, api: &ApiSurface) {
    let Some(doc_obj) = api
        .singletons
        .iter()
        .find(|(n, _)| n == "document")
        .map(|(_, o)| *o)
    else {
        return;
    };
    let (body, head, html_el) = {
        let h = api.host.borrow();
        (
            h.doc.first_by_tag("body"),
            h.doc.first_by_tag("head"),
            h.doc.first_by_tag("html"),
        )
    };
    for (prop, node) in [("body", body), ("head", head), ("documentElement", html_el)] {
        if let Some(n) = node {
            let v = api::wrap_node(interp, &api.host, &api.prototypes, n);
            interp.heap.set_prop_raw(doc_obj, prop, v);
        }
    }
}

enum Resource {
    Inline(String),
    External(String, ResourceType),
}

fn collect_resources(api: &ApiSurface) -> Vec<Resource> {
    let h = api.host.borrow();
    let mut out = Vec::new();
    for node in h.doc.elements() {
        let attr = |name| h.doc.attr(node, name).map(str::to_owned);
        match h.doc.tag(node) {
            Some("script") => match attr("src") {
                Some(src) => out.push(Resource::External(src, ResourceType::Script)),
                None => out.push(Resource::Inline(h.doc.text_content(node))),
            },
            Some("img") => {
                if let Some(src) = attr("src") {
                    out.push(Resource::External(src, ResourceType::Image));
                }
            }
            Some("iframe") => {
                if let Some(src) = attr("src") {
                    out.push(Resource::External(src, ResourceType::SubDocument));
                }
            }
            Some("link") if h.doc.attr(node, "rel") == Some("stylesheet") => {
                if let Some(href) = attr("href") {
                    out.push(Resource::External(href, ResourceType::Stylesheet));
                }
            }
            _ => {}
        }
    }
    out
}

/// Look a script up in the cache (span `script.lookup`) and run it
/// (span `script.exec`), as the browser's cached path does.
fn run_script(interp: &mut Interpreter, src: &str, b: &ProbeBrowser, tracer: &Tracer) {
    if src.len() > b.config.max_script_bytes {
        return;
    }
    let scripts = b.cache.scripts();
    match b.config.engine {
        Engine::TreeWalk => {
            let span = tracer.span("script.lookup", 0);
            let (result, outcome) = scripts.lookup_or_parse_counted(src);
            span.end();
            count_outcome(tracer, outcome);
            if let Ok(program) = result {
                let _span = tracer.span("script.exec", 0);
                interp.set_budget(&b.config.run_budget());
                let _ = interp.run(&program);
            }
        }
        Engine::Vm => {
            let span = tracer.span("script.lookup", 0);
            let (result, outcome) = scripts.lookup_or_compile_counted(src);
            span.end();
            count_outcome(tracer, outcome);
            match result {
                Ok(chunk) => {
                    let _span = tracer.span("script.exec", 0);
                    interp.set_budget(&b.config.run_budget());
                    let _ = run_chunk(interp, &chunk);
                }
                Err(ChunkError::Parse(_)) => {}
                Err(ChunkError::Compile(_)) => {
                    let span = tracer.span("script.lookup", 0);
                    let parsed = scripts.lookup_or_parse(src);
                    span.end();
                    if let Ok(program) = parsed {
                        let _span = tracer.span("script.exec", 0);
                        interp.set_budget(&b.config.run_budget());
                        let _ = interp.run(&program);
                    }
                }
            }
        }
    }
}

fn count_outcome(tracer: &Tracer, outcome: CacheOutcome) {
    tracer.count(
        match outcome {
            CacheOutcome::Hit => "probe.script_hits",
            CacheOutcome::Miss => "probe.script_misses",
            CacheOutcome::NegativeHit => "probe.script_negative_hits",
        },
        1,
    );
}

fn fetch(
    net: &mut SimNet,
    req: &HttpRequest,
    clock: &mut VirtualClock,
    tracer: &Tracer,
) -> Option<String> {
    let span = tracer.span("net.fetch", 0);
    let resp = net.fetch(req, clock);
    span.end();
    match resp {
        Ok(r) if r.status.is_success() => Some(String::from_utf8_lossy(&r.body).into_owned()),
        _ => None,
    }
}

/// `Browser::load`, taken apart: the same public calls on the same inputs,
/// each under its own span. Returns the page's feature log, or `None`
/// where `Browser::load` fails.
fn probe_load(
    b: &ProbeBrowser,
    net: &mut SimNet,
    url: &Url,
    policy: &dyn RequestPolicy,
    clock: &mut VirtualClock,
    tracer: &Tracer,
) -> Option<FeatureLog> {
    let body = fetch(
        net,
        &HttpRequest::get(url.clone(), ResourceType::Document),
        clock,
        tracer,
    )?;
    let span = tracer.span("dom.html_parse", 0);
    let doc = html::parse(&body);
    span.end();

    let span = tracer.span("browser.boot", 0);
    let host = Rc::new(RefCell::new(HostEnv::new(doc, url.clone())));
    host.borrow_mut().now = clock.now();
    let mut interp = Interpreter::new();
    let api = api::install(&mut interp, &b.registry, host.clone());
    let log = Rc::new(RefCell::new(FeatureLog::new()));
    if b.config.instrument {
        Instrumentation::install_with_index(
            &mut interp,
            &api,
            &b.registry,
            log.clone(),
            &b.prop_index,
        );
    }
    bind_document_tree_globals(&mut interp, &api);
    span.end();

    let span = tracer.span("dom.hiding", 0);
    let domain = url.registrable_domain().to_owned();
    for sel_src in policy.hiding_selectors(&domain) {
        let compiled = api.host.borrow_mut().compile_selector(&sel_src);
        if let Some(sel) = compiled {
            let targets = sel.query_all(&api.host.borrow().doc);
            let mut h = api.host.borrow_mut();
            for t in targets {
                h.doc.set_attr(t, "data-bfu-hidden", "1");
            }
        }
    }
    span.end();

    let resources = collect_resources(&api);
    for res in resources.into_iter().take(b.config.max_subresources) {
        match res {
            Resource::Inline(src) => {
                host.borrow_mut().now = clock.now();
                run_script(&mut interp, &src, b, tracer);
            }
            Resource::External(target, rtype) => {
                let Ok(res_url) = url.join(&target) else {
                    continue;
                };
                let req = HttpRequest::get(res_url.clone(), rtype).with_initiator(url.clone());
                if policy.decide(&req).is_some() {
                    continue;
                }
                let Some(text) = fetch(net, &req, clock, tracer) else {
                    continue;
                };
                match rtype {
                    ResourceType::Script => {
                        host.borrow_mut().now = clock.now();
                        run_script(&mut interp, &text, b, tracer);
                    }
                    ResourceType::SubDocument => {
                        let span = tracer.span("dom.frame_parse", 0);
                        let scripts = b.cache.frame_scripts(&text);
                        span.end();
                        for s in scripts.iter() {
                            match s {
                                FrameScript::Inline(src) => {
                                    run_script(&mut interp, src, b, tracer);
                                }
                                FrameScript::External(target) => {
                                    let Ok(u) = res_url.join(target) else {
                                        continue;
                                    };
                                    let req = HttpRequest::get(u, ResourceType::Script)
                                        .with_initiator(res_url.clone());
                                    if policy.decide(&req).is_some() {
                                        continue;
                                    }
                                    if let Some(src) = fetch(net, &req, clock, tracer) {
                                        host.borrow_mut().now = clock.now();
                                        run_script(&mut interp, &src, b, tracer);
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let log = log.borrow().clone();
    Some(log)
}

/// Run both parts of the probe over `sites`, checking each replayed site
/// against `dataset_sites[ix]` and each probed page against `Browser::load`.
pub fn run(
    setup: &Setup,
    sites: &[usize],
    dataset_sites: &[SiteMeasurement],
    tracer: &Tracer,
) -> Result<ProbeReport, String> {
    let survey = &setup.survey;
    let (mut net, browser, policies) = world(survey);
    let mut visits = Vec::new();
    for &ix in sites {
        let span = tracer.span("crawler.site_replay", ix as u64);
        let m = replay_site(
            survey,
            &browser,
            &mut net,
            &policies,
            ix,
            &mut visits,
            tracer,
        );
        span.end();
        if site_fingerprint(survey, &m) != site_fingerprint(survey, &dataset_sites[ix]) {
            return Err(format!(
                "site {ix} crawled through the blocker decorator differs from the dataset entry"
            ));
        }
    }
    let requests = net.stats().requests;

    // Pages spread evenly over everything the rounds visited.
    let step = visits.len().div_ceil(MAX_PAGES).max(1);
    let sample: Vec<&Visit> = visits.iter().step_by(step).collect();
    let (mut net_a, browser_a, _) = world(survey);
    let (mut net_b, browser_b, _) = world(survey);
    let probe = ProbeBrowser {
        registry: Rc::clone(&browser_b.registry),
        config: browser_b.config.clone(),
        cache: Arc::new(CompileCache::new()),
        prop_index: PropIndex::build(&browser_b.registry),
    };
    let mut report = ProbeReport {
        pages: 0,
        load_s: 0.0,
        probe_s: 0.0,
        covered_s: 0.0,
        requests,
    };
    for (i, v) in sample.iter().enumerate() {
        let policy = &policies[v.profile].1;
        let timed = TimedPolicy::new(policy.clone(), tracer);
        let mut reference = || {
            net_a.set_fault_context(v.fault_ctx);
            let mut clock = VirtualClock::new();
            let span = tracer.span("browser.load", i as u64);
            let page = browser_a.load(&mut net_a, &v.url, policy, &mut clock);
            span.end();
            page.ok().map(|p| p.log.borrow().clone())
        };
        let mut probed = || {
            net_b.set_fault_context(v.fault_ctx);
            let mut clock = VirtualClock::new();
            let _span = tracer.span("browser.probe", i as u64);
            probe_load(&probe, &mut net_b, &v.url, &timed, &mut clock, tracer)
        };
        // Alternate which side runs first so neither always finds the
        // processor caches warm.
        let (a, b) = if i % 2 == 0 {
            let a = reference();
            (a, probed())
        } else {
            let b = probed();
            (reference(), b)
        };
        let records = |l: Option<FeatureLog>| l.map(|l| l.records());
        if records(a) != records(b) {
            return Err(format!(
                "probe of {} recorded a different feature log than Browser::load",
                v.url
            ));
        }
        report.pages += 1;
    }
    report.load_s = tracer.total("browser.load");
    report.probe_s = tracer.total("browser.probe");
    report.covered_s = report.probe_s - tracer.self_times("browser.probe").iter().sum::<f64>();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;
    use bfu_core::webgen::{SyntheticWeb, WebConfig};
    use bfu_core::StudyConfig;

    #[test]
    fn replay_through_timed_policy_matches_the_survey() {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 5,
            seed: 3,
            script_weight: 0,
        });
        let mut config = CrawlConfig::quick(3);
        config.rounds_per_profile = 1;
        config.pages_per_site = 2;
        config.profiles.push(BrowserProfile::AdblockOnly);
        let survey = Survey::new(web.clone(), config);
        let dataset = survey.run();
        let setup = Setup {
            kind: Kind::PaperWeb,
            web,
            survey,
            study: StudyConfig::quick(5, 3),
            reference: 0,
        };
        let tracer = Tracer::default();
        let report = run(&setup, &[0, 1, 2, 3, 4], &dataset.sites, &tracer).expect("probe");
        assert!(report.pages > 0);
        assert!(tracer.counter("blocker.decisions") > 0);
        assert!(tracer.counter("blocker.blocked") > 0);
        assert_eq!(tracer.durations("browser.load").len(), report.pages);
        assert!(!tracer.durations("browser.boot").is_empty());
    }
}
