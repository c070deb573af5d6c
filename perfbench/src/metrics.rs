//! The two kinds of run and the metrics each prints.
//!
//! An untraced run measures the end-to-end metrics; a traced run measures
//! the same workload with spans recorded and derives the per-layer metrics
//! from them. Both make every output check, and return an error — so the
//! process exits non-zero and prints no metrics — when one fails.

use crate::decor::{OBJSTORE_OPS, STORE_OPS};
use crate::probe::{self, LOAD_TOLERANCE};
use crate::stats::{median, quartiles, tail};
use crate::trace::Tracer;
use crate::workload::{self, check_recrawl, sample_sites, Kind, Pass, Setup};
use crate::Args;
use bfu_core::crawler::Dataset;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Re-renders from the freshly written store after each crawl pass.
const RERENDERS_PER_PASS: usize = 10;

/// Sites recrawled one at a time to check the dataset (and, in the traced
/// run, replayed and probed).
const SAMPLE_SITES: usize = 4;

/// Named metrics with units, plus notes printed beside them.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    attempted: usize,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.entries.push((name.to_owned(), value, unit));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Median of `samples` under `name`, noting the quartiles.
    fn median_of(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let (q1, q3) = quartiles(samples);
        self.note(format!(
            "{name}: median {:.6} {unit}, quartiles {q1:.6} .. {q3:.6}, {} samples",
            median(samples),
            samples.len()
        ));
        self.put(name, median(samples), unit);
    }

    /// Tail of `samples` under `name`, noting its percentile and count.
    fn tail_of(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let t = tail(samples);
        self.note(format!(
            "{name}: p{} of {} samples = {:.6} {unit}",
            t.percentile, t.samples, t.value
        ));
        self.put(name, t.value, unit);
    }

    /// The result object: the last line of standard output.
    pub fn result_json(&self) -> String {
        let mut body = Vec::new();
        for (name, value, unit) in &self.entries {
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            body.join(", ")
        )
    }

    /// Human-readable lines: every metric, then the notes.
    pub fn describe(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("{n} = {v} {u}"))
            .collect();
        out.extend(self.notes.iter().cloned());
        out
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Set up once, timed; returns the set-up and its seconds.
fn timed_setup(args: &Args, tracer: Option<&Tracer>) -> (Setup, f64) {
    let t0 = Instant::now();
    let setup = workload::setup(args.kind, args.seed, tracer);
    (setup, t0.elapsed().as_secs_f64())
}

/// Set up [`SETUPS`] times; the last set-up is kept.
fn setups(args: &Args, tracer: Option<&Tracer>) -> (Setup, Vec<f64>) {
    let (mut setup, first) = timed_setup(args, tracer);
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let (s, secs) = timed_setup(args, tracer);
        setup = s;
        times.push(secs);
    }
    (setup, times)
}

/// One timed pass of the workload.
fn pass(setup: &Setup, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Pass, String> {
    match setup.kind {
        Kind::PaperWeb | Kind::HeavyScripts => {
            workload::crawl_pass(setup, &workload::fresh_dir(dir, "store")?, tracer)
        }
        Kind::Fabric => workload::fabric_pass(setup, tracer),
    }
}

/// Output checks on one pass: the same dataset every pass, the pinned
/// fingerprint at the default seed, equal to a plain single-process run,
/// and re-rendered reports equal to the in-memory one. Returns the
/// re-render times in milliseconds.
fn check_pass(
    setup: &Setup,
    p: &Pass,
    first: &mut Option<u64>,
    pinned: Option<u64>,
    tracer: Option<&Tracer>,
) -> Result<Vec<f64>, String> {
    let fp = p.dataset.fingerprint();
    if let Some(want) = *first {
        if fp != want {
            return Err(format!(
                "pass fingerprint {fp:016x} differs from the first pass's {want:016x}"
            ));
        }
    }
    *first = Some(fp);
    if let Some(want) = pinned {
        if fp != want {
            return Err(format!(
                "dataset fingerprint {fp:016x} differs from the pinned {want:016x}"
            ));
        }
    }
    if fp != setup.reference {
        return Err(format!(
            "dataset fingerprint {fp:016x} differs from the single-process run's {:016x}",
            setup.reference
        ));
    }
    let mut times = Vec::new();
    for _ in 0..RERENDERS_PER_PASS {
        let (secs, dataset, text) = workload::rerender(setup, Arc::clone(&p.backend), tracer)?;
        if dataset.fingerprint() != fp || text != p.report {
            return Err("report re-rendered from the store differs from the in-memory one".into());
        }
        times.push(secs * 1e3);
    }
    Ok(times)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Sites the crawl lost (failed or panicked) and sites it attempted.
fn losses(d: &Dataset) -> (usize, usize) {
    let h = d.health();
    (h.sites_failed + h.sites_panicked, h.sites_total)
}

/// Everything the timed passes of one run produced.
#[derive(Default)]
struct Passes {
    walls: Vec<f64>,
    site_rates: Vec<f64>,
    page_rates: Vec<f64>,
    rerender_ms: Vec<f64>,
    last: Option<Pass>,
}

impl Passes {
    fn record(&mut self, setup: &Setup, p: Pass, rerender_ms: Vec<f64>) {
        self.walls.push(p.wall_s);
        self.site_rates.push(setup.kind.sites() as f64 / p.crawl_s);
        self.page_rates
            .push(p.dataset.total_pages() as f64 / p.crawl_s);
        self.rerender_ms.extend(rerender_ms);
        self.last = Some(p);
    }
}

fn end_to_end(m: &mut Metrics, setup_s: &[f64], passes: &Passes, peak_mb: f64, dataset: &Dataset) {
    m.median_of("setup_s", setup_s, "s");
    m.median_of("wall_s", &passes.walls, "s");
    m.median_of("sites_per_s", &passes.site_rates, "1/s");
    m.median_of("page_loads_per_s", &passes.page_rates, "1/s");
    // Printed, not gated: see `analysis.rerender_ms_p50` and `_tail`.
    let (q1, q3) = quartiles(&passes.rerender_ms);
    let t = tail(&passes.rerender_ms);
    m.note(format!(
        "rerender_ms_p50: median {:.6} ms, quartiles {q1:.6} .. {q3:.6}; rerender_ms_tail: p{} = {:.6} ms; {} samples",
        median(&passes.rerender_ms),
        t.percentile,
        t.value,
        t.samples
    ));
    m.put("peak_rss_mb", peak_mb, "MiB");
    // A pass that fails aborts the run, so every loss is a lost site.
    let (lost, attempted) = losses(dataset);
    m.put("loss_share", lost as f64 / attempted.max(1) as f64, "share");
}

/// The untraced run: end-to-end metrics.
pub fn untraced(args: &Args, dir: &Path, pinned: Option<u64>) -> Result<(Metrics, String), String> {
    let (setup, setup_s) = setups(args, None);
    let mut passes = Passes::default();
    let mut first = None;
    let mut peak_mb = None;
    let t0 = Instant::now();
    while passes.walls.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&setup, dir, None)?;
        let rerenders = check_pass(&setup, &p, &mut first, pinned, None)?;
        passes.record(&setup, p, rerenders);
        // Peak memory as one `repro` run sees it: set-up plus one pass.
        // Later passes reuse a heap the earlier ones fragmented across
        // survey threads' allocator arenas, which a single run never does
        // (it added up to 50 % at random on heavy-scripts).
        if peak_mb.is_none() {
            peak_mb = Some(peak_rss_mb()?);
        }
    }
    let last = passes.last.take().ok_or("no pass ran")?;
    check_recrawl(
        &setup,
        &last.dataset,
        &sample_sites(args.kind, args.seed, SAMPLE_SITES),
        None,
    )?;
    let mut m = Metrics {
        attempted: passes.walls.len(),
        ..Metrics::default()
    };
    let peak_mb = peak_mb.ok_or("no pass ran")?;
    end_to_end(&mut m, &setup_s, &passes, peak_mb, &last.dataset);
    cleanup(dir);
    let detail = format!(
        ", \"passes\": {}, \"dataset_fingerprint\": \"{:016x}\"",
        passes.walls.len(),
        last.dataset.fingerprint()
    );
    Ok((m, detail))
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir.join("store"));
}

/// Median of the durations of every span named `name`, in `scale` units
/// per second.
fn span_p50(t: &Tracer, name: &str, scale: f64) -> f64 {
    median(&t.durations(name)) * scale
}

fn spans_of(t: &Tracer, names: &[&str]) -> Vec<f64> {
    names.iter().flat_map(|n| t.durations(n)).collect()
}

/// The traced run: the same passes, alternating untraced and traced ones
/// for the overhead, then the probe; per-layer metrics from the spans.
pub fn traced(args: &Args, dir: &Path, pinned: Option<u64>) -> Result<(Metrics, String), String> {
    let tracer = Arc::new(Tracer::default());
    let (setup, _) = setups(args, Some(&tracer));
    let mut plain = Passes::default();
    let mut traced = Passes::default();
    let mut first = None;
    let mut fabric = (0, 0);
    let mut retries = 0;
    let t0 = Instant::now();
    while traced.walls.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&setup, dir, None)?;
        let r = check_pass(&setup, &p, &mut first, pinned, None)?;
        plain.record(&setup, p, r);
        let span = tracer.span("pass", traced.walls.len() as u64);
        let p = pass(&setup, dir, Some(&tracer))?;
        span.end();
        let r = check_pass(&setup, &p, &mut first, pinned, Some(&tracer))?;
        fabric = p.fabric.unwrap_or_default();
        if let Some(totals) = p.backend.op_totals() {
            retries = totals.retries + totals.remote_retries;
        }
        traced.record(&setup, p, r);
    }
    let last = traced.last.take().ok_or("no pass ran")?;
    let dataset = &last.dataset;
    let sample = sample_sites(args.kind, args.seed, SAMPLE_SITES);
    check_recrawl(&setup, dataset, &sample, Some(&tracer))?;
    let probe = probe::run(&setup, &sample, &dataset.sites, &tracer)?;
    let ratio = probe.probe_s / probe.load_s;
    if (ratio - 1.0).abs() > LOAD_TOLERANCE
        || probe.covered_s / probe.probe_s < 1.0 - LOAD_TOLERANCE
    {
        return Err(format!(
            "probe spans do not explain Browser::load: probe/load {ratio:.3}, \
             covered {:.3} of the probe (tolerance {LOAD_TOLERANCE})",
            probe.covered_s / probe.probe_s
        ));
    }

    let t = &*tracer;
    let mut m = Metrics {
        attempted: plain.walls.len() + traced.walls.len(),
        ..Metrics::default()
    };
    let overhead = median(&traced.walls) - median(&plain.walls);
    m.put("trace.overhead_s", overhead, "s");
    m.note(format!(
        "trace.overhead_s: traced wall_s {:.6} s minus untraced {:.6} s over {} pass pairs",
        median(&traced.walls),
        median(&plain.walls),
        traced.walls.len()
    ));

    // browser / script / dom / net: the probe's page loads.
    let load_total = t.total("browser.probe");
    let share = |names: &[&str]| spans_of(t, names).iter().sum::<f64>() / load_total;
    m.put(
        "browser.load_ms_p50",
        span_p50(t, "browser.load", 1e3),
        "ms",
    );
    m.tail_of(
        "browser.load_ms_tail",
        &scaled(t.durations("browser.load"), 1e3),
        "ms",
    );
    m.put(
        "browser.boot_ms_p50",
        span_p50(t, "browser.boot", 1e3),
        "ms",
    );
    m.put("browser.boot_share", share(&["browser.boot"]), "share");
    m.put(
        "browser.probe_explained_share",
        probe.covered_s / probe.load_s,
        "share",
    );
    let cache = dataset.cache;
    let lookups = cache.script_hits + cache.script_misses + cache.script_negative_hits;
    m.put("script.lookups", lookups as f64, "count");
    m.put("script.hit_rate", cache.hit_rate(), "share");
    m.put(
        "script.unique_scripts",
        cache.unique_scripts as f64,
        "count",
    );
    m.put(
        "script.lookup_ms_p50",
        span_p50(t, "script.lookup", 1e3),
        "ms",
    );
    m.put("script.lookup_share", share(&["script.lookup"]), "share");
    m.put("script.exec_ms_p50", span_p50(t, "script.exec", 1e3), "ms");
    m.put("script.exec_share", share(&["script.exec"]), "share");
    m.put(
        "dom.html_parse_ms_p50",
        span_p50(t, "dom.html_parse", 1e3),
        "ms",
    );
    m.put(
        "dom.html_parse_share",
        share(&["dom.html_parse", "dom.frame_parse"]),
        "share",
    );
    m.put("net.fetch_us_p50", span_p50(t, "net.fetch", 1e6), "us");
    m.put("net.fetch_share", share(&["net.fetch"]), "share");
    m.put("net.requests", probe.requests as f64, "count");

    // blocker: decorator counts over the replayed rounds and the probe.
    let decisions = t.counter("blocker.decisions");
    m.put("blocker.decisions", decisions as f64, "count");
    m.put(
        "blocker.blocked_ratio",
        t.counter("blocker.blocked") as f64 / decisions.max(1) as f64,
        "share",
    );
    m.put(
        "blocker.decide_us_p50",
        span_p50(t, "blocker.decide", 1e6),
        "us",
    );
    m.put("blocker.build_ms", span_p50(t, "blocker.build", 1e3), "ms");

    // monkey and crawler: the replayed rounds and the recrawl check.
    let replay_total = t.total("crawler.site_replay");
    m.put(
        "monkey.interact_ms_p50",
        span_p50(t, "monkey.interact", 1e3),
        "ms",
    );
    m.put(
        "monkey.share",
        t.total("monkey.interact") / replay_total.max(f64::MIN_POSITIVE),
        "share",
    );
    m.put(
        "crawler.site_ms_p50",
        span_p50(t, "crawler.site", 1e3),
        "ms",
    );
    m.tail_of(
        "crawler.site_ms_tail",
        &scaled(t.durations("crawler.site"), 1e3),
        "ms",
    );
    let (lost, _) = losses(dataset);
    m.put("crawler.lost_sites", lost as f64, "count");
    m.put(
        "crawler.retries",
        dataset.health().total_retries as f64,
        "count",
    );

    // store: the storage decorator under the crawl passes and re-renders.
    let store_ops = spans_of(t, STORE_OPS);
    let store_roots = t.total("store.resume") + t.total("store.scan");
    let crawl_passes = traced.walls.len();
    m.put("store.ops", store_ops.len() as f64, "count");
    m.put(
        "store.write_bytes_per_site",
        t.counter("store.write_bytes") as f64 / (crawl_passes * args.kind.sites()).max(1) as f64,
        "B",
    );
    let syncs = scaled(spans_of(t, &["store.sync_all", "store.sync_dir"]), 1e3);
    m.put("store.sync_ms_p50", median(&syncs), "ms");
    m.tail_of("store.sync_ms_tail", &syncs, "ms");
    m.put(
        "store.busy_share",
        store_ops.iter().sum::<f64>() / store_roots.max(f64::MIN_POSITIVE),
        "share",
    );
    m.put("store.scan_ms_p50", span_p50(t, "store.scan", 1e3), "ms");

    // objstore and fabric: the object-store decorator under the fabric.
    for op in ["put", "get", "put_if", "head", "list"] {
        let name = format!("objstore.{op}");
        let us = scaled(t.durations(&name), 1e6);
        m.put(&format!("{name}_us_p50"), median(&us), "us");
        m.tail_of(&format!("{name}_us_tail"), &us, "us");
    }
    let obj_ops = spans_of(t, OBJSTORE_OPS);
    m.put("objstore.ops", obj_ops.len() as f64, "count");
    m.put(
        "objstore.errors",
        t.counter("objstore.errors") as f64,
        "count",
    );
    m.put("objstore.retries", retries as f64, "count");
    m.put(
        "objstore.busy_share",
        obj_ops.iter().sum::<f64>() / t.total("fabric.run").max(f64::MIN_POSITIVE),
        "share",
    );
    m.put("fabric.leases", fabric.0 as f64, "count");
    m.put("fabric.publishes_fenced", fabric.1 as f64, "count");

    // analysis: report and render inside the traced passes.
    m.put(
        "analysis.report_ms_p50",
        span_p50(t, "analysis.report", 1e3),
        "ms",
    );
    m.put(
        "analysis.render_ms_p50",
        span_p50(t, "analysis.render", 1e3),
        "ms",
    );
    // Re-render latency over the untraced passes. Not end-to-end metrics:
    // an 11 ms single-threaded re-render lands in one of the host's
    // second-long speed phases, so their spread between ten-run sets
    // reached 0.36 (median) and 0.61 (tail), past the largest bound.
    m.median_of("analysis.rerender_ms_p50", &plain.rerender_ms, "ms");
    m.tail_of("analysis.rerender_ms_tail", &plain.rerender_ms, "ms");
    let pass_ids: Vec<u64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "pass")
        .map(|s| s.id)
        .collect();
    let in_pass: f64 = t
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("analysis.") && pass_ids.contains(&s.parent))
        .map(|s| s.secs())
        .sum();
    m.put(
        "analysis.share",
        in_pass / t.total("pass").max(f64::MIN_POSITIVE),
        "share",
    );

    // set-up layers.
    m.put(
        "webgen.generate_ms",
        span_p50(t, "webgen.generate", 1e3),
        "ms",
    );
    m.put(
        "webidl.registry_ms",
        span_p50(t, "webidl.registry", 1e3),
        "ms",
    );

    m.note(format!(
        "probe: {} pages, Browser::load {:.6} s, probe {:.6} s (ratio {ratio:.3}), spans cover {:.3} of the probe; tolerance {LOAD_TOLERANCE}",
        probe.pages,
        probe.load_s,
        probe.probe_s,
        probe.covered_s / probe.probe_s
    ));
    std::fs::write(dir.join("trace.json"), t.to_json())
        .map_err(|e| format!("write trace.json: {e}"))?;
    cleanup(dir);
    let mut detail = String::new();
    let _ = write!(
        detail,
        ", \"passes\": {}, \"dataset_fingerprint\": \"{:016x}\", \"spans\": {}",
        traced.walls.len(),
        dataset.fingerprint(),
        t.spans().len()
    );
    Ok((m, detail))
}

fn scaled(v: Vec<f64>, k: f64) -> Vec<f64> {
    v.into_iter().map(|x| x * k).collect()
}
