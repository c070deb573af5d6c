//! Snapshot boot isolation: every page on a thread is a clone of one booted
//! interpreter, so these tests check that nothing page-specific leaks
//! between clones and that a clone is indistinguishable from an
//! interpreter the builders made.

use bfu_browser::api::{self, ApiSurface, HostEnv};
use bfu_browser::{AllowAll, Browser, BrowserConfig, FeatureLog, Instrumentation, PropIndex};
use bfu_dom::html;
use bfu_net::{HttpRequest, HttpResponse, SimNet, Url};
use bfu_script::interp::Interpreter;
use bfu_script::Value;
use bfu_util::{Instant, SimRng, VirtualClock};
use bfu_webidl::{FeatureKind, FeatureRegistry};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

struct Booted {
    interp: Interpreter,
    api: ApiSurface,
    log: Rc<RefCell<FeatureLog>>,
}

fn host(page: &str, url: &str) -> Rc<RefCell<HostEnv>> {
    Rc::new(RefCell::new(HostEnv::new(
        html::parse(page),
        Url::parse(url).unwrap(),
    )))
}

/// Boot through the public install calls on `interp`, as `Browser::load`
/// does with a fresh interpreter.
fn boot_on(
    mut interp: Interpreter,
    registry: &Rc<FeatureRegistry>,
    page: &str,
    url: &str,
) -> Booted {
    let api = api::install(&mut interp, registry, host(page, url));
    let log = Rc::new(RefCell::new(FeatureLog::new()));
    Instrumentation::install_with_index(
        &mut interp,
        &api,
        registry,
        log.clone(),
        &PropIndex::build(registry),
    );
    Booted { interp, api, log }
}

/// A page booted from this thread's snapshot.
fn boot(registry: &Rc<FeatureRegistry>, page: &str, url: &str) -> Booted {
    boot_on(Interpreter::new(), registry, page, url)
}

/// A page the builders make in place: an interpreter that is not fresh
/// (here, one with an embedder context already set) is never replaced by
/// the snapshot.
fn boot_built(registry: &Rc<FeatureRegistry>, page: &str, url: &str) -> Booted {
    let mut interp = Interpreter::new();
    interp.set_embedder(Rc::new(()));
    boot_on(interp, registry, page, url)
}

fn counts(log: &Rc<RefCell<FeatureLog>>) -> Vec<(u32, u64)> {
    let log = log.borrow();
    log.features()
        .into_iter()
        .map(|f| (f.raw(), log.count(f)))
        .collect()
}

const MAIN: &str = "<html><head></head><body><div id=main></div></body></html>";

#[test]
fn a_live_page_keeps_its_host_and_log_when_another_boots() {
    let registry = Rc::new(FeatureRegistry::build());
    let mut one = boot(&registry, MAIN, "http://one.test/");
    let mut two = boot(&registry, MAIN, "http://two.test/");
    one.api.host.borrow_mut().now = Instant(1000);
    two.api.host.borrow_mut().now = Instant(2000);

    let now = one
        .interp
        .run_source(
            r#"
            var main = document.querySelector('#main');
            main.appendChild(document.createElement('p'));
            setTimeout(function() {}, 10);
            main.addEventListener('click', function() {});
            var x = new XMLHttpRequest();
            x.open('GET', '/api');
            performance.now();
        "#,
        )
        .unwrap();
    assert_eq!(now.to_number(), 1000.0, "page one's clock");
    {
        let h = one.api.host.borrow();
        let main = h.doc.first_by_tag("div").unwrap();
        assert_eq!(h.doc.children(main).len(), 1);
        assert_eq!(h.timers.len(), 1);
        assert_eq!(h.listeners.len(), 1);
        assert_eq!(h.pending_requests.len(), 1);
        assert_eq!(h.pending_requests[0].0.to_string(), "http://one.test/api");
    }
    {
        let h = two.api.host.borrow();
        let main = h.doc.first_by_tag("div").unwrap();
        assert_eq!(h.doc.children(main).len(), 0);
        assert_eq!(h.timers.len(), 0);
        assert_eq!(h.listeners.len(), 0);
        assert!(h.pending_requests.is_empty());
    }
    let create = registry
        .by_name("Document.prototype.createElement")
        .unwrap();
    let open = registry.by_name("XMLHttpRequest.prototype.open").unwrap();
    assert_eq!(one.log.borrow().count(create), 1);
    assert_eq!(one.log.borrow().count(open), 1);
    assert_eq!(two.log.borrow().total_invocations(), 0);

    // And the other way round, with page one still alive.
    let now = two
        .interp
        .run_source("new XMLHttpRequest().open('GET', '/b'); performance.now();")
        .unwrap();
    assert_eq!(now.to_number(), 2000.0, "page two's clock");
    assert_eq!(
        two.api.host.borrow().pending_requests[0].0.to_string(),
        "http://two.test/b"
    );
    assert_eq!(one.api.host.borrow().pending_requests.len(), 1);
    assert_eq!(two.log.borrow().count(open), 1);
    assert_eq!(one.log.borrow().count(open), 1);
}

#[test]
fn location_and_document_are_per_page() {
    let registry = Rc::new(FeatureRegistry::build());
    let mut one = boot(
        &registry,
        "<html><body><p id=a></p></body></html>",
        "http://one.test/x",
    );
    let mut two = boot(
        &registry,
        "<html><body><p id=b></p></body></html>",
        "http://two.test/y",
    );
    let href = |b: &mut Booted| b.interp.run_source("location.href;").unwrap().to_display();
    assert_eq!(href(&mut one), "http://one.test/x");
    assert_eq!(href(&mut two), "http://two.test/y");
    one.interp.run_source("location.href = 'moved';").unwrap();
    assert_eq!(href(&mut one), "moved");
    assert_eq!(href(&mut two), "http://two.test/y");

    // Writes to shared objects (a singleton, a prototype) stay in the page
    // that made them: neither a live page nor a later boot sees them.
    one.interp
        .run_source("navigator.custom = 7; Node.prototype.appendChild = 0;")
        .unwrap();
    let mut three = boot(&registry, MAIN, "http://three.test/");
    for b in [&mut two, &mut three] {
        let seen = b
            .interp
            .run_source("typeof navigator.custom + typeof Node.prototype.appendChild;")
            .unwrap();
        assert_eq!(seen.to_display(), "undefinedfunction");
    }

    let found = |b: &mut Booted, sel: &str| {
        b.interp
            .run_source(&format!("document.querySelectorAll('{sel}').length;"))
            .unwrap()
            .to_number()
    };
    assert_eq!(found(&mut one, "#a"), 1.0);
    assert_eq!(found(&mut one, "#b"), 0.0);
    assert_eq!(found(&mut two, "#b"), 1.0);
    assert_eq!(found(&mut two, "#a"), 0.0);

    // Each page's `document` object stands for its own DOM root.
    for b in [&one, &two] {
        let doc = b.interp.get_global("document");
        let h = b.api.host.borrow();
        assert_eq!(h.node_objs.get(&h.doc.root()).copied(), doc.as_obj());
        assert_eq!(api::node_of(&b.interp, &doc), Some(h.doc.root()));
    }
}

const SITE: &str = r#"<html><head></head><body><div id=main></div>
<script>
  var el = document.createElement('section');
  document.querySelector('#main').appendChild(el);
  navigator.sendBeacon('http://metrics.test/b');
</script></body></html>"#;

fn site_net() -> SimNet {
    let mut net = SimNet::new(SimRng::new(5));
    net.register(
        "site.test",
        Arc::new(|_: &HttpRequest| HttpResponse::html(SITE)),
    );
    net
}

#[test]
fn an_uninstrumented_page_has_no_watch_and_logs_nothing() {
    let registry = Rc::new(FeatureRegistry::build());
    let url = Url::parse("http://site.test/").unwrap();
    let mut clock = VirtualClock::new();
    // An instrumented load first, so this thread's snapshot has both stages.
    let instrumented = Browser::new(registry.clone())
        .load(&mut site_net(), &url, &AllowAll, &mut clock)
        .unwrap();
    assert!(instrumented
        .interp
        .get_global("__bfu_watch")
        .as_obj()
        .is_some());
    assert!(instrumented.log.borrow().total_invocations() > 0);

    let config = BrowserConfig {
        instrument: false,
        ..BrowserConfig::default()
    };
    let mut page = Browser::with_config(registry, config)
        .load(&mut site_net(), &url, &AllowAll, &mut clock)
        .unwrap();
    assert_eq!(page.stats.script_errors, 0, "{:?}", page.stats);
    assert!(matches!(
        page.interp.get_global("__bfu_watch"),
        Value::Undefined
    ));
    page.interp
        .run_source("navigator.vibrate = 1; document.createElement('b');")
        .unwrap();
    assert_eq!(page.log.borrow().total_invocations(), 0);
    // The script still ran against the page's own DOM and network queue.
    let h = page.api.host.borrow();
    assert!(h.doc.first_by_tag("section").is_some());
    assert_eq!(h.pending_requests.len(), 1);
}

/// The scripts of `instrument.rs`'s unit tests, with the property features
/// they look up resolved against `registry`.
fn instrumentation_scripts(registry: &FeatureRegistry) -> Vec<String> {
    let prop = |pred: &dyn Fn(&str) -> bool| {
        registry
            .features()
            .iter()
            .find(|f| f.kind == FeatureKind::Property && pred(&f.interface))
            .map(|f| (f.interface.clone(), f.member.clone()))
    };
    let mut scripts: Vec<String> = vec![
        "document.createElement('div'); document.createElement('p');".into(),
        "var el = document.createElement('p'); \
         var main = document.querySelector('#main'); main.appendChild(el);"
            .into(),
        "navigator.myCustomThing = 1; window.__private = 2;".into(),
        "var x = new XMLHttpRequest(); x.open('GET', '/a');".into(),
        "setTimeout(function() {}, 5); performance.now();".into(),
    ];
    if let Some((_, member)) = prop(&|i| i == "Navigator") {
        scripts.push(format!("navigator.{member} = 42;"));
    }
    if let Some((iface, member)) =
        prop(&|i| !matches!(i, "Window" | "Document" | "Navigator" | "Performance"))
    {
        scripts.push(format!("var o = new {iface}(); o.{member} = 'x';"));
    }
    if let Some((_, member)) = prop(&|i| i == "CanvasRenderingContext2D") {
        scripts.push(format!(
            "var c = document.createElement('canvas'); \
             var ctx = c.getContext('2d'); ctx.{member} = 5;"
        ));
    }
    scripts
}

#[test]
fn a_snapshot_page_matches_a_built_one() {
    let registry = Rc::new(FeatureRegistry::build());
    let url = "http://site.test/";
    let snap = boot(&registry, MAIN, url);
    let built = boot_built(&registry, MAIN, url);
    // The snapshot path really ran: a second snapshot page shares the
    // first one's prototype table, a built page has its own.
    let again = boot(&registry, MAIN, url);
    assert!(Rc::ptr_eq(&snap.api.prototypes, &again.api.prototypes));
    assert!(!Rc::ptr_eq(&snap.api.prototypes, &built.api.prototypes));

    assert_eq!(snap.interp.heap.len(), built.interp.heap.len());
    assert_eq!(snap.interp.native_count(), built.interp.native_count());
    assert_eq!(snap.interp.global_names(), built.interp.global_names());
    assert_eq!(snap.api.singletons.len(), built.api.singletons.len());
    for name in snap.interp.global_names() {
        let kind = |b: &Booted| {
            let v = b.interp.get_global(name);
            v.type_of(|id| b.interp.heap.is_callable(id))
        };
        assert_eq!(kind(&snap), kind(&built), "global {name}");
    }

    for src in instrumentation_scripts(&registry) {
        let mut snap = boot(&registry, MAIN, url);
        let mut built = boot_built(&registry, MAIN, url);
        let a = snap.interp.run_source(&src).unwrap().to_display();
        let b = built.interp.run_source(&src).unwrap().to_display();
        assert_eq!(a, b, "{src}");
        assert_eq!(counts(&snap.log), counts(&built.log), "{src}");
        assert_eq!(
            snap.interp.heap.len(),
            built.interp.heap.len(),
            "heap after {src}"
        );
    }
}
