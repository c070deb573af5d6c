//! Cross-crate integration of the dataset store: crash-safe persistence,
//! crawl resumption, and memoized analysis over a real (small) survey.
//!
//! The invariant under test throughout: however a dataset reaches analysis
//! — crawled in one run, resumed across a kill, or recovered around
//! corrupted bytes — its fingerprint and its rendered report are identical
//! to the uninterrupted run's.

use bfu_crawler::{CrawlConfig, Survey};
use bfu_store::{DatasetStore, LoadOutcome, StoreError, StoreMeta};
use bfu_webgen::{SyntheticWeb, WebConfig};
use browser_feature_usage::{Study, StudyConfig};
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

const SITES: usize = 16;
const SEED: u64 = 77;

struct Fixture {
    survey: Survey,
    baseline: bfu_crawler::Dataset,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let web = SyntheticWeb::generate(WebConfig {
            sites: SITES,
            seed: SEED,
            script_weight: 0,
        });
        let survey = Survey::new(web, CrawlConfig::quick(5));
        let baseline = survey.run();
        Fixture { survey, baseline }
    })
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfu-int-store-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Write the full baseline into a finished store at `dir`.
fn write_full_store(dir: &std::path::Path) -> DatasetStore {
    let f = fixture();
    let store = DatasetStore::open(dir, StoreMeta::for_survey(&f.survey)).expect("open");
    for m in &f.baseline.sites {
        store.append(m).expect("append");
    }
    store
        .finish(&bfu_crawler::Provenance::of(&f.survey, &f.baseline))
        .expect("finish");
    store
}

/// The first shard file in `dir`, as (path, bytes).
fn first_shard(dir: &std::path::Path) -> (PathBuf, Vec<u8>) {
    let path = dir.join("shard-00000.bfu");
    let bytes = fs::read(&path).expect("shard file");
    (path, bytes)
}

#[test]
fn round_trip_preserves_analysis_fingerprint() {
    let f = fixture();
    let dir = temp_store("roundtrip");
    let store = write_full_store(&dir);
    let scan = store.scan().expect("scan");
    assert_eq!(scan.recovered, SITES);
    assert!(!scan.report.any_loss());

    match bfu_store::load_survey_dataset(&f.survey, &dir).expect("load") {
        LoadOutcome::Complete { dataset, .. } => {
            assert_eq!(dataset.fingerprint(), f.baseline.fingerprint());
        }
        LoadOutcome::Incomplete {
            present, missing, ..
        } => {
            panic!("full store loaded incomplete: {present}/{missing}")
        }
    }
    assert!(dir.join("MANIFEST").exists());
    assert!(dir.join("provenance.json").exists());
}

#[test]
fn flipped_payload_byte_loses_one_site_and_resume_heals_it() {
    let f = fixture();
    let dir = temp_store("flip");
    write_full_store(&dir);

    // Flip one byte inside the first record's payload (header is 16 bytes,
    // the length prefix 4 more; offset 25 lands mid-payload).
    let (path, mut bytes) = first_shard(&dir);
    bytes[25] ^= 0x40;
    fs::write(&path, &bytes).expect("rewrite shard");

    let store = DatasetStore::open(&dir, StoreMeta::for_survey(&f.survey)).expect("open");
    let scan = store.scan().expect("scan");
    assert_eq!(scan.report.records_corrupt, 1, "exactly the damaged record");
    assert_eq!(scan.recovered, SITES - 1, "every other record survives");
    assert!(scan.report.any_loss());

    // Resumption re-crawls only the lost site and lands on the baseline.
    let outcome = bfu_store::resume_survey(&f.survey, &dir).expect("resume");
    assert_eq!(outcome.resumed_sites, SITES - 1);
    assert_eq!(outcome.crawled_sites, 1);
    assert_eq!(outcome.dataset.fingerprint(), f.baseline.fingerprint());
}

#[test]
fn truncated_shard_keeps_prefix_and_resume_heals_the_tail() {
    let f = fixture();
    let dir = temp_store("truncate");
    write_full_store(&dir);

    // Chop the shard mid-file: seal and some records vanish, prefix stays.
    let (path, bytes) = first_shard(&dir);
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate shard");

    let store = DatasetStore::open(&dir, StoreMeta::for_survey(&f.survey)).expect("open");
    let scan = store.scan().expect("scan");
    assert!(scan.report.shards_truncated >= 1);
    assert!(scan.recovered < SITES, "tail records lost");
    assert!(scan.recovered > 0, "intact prefix recovered");

    let outcome = bfu_store::resume_survey(&f.survey, &dir).expect("resume");
    assert_eq!(outcome.dataset.fingerprint(), f.baseline.fingerprint());
}

#[test]
fn resume_after_kill_matches_uninterrupted_run() {
    let f = fixture();
    let dir = temp_store("kill");

    // Simulate a crawl killed mid-run: a store holding an arbitrary subset,
    // its shard unsealed, with a partial frame of trailing garbage — exactly
    // what flush-per-record appends leave on disk.
    let store = DatasetStore::open(&dir, StoreMeta::for_survey(&f.survey)).expect("open");
    for m in f.baseline.sites.iter().take(7) {
        store.append(m).expect("append");
    }
    drop(store); // no finish(): the process died
    let (path, mut bytes) = first_shard(&dir);
    bytes.extend_from_slice(&[0x99, 0x00, 0x00]); // torn write
    fs::write(&path, &bytes).expect("append garbage");

    let outcome = bfu_store::resume_survey(&f.survey, &dir).expect("resume");
    assert_eq!(outcome.resumed_sites, 7);
    assert_eq!(outcome.crawled_sites, SITES - 7);
    assert_eq!(
        outcome.dataset.fingerprint(),
        f.baseline.fingerprint(),
        "resumed dataset must be indistinguishable from an uninterrupted run"
    );

    // And the healed store now loads complete, with zero crawling.
    match bfu_store::load_survey_dataset(&f.survey, &dir).expect("load") {
        LoadOutcome::Complete { dataset, .. } => {
            assert_eq!(dataset.fingerprint(), f.baseline.fingerprint());
        }
        LoadOutcome::Incomplete {
            present, missing, ..
        } => {
            panic!("healed store still incomplete: {present}/{missing}")
        }
    }
}

#[test]
fn wrong_configuration_is_refused() {
    let dir = temp_store("refuse");
    write_full_store(&dir);

    let other_web = SyntheticWeb::generate(WebConfig {
        sites: SITES,
        seed: SEED + 1,
        script_weight: 0,
    });
    let other = Survey::new(other_web, CrawlConfig::quick(5));
    match bfu_store::load_survey_dataset(&other, &dir) {
        Err(StoreError::FingerprintMismatch { .. }) => {}
        other => panic!("expected fingerprint mismatch, got {other:?}"),
    }
}

#[test]
fn study_report_from_store_matches_fresh_study() {
    let dir = temp_store("study-report");
    let config = StudyConfig {
        sites: 10,
        seed: 404,
        rounds: 2,
        pages_per_site: 4,
        page_budget_ms: 8_000,
        fig7_profiles: true,
        threads: 2,
    };
    let fresh = Study::run(config.clone());
    let written = Study::run_with_store(config.clone(), &dir).expect("run with store");
    assert_eq!(written.crawled_sites, 10);

    let loaded = Study::from_store(config, &dir).expect("load");
    assert_eq!(loaded.crawled_sites, 0, "memoized analysis must not crawl");
    assert_eq!(
        loaded.study.dataset().fingerprint(),
        fresh.dataset().fingerprint(),
        "the stored dataset must be the fresh one"
    );
    assert_eq!(
        loaded.study.report().render_all(),
        fresh.report().render_all(),
        "every table and figure regenerated from the store must match"
    );
}
