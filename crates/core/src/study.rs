//! The study facade: the whole paper as one API call.
//!
//! [`Study::run`] generates the synthetic web, crawls it under the
//! configured browser profiles, and exposes every analysis of the paper
//! through [`Study::report`]. This is the entry point downstream users (and
//! the `repro` binary, examples, and benches) build on.

use bfu_analysis::blocking::{fig4_points, fig7_points, Fig4Point, Fig7Point};
use bfu_analysis::complexity::{complexity, ComplexityDistribution};
use bfu_analysis::convergence::new_standards_per_round;
use bfu_analysis::traffic::{fig5_points, Fig5Point};
use bfu_analysis::validation::{histogram, ValidationHistogram};
use bfu_analysis::{age, report, tables};
use bfu_analysis::{headline, FeaturePopularity, HeadlineStats, StandardPopularity};
use bfu_crawler::{BrowserProfile, CrawlConfig, Dataset, Survey};
use bfu_webgen::{SyntheticWeb, WebConfig};
use bfu_webidl::FeatureRegistry;

/// Configuration for one end-to-end study.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Number of ranked sites to generate and crawl (paper: 10,000).
    pub sites: usize,
    /// Master seed for the web and the crawl.
    pub seed: u64,
    /// Measurement rounds per profile (paper: 5).
    pub rounds: u32,
    /// Pages per site per round (paper: 13).
    pub pages_per_site: usize,
    /// Virtual interaction budget per page in ms (paper: 30,000).
    pub page_budget_ms: u64,
    /// Also crawl the ad-only / tracker-only profiles needed for Fig. 7.
    pub fig7_profiles: bool,
    /// Worker threads.
    pub threads: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            sites: 10_000,
            seed: 0x0B5E_55ED,
            rounds: 5,
            pages_per_site: 13,
            page_budget_ms: 30_000,
            fig7_profiles: true,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl StudyConfig {
    /// A laptop-scale configuration preserving the paper's *shape*: fewer
    /// sites and rounds, same structure. Good for examples and CI.
    pub fn quick(sites: usize, seed: u64) -> Self {
        StudyConfig {
            sites,
            seed,
            rounds: 3,
            pages_per_site: 6,
            page_budget_ms: 10_000,
            fig7_profiles: true,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }

    /// The crawl configuration this study runs under.
    pub fn crawl_config(&self) -> CrawlConfig {
        let mut profiles = vec![BrowserProfile::Default, BrowserProfile::Blocking];
        if self.fig7_profiles {
            profiles.push(BrowserProfile::AdblockOnly);
            profiles.push(BrowserProfile::GhosteryOnly);
        }
        CrawlConfig {
            rounds_per_profile: self.rounds,
            pages_per_site: self.pages_per_site,
            fanout: 3,
            page_budget_ms: self.page_budget_ms,
            profiles,
            threads: self.threads,
            seed: self.seed ^ 0xC4A31,
            retry: bfu_crawler::RetryPolicy::default(),
            breaker: bfu_crawler::BreakerPolicy::default(),
            browser: bfu_crawler::BrowserConfig::default(),
            compile_cache: true,
        }
    }

    /// The survey fingerprint this configuration produces — the dataset
    /// store's key — computed without generating the web. Thread count is
    /// excluded (measurements are thread-invariant), so the same study
    /// resumed on a different machine still matches its store.
    pub fn fingerprint(&self) -> u64 {
        bfu_crawler::survey_fingerprint(self.seed, self.sites, &self.crawl_config(), None)
    }
}

/// A completed study: the web (which carries the feature registry) and the
/// dataset.
#[derive(Debug)]
pub struct Study {
    web: SyntheticWeb,
    dataset: Dataset,
    config: StudyConfig,
}

/// A study obtained through the dataset store: the study itself plus how it
/// was assembled (recovered vs freshly crawled) and the shard read report.
#[derive(Debug)]
pub struct StoredStudy {
    /// The complete study.
    pub study: Study,
    /// Sites recovered from the store instead of being crawled.
    pub resumed_sites: usize,
    /// Sites crawled fresh (always 0 for [`Study::from_store`]).
    pub crawled_sites: usize,
    /// What reading the store's shards observed.
    pub report: bfu_store::ReadReport,
    /// What the pre-resume scrub found and repaired (`None` for
    /// [`Study::from_store`], which never mutates the store).
    pub scrub: Option<bfu_store::ScrubReport>,
}

impl StoredStudy {
    /// One human-readable cache line: how much crawling the store saved.
    pub fn cache_line(&self) -> String {
        let total = self.resumed_sites + self.crawled_sites;
        if self.crawled_sites == 0 {
            format!(
                "store: HIT ({}/{total} sites from shards, zero crawl activity)",
                self.resumed_sites
            )
        } else if self.resumed_sites == 0 {
            format!("store: MISS (crawled all {total} sites, shards written)")
        } else {
            format!(
                "store: PARTIAL ({}/{total} sites from shards, {} crawled)",
                self.resumed_sites, self.crawled_sites
            )
        }
    }
}

impl Study {
    fn survey_for(config: &StudyConfig) -> (SyntheticWeb, Survey) {
        let web = SyntheticWeb::generate(WebConfig {
            sites: config.sites,
            seed: config.seed,
            script_weight: 0,
        });
        let survey = Survey::new(web.clone(), config.crawl_config());
        (web, survey)
    }

    /// Assemble a study from already-obtained parts (a stored dataset).
    /// The analysis reads the web's own registry; none is rebuilt.
    pub fn from_parts(web: SyntheticWeb, dataset: Dataset, config: StudyConfig) -> Study {
        Study {
            web,
            dataset,
            config,
        }
    }

    /// Generate the web and run the full crawl.
    pub fn run(config: StudyConfig) -> Study {
        let (web, survey) = Study::survey_for(&config);
        let dataset = survey.run();
        Study::from_parts(web, dataset, config)
    }

    /// Run the study, persisting results to (and resuming from) the dataset
    /// store at `dir`. Sites already in the store are not re-crawled; sites
    /// crawled fresh stream into new shards as they complete, so a killed
    /// run resumes on the next call.
    pub fn run_with_store(
        config: StudyConfig,
        dir: &std::path::Path,
    ) -> Result<StoredStudy, bfu_store::StoreError> {
        let (web, survey) = Study::survey_for(&config);
        let outcome = bfu_store::resume_survey(&survey, dir)?;
        Ok(StoredStudy {
            study: Study::from_parts(web, outcome.dataset, config),
            resumed_sites: outcome.resumed_sites,
            crawled_sites: outcome.crawled_sites,
            report: outcome.report,
            scrub: Some(outcome.scrub),
        })
    }

    /// Load a completed study from the dataset store at `dir` with zero
    /// crawl activity. Fails with [`bfu_store::StoreError::Incomplete`] when
    /// the store is missing sites (resume with [`Study::run_with_store`]).
    pub fn from_store(
        config: StudyConfig,
        dir: &std::path::Path,
    ) -> Result<StoredStudy, bfu_store::StoreError> {
        let (web, survey) = Study::survey_for(&config);
        match bfu_store::load_survey_dataset(&survey, dir)? {
            bfu_store::LoadOutcome::Complete { dataset, report } => {
                let resumed_sites = dataset.sites.len();
                Ok(StoredStudy {
                    study: Study::from_parts(web, dataset, config),
                    resumed_sites,
                    crawled_sites: 0,
                    report,
                    scrub: None,
                })
            }
            bfu_store::LoadOutcome::Incomplete {
                present, missing, ..
            } => Err(bfu_store::StoreError::Incomplete { present, missing }),
        }
    }

    /// The crawled dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The synthetic web under study.
    pub fn web(&self) -> &SyntheticWeb {
        &self.web
    }

    /// The feature registry.
    pub fn registry(&self) -> &FeatureRegistry {
        self.web.registry()
    }

    /// The configuration used.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Compute every analysis.
    pub fn report(&self) -> StudyReport {
        let registry = self.registry();
        let features = FeaturePopularity::compute(&self.dataset, registry);
        let standards = StandardPopularity::compute(&self.dataset, registry);
        let headline_stats = headline(&features, &standards);
        let table1 = tables::table1(&self.dataset);
        let table2 = tables::table2_full(&standards, registry);
        let table3 = new_standards_per_round(&self.dataset, registry, BrowserProfile::Default);
        let fig3 = standards.popularity_cdf(BrowserProfile::Default);
        let fig4 = fig4_points(&standards, registry);
        let fig5 = fig5_points(&self.dataset, registry);
        let fig6 = age::fig6_points(&standards, registry);
        let fig7 = fig7_points(&standards, registry);
        let fig8 = complexity(&self.dataset, registry);
        StudyReport {
            features,
            standards,
            headline: headline_stats,
            table1,
            table2,
            table3,
            fig3,
            fig4,
            fig5,
            fig6,
            fig7,
            fig8,
        }
    }

    /// Run the §6.2 external validation against `n` traffic-weighted sites.
    pub fn external_validation(&self, n: usize) -> ValidationHistogram {
        let crawl = CrawlConfig {
            profiles: vec![BrowserProfile::Default],
            ..self.config.crawl_config()
        };
        let survey = Survey::new(self.web.clone(), crawl);
        histogram(&survey.external_validation(&self.dataset, n).sites)
    }
}

/// Every computed analysis of one study.
#[derive(Debug)]
pub struct StudyReport {
    /// Per-feature popularity.
    pub features: FeaturePopularity,
    /// Per-standard popularity and block rates.
    pub standards: StandardPopularity,
    /// §5.3 headline statistics.
    pub headline: HeadlineStats,
    /// Table 1 aggregates.
    pub table1: tables::Table1,
    /// Full 75-row Table 2.
    pub table2: Vec<tables::Table2Row>,
    /// Table 3 (new standards per round).
    pub table3: Vec<f64>,
    /// Fig. 3 CDF points.
    pub fig3: Vec<(f64, f64)>,
    /// Fig. 4 points.
    pub fig4: Vec<Fig4Point>,
    /// Fig. 5 points.
    pub fig5: Vec<Fig5Point>,
    /// Fig. 6 points.
    pub fig6: Vec<age::Fig6Point>,
    /// Fig. 7 points (empty without the Fig. 7 profiles).
    pub fig7: Vec<Fig7Point>,
    /// Fig. 8 distribution.
    pub fig8: ComplexityDistribution,
}

impl StudyReport {
    /// The §5.3 headline, rendered.
    pub fn headline_text(&self) -> String {
        report::render_headline(&self.headline)
    }

    /// Every table and figure, rendered as one text document.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        out.push_str(&report::render_table1(&self.table1));
        out.push('\n');
        out.push_str(&self.headline_text());
        out.push('\n');
        out.push_str(&report::render_fig1());
        out.push('\n');
        out.push_str(&report::render_fig3(&self.fig3));
        out.push('\n');
        out.push_str(&report::render_fig4(&self.fig4));
        out.push('\n');
        out.push_str(&report::render_fig5(&self.fig5));
        out.push('\n');
        out.push_str(&report::render_fig6(&self.fig6));
        out.push('\n');
        out.push_str(&report::render_fig7(&self.fig7));
        out.push('\n');
        out.push_str(&report::render_fig8(&self.fig8));
        out.push('\n');
        out.push_str(&report::render_table2(&self.table2));
        out.push('\n');
        out.push_str(&report::render_table3(&self.table3));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    static STUDY: OnceLock<Study> = OnceLock::new();

    fn study() -> &'static Study {
        STUDY.get_or_init(|| Study::run(StudyConfig::quick(25, 7)))
    }

    #[test]
    fn quick_study_produces_full_report() {
        let report = study().report();
        assert_eq!(report.table2.len(), 75);
        assert!(report.table1.domains_measured > 15);
        assert!(!report.fig4.is_empty());
        assert!(!report.fig7.is_empty(), "fig7 profiles crawled");
        assert!(report.headline.features_never_used > 0);
        let text = report.render_all();
        assert!(text.contains("Table 1"));
        assert!(text.contains("Fig 8"));
        assert!(text.contains("Headline"));
    }

    #[test]
    fn external_validation_runs() {
        let h = study().external_validation(5);
        assert!(h.total_sites > 0);
    }

    #[test]
    fn config_fingerprint_matches_survey_and_ignores_threads() {
        let config = StudyConfig::quick(12, 5);
        let (_, survey) = Study::survey_for(&config);
        assert_eq!(config.fingerprint(), survey.fingerprint());
        let mut other_threads = config.clone();
        other_threads.threads = config.threads + 3;
        assert_eq!(config.fingerprint(), other_threads.fingerprint());
        let mut other_seed = config;
        other_seed.seed ^= 1;
        assert_ne!(other_seed.fingerprint(), other_threads.fingerprint());
    }

    #[test]
    fn store_run_then_load_fingerprints_match() {
        let dir = std::env::temp_dir().join(format!("bfu-core-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StudyConfig::quick(6, 31);
        let fresh = Study::run(config.clone());
        let written = Study::run_with_store(config.clone(), &dir).expect("run with store");
        assert_eq!(written.crawled_sites, 6);
        assert_eq!(
            written.study.dataset().fingerprint(),
            fresh.dataset().fingerprint()
        );
        let loaded = Study::from_store(config, &dir).expect("load from store");
        assert_eq!(loaded.crawled_sites, 0, "load must not crawl");
        assert_eq!(loaded.resumed_sites, 6);
        assert!(loaded.cache_line().contains("HIT"));
        assert_eq!(
            loaded.study.dataset().fingerprint(),
            fresh.dataset().fingerprint()
        );
    }

    #[test]
    fn studies_are_reproducible() {
        let a = Study::run(StudyConfig::quick(8, 42));
        let b = Study::run(StudyConfig::quick(8, 42));
        assert_eq!(
            a.dataset().total_invocations(),
            b.dataset().total_invocations()
        );
        assert_eq!(a.dataset().total_pages(), b.dataset().total_pages());
    }
}
