//! Shared infrastructure of the reproduction harness: the run context,
//! scheme construction, AUV-model caching, and experiment execution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use aum::baselines::{AllAu, AuFi, AuRb, AuUp, RpAu, SmtAu};
use aum::cluster::ClusterConfig;
use aum::controller::AumController;
use aum::experiment::{run_experiment_traced, ExperimentConfig, Outcome};
use aum::manager::ResourceManager;
use aum::profiler::{build_model_traced, AuvModel, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

/// Everything one `repro` invocation shares across the studies it runs.
///
/// `repro` builds exactly one, with [`RunCtx::new`], and hands it to every
/// study it dispatches. The fields are public so tests can assemble a ctx
/// around a capture tracer or a smoke-profile cache.
pub struct RunCtx {
    /// `repro --quick`: studies that honour it run their short CI smoke
    /// configuration.
    pub quick: bool,
    /// The harness tracer: disabled unless `repro --trace`/`--flight`
    /// installed a sink. AUM-scheme runs and profiler sweeps stream into
    /// it; baseline schemes stay untraced so a figure-wide trace stays
    /// focused on the controller under study.
    pub tracer: Tracer,
    /// The invocation's AUV models: each (platform, scenario, co-runner)
    /// model is profiled once, by the first study that needs it, and every
    /// later study reuses it.
    pub cache: ModelCache,
}

impl RunCtx {
    /// A ctx with an empty paper-scale model cache.
    #[must_use]
    pub fn new(quick: bool, tracer: Tracer) -> Self {
        RunCtx {
            quick,
            tracer,
            cache: ModelCache::new(),
        }
    }
}

/// The seven evaluated schemes (paper Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// AU-exclusive, no sharing.
    AllAu,
    /// AUV-oblivious SMT sharing.
    SmtAu,
    /// AUV-oblivious resource partitioning.
    RpAu,
    /// Usage-pattern-aware variant.
    AuUp,
    /// Frequency-interference-aware variant.
    AuFi,
    /// Resource-bound-aware variant.
    AuRb,
    /// The full three-dimensional proposal.
    Aum,
}

impl Scheme {
    /// All schemes in Table V order.
    pub const ALL: [Scheme; 7] = [
        Scheme::AllAu,
        Scheme::SmtAu,
        Scheme::RpAu,
        Scheme::AuUp,
        Scheme::AuFi,
        Scheme::AuRb,
        Scheme::Aum,
    ];

    /// Printable scheme name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::AllAu => "ALL-AU",
            Scheme::SmtAu => "SMT-AU",
            Scheme::RpAu => "RP-AU",
            Scheme::AuUp => "AU-UP",
            Scheme::AuFi => "AU-FI",
            Scheme::AuRb => "AU-RB",
            Scheme::Aum => "AUM",
        }
    }
}

/// One cache entry: the (platform name, scenario, co-runner) key and the
/// build-once latch that holds the model.
type Slot = (String, Scenario, BeKind, Arc<OnceLock<Arc<AuvModel>>>);

/// Caches profiled AUV models across experiments (one offline profile can
/// drive thousands of cores, §VII-D).
///
/// Keyed on the platform name: even `repro all` caches only 15 models, so
/// a linear scan finds a key without allocating, and only a miss copies
/// the name.
///
/// Concurrency-safe: lookups take `&self`, the list lock is held only long
/// enough to fetch/insert a per-key latch, and the actual profiling sweep
/// runs under the key's [`OnceLock`] — concurrent requests for the *same*
/// model block until the single build finishes, while requests for
/// *different* models proceed independently. Models are returned as
/// [`Arc<AuvModel>`] clones (pointer bumps), never deep bucket copies.
pub struct ModelCache {
    slots: Mutex<Vec<Slot>>,
    /// Builds the profiling sweep for a key — `paper_default` in studies;
    /// tests substitute `ProfilerConfig::smoke` to keep runtimes sane while
    /// exercising the identical cache/executor code path.
    profile: fn(PlatformSpec, Scenario, BeKind) -> ProfilerConfig,
    lookups: AtomicU64,
    builds: AtomicU64,
}

/// A point-in-time copy of one [`ModelCache`]'s hit/miss accounting.
///
/// `hits = lookups − builds`: a lookup counts as a *hit* unless this very
/// call ran the profiling sweep. A caller that blocks on another thread's
/// in-flight build is a hit — the work was shared — which keeps the counts
/// deterministic at every `--jobs` level (one lookup per call site, one
/// build per distinct key).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Model requests served ([`ModelCache::model`] calls).
    pub lookups: u64,
    /// Requests that ran the profiling sweep (distinct keys built).
    pub builds: u64,
}

impl CacheStats {
    /// Lookups served without running a profiling sweep.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.lookups.saturating_sub(self.builds)
    }

    /// Fraction of lookups served from cache (1.0 for an idle cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits() as f64 / self.lookups as f64
        }
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new()
    }
}

impl ModelCache {
    /// Creates an empty cache profiling at paper scale.
    #[must_use]
    pub fn new() -> Self {
        Self::with_profile(ProfilerConfig::paper_default)
    }

    /// Creates an empty cache with a custom profiling-sweep factory.
    #[must_use]
    pub fn with_profile(profile: fn(PlatformSpec, Scenario, BeKind) -> ProfilerConfig) -> Self {
        ModelCache {
            slots: Mutex::new(Vec::new()),
            profile,
            lookups: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// Returns (building if necessary) the AUV model for a configuration.
    ///
    /// A build streams its profiler events into `tracer` and is
    /// parallelized internally by the profiler's sweep; callers that
    /// dispatch traced cells through the executor should [`Self::warm`]
    /// every needed model first so profiler events keep their serial
    /// position in the merged trace.
    pub fn model(
        &self,
        spec: &PlatformSpec,
        scenario: Scenario,
        be: BeKind,
        tracer: &Tracer,
    ) -> Arc<AuvModel> {
        let _prof = aum_sim::prof::scope("model_cache.lookup");
        self.lookups.fetch_add(1, Ordering::Relaxed);
        aum_sim::prof::count("model_cache.lookup", 1);
        let slot = {
            let mut slots = self.slots.lock().expect("model cache lock");
            let found = slots
                .iter()
                .find(|(name, sc, b, _)| *name == spec.name && *sc == scenario && *b == be)
                .map(|(.., slot)| Arc::clone(slot));
            found.unwrap_or_else(|| {
                let slot = Arc::new(OnceLock::new());
                slots.push((spec.name.clone(), scenario, be, Arc::clone(&slot)));
                slot
            })
        };
        Arc::clone(slot.get_or_init(|| {
            let _prof = aum_sim::prof::scope("model_cache.build");
            self.builds.fetch_add(1, Ordering::Relaxed);
            aum_sim::prof::count("model_cache.build", 1);
            Arc::new(build_model_traced(
                &(self.profile)(spec.clone(), scenario, be),
                tracer.clone(),
            ))
        }))
    }

    /// Hit/miss accounting for this cache instance (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// The AUV model of every server of a cluster, in server order (a
    /// server without a co-runner is profiled against SPECjbb). Builds run
    /// serially, in that order, through `tracer`.
    pub fn cluster_models(&self, cfg: &ClusterConfig, tracer: &Tracer) -> Vec<AuvModel> {
        cfg.servers
            .iter()
            .map(|s| {
                let be = s.be.unwrap_or(BeKind::SpecJbb);
                (*self.model(&s.platform, cfg.scenario, be, tracer)).clone()
            })
            .collect()
    }

    /// Eagerly builds the models for every listed configuration, in order.
    /// Called before a parallel study sweep so cells only ever *hit* the
    /// cache and the profiler's own trace events land deterministically
    /// ahead of the study's.
    pub fn warm<'a>(
        &self,
        configs: impl IntoIterator<Item = (&'a PlatformSpec, Scenario, BeKind)>,
        tracer: &Tracer,
    ) {
        for (spec, scenario, be) in configs {
            let _ = self.model(spec, scenario, be, tracer);
        }
    }
}

/// Builds the manager for a scheme (profiling first for AUM, through
/// `tracer` on a cache miss).
pub fn make_manager(
    scheme: Scheme,
    spec: &PlatformSpec,
    scenario: Scenario,
    be: Option<BeKind>,
    cache: &ModelCache,
    tracer: &Tracer,
) -> Box<dyn ResourceManager> {
    match scheme {
        Scheme::AllAu => Box::new(AllAu::new(spec)),
        Scheme::SmtAu => Box::new(SmtAu::new(spec)),
        Scheme::RpAu => Box::new(RpAu::new(spec)),
        Scheme::AuUp => Box::new(AuUp::new(spec)),
        Scheme::AuFi => Box::new(AuFi::new(spec)),
        Scheme::AuRb => Box::new(AuRb::new(spec)),
        Scheme::Aum => {
            let model = cache.model(spec, scenario, be.unwrap_or(BeKind::SpecJbb), tracer);
            Box::new(AumController::new(model))
        }
    }
}

/// Runs one scheme on one (platform, scenario, co-runner) cell. ALL-AU runs
/// exclusively (no co-runner) by definition, and only the AUM run streams
/// into `tracer`. `rate = None` uses the scenario default; `duration =
/// None` uses the paper default.
///
/// Serial callers pass the ctx's tracer; parallel sweep cells pass their
/// per-cell capture, and the determinism tests drive this exact code path
/// at reduced duration.
#[allow(clippy::too_many_arguments)]
pub fn scheme_outcome_cell(
    scheme: Scheme,
    spec: &PlatformSpec,
    scenario: Scenario,
    be: BeKind,
    rate: Option<f64>,
    duration: Option<SimDuration>,
    cache: &ModelCache,
    tracer: &Tracer,
) -> Outcome {
    let be_opt = if scheme == Scheme::AllAu {
        None
    } else {
        Some(be)
    };
    let mut cfg = ExperimentConfig::paper_default(spec.clone(), scenario, be_opt);
    cfg.rate = rate;
    if let Some(d) = duration {
        cfg.duration = d;
    }
    let mut mgr = make_manager(scheme, spec, scenario, be_opt, cache, tracer);
    let tracer = if scheme == Scheme::Aum {
        tracer.clone()
    } else {
        Tracer::disabled()
    };
    run_experiment_traced(&cfg, mgr.as_mut(), tracer)
}

/// Offered request rate scaled to a platform's serving capacity relative to
/// GenA — the binding resource is memory bandwidth for decode and AMX
/// throughput for prefill, so the scale takes the smaller of the two
/// (GenB's HBM triples bandwidth but keeps GenA's AU, GenC improves both).
#[must_use]
pub fn platform_scaled_rate(spec: &PlatformSpec, scenario: Scenario) -> f64 {
    let gen_a = PlatformSpec::gen_a();
    let bw_ratio = spec.mem_bw.value() / gen_a.mem_bw.value();
    let amx_ratio = spec.amx_peak.value() / gen_a.amx_peak.value();
    scenario.default_rate() * bw_ratio.min(amx_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-counted cache accounting: 6 lookups over 2 distinct keys must
    /// report exactly 6 lookups, 2 builds, 4 hits — the counts are defined
    /// by which lookups actually ran the build closure, so they hold at
    /// any worker count (the profiling sweep runs once per key).
    #[test]
    fn model_cache_hit_miss_counts_are_exact() {
        let cache = ModelCache::with_profile(ProfilerConfig::smoke);
        let start = cache.stats();
        assert_eq!((start.lookups, start.builds), (0, 0));
        assert!((start.hit_rate() - 1.0).abs() < f64::EPSILON);

        let spec = PlatformSpec::gen_a();
        let tracer = Tracer::disabled();
        for _ in 0..3 {
            cache.model(&spec, Scenario::Chatbot, BeKind::SpecJbb, &tracer);
        }
        for _ in 0..3 {
            cache.model(&spec, Scenario::Chatbot, BeKind::Olap, &tracer);
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups, 6, "every model() call is a lookup");
        assert_eq!(stats.builds, 2, "one profiling sweep per distinct key");
        assert_eq!(stats.hits(), 4, "hits = lookups - builds");
        assert!((stats.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
    }
}
