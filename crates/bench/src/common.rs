//! Shared infrastructure of the reproduction harness: the run context,
//! scheme construction, and the invocation's build-once cache of AUV models
//! and scheme runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use aum::baselines::{AllAu, AuFi, AuRb, AuUp, RpAu, SmtAu};
use aum::cluster::ClusterConfig;
use aum::controller::AumController;
use aum::experiment::{try_run_experiment_traced, ExperimentConfig, Outcome};
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
    /// The invocation's AUV models and scheme runs: each (platform,
    /// scenario, co-runner) model is profiled once and each distinct
    /// [`Cell`] is simulated once, by the first study that needs it, and
    /// every later study reuses the result.
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

/// One paper-default scheme run: a [`Scheme`] and the
/// `ExperimentConfig::paper_default` it runs, with the co-runner and the
/// rate made effective, so that every request for the same simulation
/// compares equal.
///
/// The whole config is the key: a run is a pure function of its config and
/// its manager, and an AUM cell's model comes from the same cache key on
/// every request, so two equal cells give the same outcome bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    scheme: Scheme,
    cfg: ExperimentConfig,
}

impl Cell {
    /// `scheme` on `platform` serving `scenario` beside `be` at the
    /// scenario's default rate for the paper-default duration. ALL-AU runs
    /// exclusively (no co-runner) by definition.
    #[must_use]
    pub fn new(scheme: Scheme, platform: &PlatformSpec, scenario: Scenario, be: BeKind) -> Cell {
        let be = (scheme != Scheme::AllAu).then_some(be);
        let mut cfg = ExperimentConfig::paper_default(platform.clone(), scenario, be);
        cfg.rate = Some(scenario.default_rate());
        Cell { scheme, cfg }
    }

    /// The (scenario × co-runner × scheme) grid on one platform, scenario
    /// major, then co-runner, then scheme.
    #[must_use]
    pub fn grid(
        platform: &PlatformSpec,
        scenarios: &[Scenario],
        bes: &[BeKind],
        schemes: &[Scheme],
    ) -> Vec<Cell> {
        scenarios
            .iter()
            .flat_map(|&sc| bes.iter().map(move |&be| (sc, be)))
            .flat_map(|(sc, be)| schemes.iter().map(move |&s| Cell::new(s, platform, sc, be)))
            .collect()
    }

    /// The same cell at another offered rate (req/s).
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Cell {
        self.cfg.rate = Some(rate);
        self
    }

    /// The same cell simulated for `duration`.
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Cell {
        self.cfg.duration = duration;
        self
    }
}

/// Build-once latches found by linear scan (see [`latched`]).
type Latches<K, V> = Mutex<Vec<(K, Arc<OnceLock<V>>)>>;

/// The value latched under the first key `matches` accepts, running `build`
/// if no earlier request has; `key` makes a new slot's key, so a hit copies
/// nothing. The list lock is held only long enough to fetch or insert a
/// key's latch, and the build runs under the key's [`OnceLock`]: concurrent
/// requests for the *same* key block until the single build finishes, while
/// requests for *different* keys proceed independently.
fn latched<K, V: Clone>(
    latches: &Latches<K, V>,
    matches: impl Fn(&K) -> bool,
    key: impl FnOnce() -> K,
    build: impl FnOnce() -> V,
) -> V {
    let slot = {
        let mut slots = latches.lock().expect("cache lock");
        let found = slots
            .iter()
            .find(|(k, _)| matches(k))
            .map(|(_, slot)| Arc::clone(slot));
        found.unwrap_or_else(|| {
            let slot = Arc::new(OnceLock::new());
            slots.push((key(), Arc::clone(&slot)));
            slot
        })
    };
    slot.get_or_init(build).clone()
}

/// Caches profiled AUV models and paper-default scheme runs across
/// experiments (one offline profile can drive thousands of cores, §VII-D;
/// a deterministic run repeated by a later study is the same run).
///
/// Models are keyed on the platform name, scenario and co-runner; scheme
/// runs on their whole [`Cell`]. Even `repro all` holds only 15 models and
/// 69 cells, so a linear scan finds a key without allocating, and only a
/// miss copies it.
///
/// Concurrency-safe: lookups take `&self` and every key builds once under
/// its own latch, so parallel sweeps stay deterministic. Models and
/// outcomes are handed out as `Arc` clones (pointer bumps), never deep
/// copies. The cost is memory: every distinct cell's [`Outcome`] lives as
/// long as the cache.
pub struct ModelCache {
    models: Latches<(String, Scenario, BeKind), Arc<AuvModel>>,
    cells: Latches<Cell, Arc<Outcome>>,
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
            models: Mutex::default(),
            cells: Mutex::default(),
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
        latched(
            &self.models,
            |(name, sc, b)| *name == spec.name && *sc == scenario && *b == be,
            || (spec.name.clone(), scenario, be),
            || {
                let _prof = aum_sim::prof::scope("model_cache.build");
                self.builds.fetch_add(1, Ordering::Relaxed);
                aum_sim::prof::count("model_cache.build", 1);
                Arc::new(build_model_traced(
                    &(self.profile)(spec.clone(), scenario, be),
                    tracer.clone(),
                ))
            },
        )
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

    /// The outcome of `cell`, simulated by the first request for its key
    /// and latched for every later one.
    ///
    /// An AUM cell's run streams into the `tracer` of that first request
    /// (the invocation's, or inside a sweep the cell's capture of it), as a
    /// model build streams into its first requester's; a hit emits nothing.
    /// Baseline schemes stay untraced.
    pub fn outcome(&self, cell: &Cell, tracer: &Tracer) -> Arc<Outcome> {
        latched(
            &self.cells,
            |c| c == cell,
            || cell.clone(),
            || {
                let cfg = &cell.cfg;
                let mut mgr = make_manager(
                    cell.scheme,
                    &cfg.platform,
                    cfg.scenario,
                    cfg.be,
                    self,
                    tracer,
                );
                let run_tracer = match cell.scheme {
                    Scheme::Aum => tracer.clone(),
                    _ => Tracer::disabled(),
                };
                let outcome = try_run_experiment_traced(cfg, mgr.as_mut(), run_tracer);
                Arc::new(outcome.expect("a paper-default cell runs under a covering manager"))
            },
        )
    }

    /// The outcomes of `cells`, in order, fanned out through the parallel
    /// sweep executor. The AUV models the AUM cells need are built serially
    /// first, in cell order ([`Self::warm`]), so the profiler trace keeps
    /// its deterministic position ahead of the per-cell streams that
    /// [`aum_sim::exec::sweep_traced`] merges in cell order.
    ///
    /// `cells` must not repeat an AUM cell: the worker that won the latch
    /// would decide where that run's records land. No study's grid repeats
    /// one (debug builds check).
    pub fn outcomes(&self, cells: Vec<Cell>, tracer: &Tracer) -> Vec<Arc<Outcome>> {
        let aum: Vec<&Cell> = cells.iter().filter(|c| c.scheme == Scheme::Aum).collect();
        debug_assert!(
            aum.iter().enumerate().all(|(i, c)| !aum[..i].contains(c)),
            "an AUM cell repeats in one outcomes() list"
        );
        let be = |c: &Cell| c.cfg.be.unwrap_or(BeKind::SpecJbb);
        self.warm(
            aum.iter().map(|c| (&c.cfg.platform, c.cfg.scenario, be(c))),
            tracer,
        );
        aum_sim::exec::sweep_traced(tracer, cells, |_, cell, tracer| {
            self.outcome(&cell, &tracer)
        })
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
    use aum_sim::telemetry::{MemorySink, OrderingSink, TraceRecord};

    /// A 30 s GenA cell, short enough for a debug-build test.
    fn cell(scheme: Scheme, scenario: Scenario, be: BeKind) -> Cell {
        Cell::new(scheme, &PlatformSpec::gen_a(), scenario, be)
            .with_duration(SimDuration::from_secs(30))
    }

    /// A smoke-profile cache that already holds the GenA chatbot/SPECjbb
    /// model (returned too), so a request's records are the run's alone.
    fn warm_cache() -> (ModelCache, Arc<AuvModel>) {
        let cache = ModelCache::with_profile(ProfilerConfig::smoke);
        let gen_a = PlatformSpec::gen_a();
        let model = cache.model(
            &gen_a,
            Scenario::Chatbot,
            BeKind::SpecJbb,
            &Tracer::disabled(),
        );
        (cache, model)
    }

    /// The serialized records `f` emits into a fresh capture tracer.
    fn captured(f: impl FnOnce(&Tracer)) -> Vec<String> {
        let (tracer, sink) = Tracer::shared(OrderingSink::new(MemorySink::new()));
        f(&tracer);
        tracer.flush();
        let sink = sink.lock().expect("capture sink lock");
        sink.inner()
            .records()
            .iter()
            .map(TraceRecord::to_jsonl)
            .collect()
    }

    #[test]
    fn equal_cells_share_one_run_and_different_ones_do_not() {
        let cache = ModelCache::with_profile(ProfilerConfig::smoke);
        let off = Tracer::disabled();
        let jbb = cache.outcome(
            &cell(Scheme::AllAu, Scenario::Chatbot, BeKind::SpecJbb),
            &off,
        );
        // ALL-AU runs exclusive, so its co-runner is not part of the key.
        let olap = cache.outcome(&cell(Scheme::AllAu, Scenario::Chatbot, BeKind::Olap), &off);
        assert!(Arc::ptr_eq(&jbb, &olap));
        // An unset rate is the scenario default.
        let default_rate = cell(Scheme::AllAu, Scenario::Chatbot, BeKind::SpecJbb)
            .with_rate(Scenario::Chatbot.default_rate());
        assert!(Arc::ptr_eq(&jbb, &cache.outcome(&default_rate, &off)));

        let summarization = cell(Scheme::AllAu, Scenario::Summarization, BeKind::SpecJbb);
        assert!(!Arc::ptr_eq(&jbb, &cache.outcome(&summarization, &off)));
        let longer = cell(Scheme::AllAu, Scenario::Chatbot, BeKind::SpecJbb)
            .with_duration(SimDuration::from_secs(40));
        let longer = cache.outcome(&longer, &off);
        assert!(!Arc::ptr_eq(&jbb, &longer));
        assert!(
            longer.completed > jbb.completed,
            "the longer run serves more"
        );

        // Baseline schemes stay untraced, hit or miss.
        let baseline = captured(|t| {
            cache.outcome(&cell(Scheme::RpAu, Scenario::Chatbot, BeKind::SpecJbb), t);
        });
        assert!(baseline.is_empty(), "{baseline:?}");
    }

    #[test]
    fn a_traced_miss_emits_what_the_run_emits_and_a_hit_emits_nothing() {
        let aum = cell(Scheme::Aum, Scenario::Chatbot, BeKind::SpecJbb);
        let (_, model) = warm_cache();
        let expected = captured(|t| {
            let mut mgr = AumController::new(model);
            try_run_experiment_traced(&aum.cfg, &mut mgr, t.clone()).expect("smoke cell runs");
        });
        assert!(!expected.is_empty(), "an AUM run emits records");
        let (cache, _) = warm_cache();
        let mut outcomes = Vec::new();
        let miss = captured(|t| outcomes.push(cache.outcome(&aum, t)));
        assert_eq!(miss, expected, "a traced miss emits what the run emits");
        let hit = captured(|t| outcomes.push(cache.outcome(&aum, t)));
        assert!(
            Arc::ptr_eq(&outcomes[0], &outcomes[1]),
            "the second request hits"
        );
        assert!(hit.is_empty(), "a hit emits nothing: {hit:?}");
    }

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
