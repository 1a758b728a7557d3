//! The planning-session layer: plan caching across training iterations.
//!
//! The online planner (§3.2) re-plans every iteration, but dynamic
//! multimodal workloads repeat shapes: the Fig. 8b rise-and-fall envelope
//! cycles through the same image-count bounds, and production traces see
//! the same packed-batch shapes again and again. A [`PlanningSession`]
//! amortises that repetition the way a JIT caches compiled byte-code:
//!
//! * every [`PlanRequest`] is keyed by its exact [`CanonicalSignature`]
//!   (bucketing [`BucketingConfig::exact`]) over the per-modality
//!   token/sequence counts of its microbatches (see the key checks below
//!   on why no key folds in the topology);
//! * plans for already-seen signatures are served from an LRU cache in
//!   microseconds instead of re-running the MCTS ordering search and the
//!   memory ILP (the [`SessionStats`] per-tier counters make the saving
//!   observable); the hit path takes a single cache-lock acquisition;
//! * with [`SessionConfig::bucketing`] enabled, exact misses fall through
//!   to a **fuzzy tier**: the same signature under the configured (wider)
//!   bucketing is looked up in a bucket-keyed anchor cache, and an
//!   in-bucket neighbour's plan is **repriced** — the neighbour's
//!   placement, sub-microbatch splits, memory plan and segment priorities
//!   are adopted, the stage graph is expanded once for the real shape and
//!   repriced in place, and one interleave pass schedules it under the
//!   neighbour's ordering; no ordering search and no memory ILP, so
//!   fuzzy-hit latency sits orders of magnitude below a cold plan while
//!   staying within a small simulated regret of it (the `fuzzy_replanning`
//!   proptests bound it empirically);
//! * after a cluster-topology change ([`PlanningSession::retarget`]),
//!   the plans the session had cached on the old topology become **elastic
//!   anchors**, and a request that was planned before the change is
//!   replanned from its own running plan: candidate placements on the new
//!   topology are priced against a migration-cost objective (see
//!   [`crate::elastic`]);
//! * fresh signatures are planned **single-flight**: threads stampeding on
//!   the same new shape run the planner exactly once — one leader plans
//!   while the rest wait on the key's slot in the in-flight table and then
//!   serve the freshly cached plan as a hit.
//!
//! The tiers are tried in the order exact → elastic → fuzzy → cold. The
//! elastic tier comes before the fuzzy one because its anchor is the
//! request's own running plan, and pricing the state that plan would have
//! to move is what the tier is for. An elastic plan is cached under the
//! request's exact key on the new topology, so a repeat is an exact hit,
//! but it never anchors a fuzzy bucket: every fuzzy plan stays one step
//! from a cold plan.
//!
//! # Key checks
//!
//! The tables key on 64-bit hashes of the request alone. None folds in
//! the cluster topology, because a session's tables only ever hold plans
//! for its current topology: [`PlanningSession::retarget`] moves the exact
//! cache into the elastic anchors and empties the fuzzy table, and
//! [`PlanningSession::offline_partition`] and [`PlanningSession::clear`]
//! empty both. The exact cache and the elastic anchors also store the
//! microbatches each plan was made for, and a hit whose microbatches
//! differ from the request's is a miss: a hash collision never serves
//! another request's plan. The in-flight table needs no check of its
//! own, since a waiter that finds no matching plan takes the lead and
//! plans. Fuzzy anchors stay hash-keyed: a collision there only picks an
//! anchor that [`DipPlanner`]'s structural check then accepts or rejects,
//! and that is repriced against the request's real shape.
//!
//! Once the placement is pinned (by [`PlanningSession::offline_partition`]
//! or by the first request), no plan depends on request history: a cold
//! plan is a pure function of its request, a fuzzy plan a pure function
//! of its request and its anchor, and an elastic plan a pure function of
//! its request, its anchor and the two topologies.
//!
//! # Thread safety
//!
//! [`PlanningSession::plan`] takes `&self`: the plan caches and the
//! statistics each live behind a mutex, so one session can be shared
//! across threads (e.g. behind an `Arc`, or borrowed into scoped threads)
//! and serve cache hits concurrently — a hit holds
//! the cache lock only for the lookup and clones the plan outside it.
//! [`PlanningSession::plan_many`] plans a slice of
//! independent requests through a worker pool sized so that the pool width
//! times the per-plan search parallelism stays within the
//! [`PlannerConfig::num_threads`] CPU budget. Operations that invalidate
//! the cache ([`PlanningSession::offline_partition`],
//! [`PlanningSession::clear`], [`PlanningSession::retarget`]) take
//! `&mut self`, so the type system rules out racing them against in-flight
//! planning.
//!
//! # Example
//!
//! ```
//! use dip_core::{PlanRequest, PlanTier, PlanningSession, PlannerConfig};
//! use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
//! use dip_pipeline::ParallelConfig;
//! use dip_sim::ClusterTopology;
//!
//! let spec = zoo::vlm_s();
//! let cluster = ClusterTopology::h800_cluster(2);
//! let session = PlanningSession::new(
//!     &spec,
//!     ParallelConfig::new(4, 4, 1),
//!     &cluster,
//!     PlannerConfig::fast(),
//! );
//! let request = PlanRequest::new(vec![BatchWorkload::new()
//!     .with(Modality::Text, ModalityWorkload::new(6502, 1))
//!     .with(Modality::Image, ModalityWorkload::new(1690, 10))]);
//! let first = session.plan(&request).unwrap();
//! let second = session.plan(&request).unwrap();
//! assert_eq!(first.tier, PlanTier::Cold);
//! assert_eq!(second.tier, PlanTier::Exact);
//! assert_eq!(first.plan.orders, second.plan.orders);
//! ```

use crate::elastic::{ElasticCandidate, ElasticConfig, ElasticOutcome, ElasticReport};
use crate::error::DipError;
use crate::planner::{
    heaviest, require_microbatches, DipPlan, DipPlanner, PhaseTimes, PlanTier, PlannerConfig,
    PlannerStats, Reuse,
};
use dip_models::{BatchWorkload, BucketingConfig, CanonicalSignature, LmmSpec};
use dip_pipeline::par::parallel_map_indexed;
use dip_pipeline::{ExecutionOutcome, ParallelConfig};
use dip_sim::ClusterTopology;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};
use std::time::{Duration, Instant};

/// One iteration's planning request: the prefetched microbatch metadata
/// (workflow step ① of §3.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanRequest {
    microbatches: Vec<BatchWorkload>,
}

impl PlanRequest {
    /// A request planning `microbatches` for the next iteration.
    pub fn new(microbatches: Vec<BatchWorkload>) -> Self {
        Self { microbatches }
    }

    /// The microbatch workloads of the request.
    pub fn microbatches(&self) -> &[BatchWorkload] {
        &self.microbatches
    }

    /// The request's exact workload signature: equal exactly when the
    /// microbatch workloads are equal, in the same order. It keys the
    /// session's exact cache, elastic anchors and in-flight table.
    pub fn signature(&self) -> CanonicalSignature {
        CanonicalSignature::of(&self.microbatches, &BucketingConfig::exact())
    }
}

impl From<Vec<BatchWorkload>> for PlanRequest {
    fn from(microbatches: Vec<BatchWorkload>) -> Self {
        Self::new(microbatches)
    }
}

impl From<&[BatchWorkload]> for PlanRequest {
    fn from(microbatches: &[BatchWorkload]) -> Self {
        Self::new(microbatches.to_vec())
    }
}

/// The outcome of planning one request through a [`PlanningSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The execution plan (freshly computed, elastically replanned from
    /// the request's plan on the previous topology, delta-replanned from
    /// an in-bucket neighbour, or restored from the cache).
    pub plan: DipPlan,
    /// The request's exact workload signature ([`PlanRequest::signature`]).
    pub signature: CanonicalSignature,
    /// Which tier of the four-tier lookup served this request.
    pub tier: PlanTier,
    /// What the elastic replan decided (candidate, migration, topology
    /// delta, objective and every candidate's report); `Some` exactly when
    /// `tier` is [`PlanTier::Elastic`].
    pub elastic: Option<ElasticReport>,
}

/// Configuration of a [`PlanningSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum number of cached plans (LRU eviction); `0` disables caching.
    /// The fuzzy anchor cache (when [`SessionConfig::bucketing`] is set)
    /// has the same capacity.
    pub cache_capacity: usize,
    /// Enables the fuzzy tier: exact misses whose quantised
    /// [`CanonicalSignature`] matches a cached anchor are served by delta
    /// replanning instead of a cold plan. `None` (the default) keeps the
    /// session exact-only; the bucket widths trade fuzzy hit rate against
    /// worst-case in-bucket regret.
    pub bucketing: Option<BucketingConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 64,
            bucketing: None,
        }
    }
}

impl SessionConfig {
    /// A session with caching disabled — every request is planned from
    /// scratch (the pre-session behaviour, useful as a baseline).
    pub fn cold() -> Self {
        Self {
            cache_capacity: 0,
            bucketing: None,
        }
    }

    /// A session with the fuzzy tier enabled under the default
    /// [`BucketingConfig`] (on top of the default exact cache).
    pub fn fuzzy() -> Self {
        Self {
            bucketing: Some(BucketingConfig::default()),
            ..Self::default()
        }
    }
}

/// Cumulative statistics of a [`PlanningSession`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionStats {
    /// Total plan requests served.
    pub requests: u64,
    /// Requests answered verbatim from the exact-signature plan cache.
    pub exact_hits: u64,
    /// Requests answered by the fuzzy tier: an in-bucket neighbour's plan
    /// was repriced for the request and its ordering adopted verbatim. A
    /// fuzzy hit is **not** a miss — the tier totals satisfy
    /// `exact_hits + elastic_plans + fuzzy_hits + cache_misses == requests`.
    pub fuzzy_hits: u64,
    /// Requests answered by the elastic tier: the request's own plan from
    /// before the last [`PlanningSession::retarget`] was replanned onto the
    /// new topology.
    pub elastic_plans: u64,
    /// Always zero: fuzzy hits run no ordering search. Kept only because
    /// the planner benchmark reads it.
    pub delta_replans: u64,
    /// Requests that required a cold plan, plus every request whose plan
    /// failed on any tier, so
    /// `requests == exact_hits + elastic_plans + fuzzy_hits + cache_misses`
    /// always holds.
    pub cache_misses: u64,
    /// Cached plans evicted by the LRU policy.
    pub evictions: u64,
    /// Planning wall time spent serving exact hits (pure lookup cost) —
    /// the per-tier latency split, summed per tier.
    pub exact_hit_time: Duration,
    /// Planning wall time spent serving fuzzy hits (graph expansion +
    /// reprice + one interleave pass).
    pub fuzzy_plan_time: Duration,
    /// Planning wall time spent on elastic replans (every candidate's
    /// graph expansion and seeded search).
    pub elastic_plan_time: Duration,
    /// Planning wall time spent on cold plans (the full pipeline).
    pub cold_plan_time: Duration,
    /// The summed phase times of every served plan; exact hits ran no
    /// phase and add nothing.
    pub phases: PhaseTimes,
}

impl SessionStats {
    /// Cumulative wall-clock planning time over all tiers (exact hits
    /// contribute only their lookup cost).
    pub fn planning_time(&self) -> Duration {
        self.exact_hit_time + self.fuzzy_plan_time + self.elastic_plan_time + self.cold_plan_time
    }

    /// Fraction of requests served from a cache tier (exact plus fuzzy
    /// hits); elastic replans are not hits.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.exact_hits + self.fuzzy_hits) as f64 / self.requests as f64
        }
    }
}

/// A cached plan and the microbatches it was planned for: a hit is served
/// only when they equal the request's (see the module's key checks).
#[derive(Debug)]
struct CachedPlan {
    microbatches: Vec<BatchWorkload>,
    plan: DipPlan,
}

/// The plan cache of one tier, exact LRU by use stamps: every `get` and
/// `insert` stamps its entry with the next tick of `clock`, and a new key
/// inserted into a full cache evicts the entry with the smallest stamp.
/// Stamps are unique and only increase, so the eviction order is exactly
/// least-recently-used. The eviction scan covers at most `capacity`
/// entries and runs only after a fresh plan, which costs milliseconds.
#[derive(Debug, Default)]
struct LruCache {
    /// Key → (plan, stamp of its last use). The plan is shared so the hit
    /// path can hand out a cheap `Arc` handle under the lock and clone the
    /// plan outside the critical section, and so one freshly planned
    /// allocation can sit in both the exact and the fuzzy table.
    entries: HashMap<u64, (Arc<CachedPlan>, u64)>,
    /// The last stamp handed out.
    clock: u64,
}

impl LruCache {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    /// The cached plan for `key`, without updating recency.
    #[cfg(test)]
    fn peek(&self, key: u64) -> Option<&DipPlan> {
        self.entries.get(&key).map(|(cached, _)| &cached.plan)
    }

    /// The cached plan for `key`, marking it most recently used — lookup
    /// and recency update under one `&mut` borrow, so the hit path needs a
    /// single lock acquisition. Returns a cheap `Arc` handle so the caller
    /// clones the plan outside the lock.
    fn get(&mut self, key: u64) -> Option<Arc<CachedPlan>> {
        let (plan, stamp) = self.entries.get_mut(&key)?;
        self.clock += 1;
        *stamp = self.clock;
        Some(Arc::clone(plan))
    }

    /// Inserts (or replaces) `key` as most recently used, evicting
    /// least-recently-used entries down to `capacity`; returns how many
    /// entries were evicted. Replacing a cached key never evicts.
    fn insert(&mut self, key: u64, plan: Arc<CachedPlan>, capacity: usize) -> u64 {
        if capacity == 0 {
            return 0;
        }
        self.clock += 1;
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= capacity {
                let oldest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(&oldest, _)| oldest)
                    .expect("a full cache has entries");
                self.entries.remove(&oldest);
                evicted += 1;
            }
        }
        self.entries.insert(key, (plan, self.clock));
        evicted
    }
}

/// The stats of a plan served verbatim from one with `stats`, as `tier`:
/// no phase ran and no search work was done for this request, so only the
/// planning time, the planned time and the ILP's constraint entries carry
/// over.
fn served_verbatim(stats: &PlannerStats, tier: PlanTier) -> PlannerStats {
    PlannerStats {
        planning_time: stats.planning_time,
        memopt_constraint_entries: stats.memopt_constraint_entries,
        planned_time_s: stats.planned_time_s,
        tier,
        ..PlannerStats::default()
    }
}

/// `plan`, served verbatim as `tier`. Every part but the stats is cloned,
/// and each shared part — the graph's slabs, the orders, the memory plan,
/// the sub-microbatch table and the placement's segments — costs a
/// reference-count bump; only the small plain vectors (segment priorities,
/// modalities and the graph's per-rank memory) are copied.
fn serve(plan: &DipPlan, tier: PlanTier) -> DipPlan {
    DipPlan {
        graph: plan.graph.clone(),
        orders: plan.orders.clone(),
        segment_priorities: plan.segment_priorities.clone(),
        memory_plan: plan.memory_plan.clone(),
        sub_microbatches: plan.sub_microbatches.clone(),
        placement: plan.placement.clone(),
        modalities: plan.modalities.clone(),
        topology_fingerprint: plan.topology_fingerprint,
        stats: served_verbatim(&plan.stats, tier),
    }
}

/// A multi-iteration planning session owning a [`DipPlanner`] and its plan
/// caches (see the [module docs](self)).
///
/// The session is `Sync`: share it by reference (or `Arc`) across threads
/// and call [`PlanningSession::plan`] / [`PlanningSession::plan_many`]
/// concurrently.
#[derive(Debug)]
pub struct PlanningSession<'a> {
    planner: DipPlanner<'a>,
    config: SessionConfig,
    cache: Mutex<LruCache>,
    /// Fuzzy anchor cache: canonical (bucketed) key → the bucket's anchor
    /// plan. The *first* cold plan of a bucket becomes its anchor and is
    /// never replaced by delta replans, so in-bucket reuse always measures
    /// one delta step from a cold plan — regret never compounds across a
    /// chain of neighbours.
    fuzzy: Mutex<LruCache>,
    /// The elastic tier's anchors, set by [`PlanningSession::retarget`].
    elastic: Option<ElasticAnchors>,
    /// Single-flight table: cache keys currently being planned, each with
    /// the slot its waiters block on until the key's leader is done.
    in_flight: InFlightTable,
    /// Number of plan-cache lock acquisitions taken by [`PlanningSession::plan`]
    /// (hit path: exactly one per request).
    cache_lock_acquisitions: AtomicU64,
    stats: Mutex<SessionStats>,
}

/// What [`PlanningSession::retarget`] keeps of the previous topology. It
/// changes only under `&mut self`, so planning reads it without a lock.
#[derive(Debug)]
struct ElasticAnchors {
    /// The topology the anchors were planned on.
    old_topology: ClusterTopology,
    /// The replan settings passed to `retarget`.
    config: ElasticConfig,
    /// The old topology's exact-cache plans, under their exact-cache keys.
    plans: HashMap<u64, Arc<CachedPlan>>,
}

/// The single-flight table: the lock is held only to insert, clone or
/// remove a key's slot — never across planning or waiting.
type InFlightTable = StdMutex<HashMap<u64, Arc<OnceLock<()>>>>;

/// Removes the leader's key from the in-flight table and releases the
/// key's waiters when the planning leader is done — on success, error or
/// panic alike, so a failed leader can never strand its waiters.
struct InFlightGuard<'s> {
    in_flight: &'s InFlightTable,
    slot: Arc<OnceLock<()>>,
    key: u64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        // Remove the key first: a waiter that finds no cached plan after
        // the release must be able to take the lead with a fresh slot.
        self.in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key);
        let _ = self.slot.set(());
    }
}

impl<'a> PlanningSession<'a> {
    /// Creates a session with the default [`SessionConfig`].
    pub fn new(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        topology: &ClusterTopology,
        planner_config: PlannerConfig,
    ) -> Self {
        Self::with_config(
            spec,
            parallel,
            topology,
            planner_config,
            SessionConfig::default(),
        )
    }

    /// Creates a session with an explicit [`SessionConfig`]. Its planner is
    /// the one [`DipPlanner::on_topology`] builds over `topology`.
    pub fn with_config(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        topology: &ClusterTopology,
        planner_config: PlannerConfig,
        config: SessionConfig,
    ) -> Self {
        Self {
            planner: DipPlanner::on_topology(spec, parallel, topology.clone(), planner_config),
            config,
            cache: Mutex::new(LruCache::default()),
            fuzzy: Mutex::new(LruCache::default()),
            elastic: None,
            in_flight: InFlightTable::default(),
            cache_lock_acquisitions: AtomicU64::new(0),
            stats: Mutex::new(SessionStats::default()),
        }
    }

    /// The fuzzy-cache key of a request: its signature under the session's
    /// bucketing config. `None` when the fuzzy tier is disabled.
    pub fn fuzzy_key(&self, request: &PlanRequest) -> Option<u64> {
        let bucketing = self.config.bucketing?;
        Some(CanonicalSignature::of(request.microbatches(), &bucketing).as_u64())
    }

    /// The underlying planner, for read access (timing model, partition
    /// output). To re-run the offline phase use
    /// [`PlanningSession::offline_partition`], which also invalidates the
    /// plan cache — calling [`DipPlanner::offline_partition`] through this
    /// reference instead would leave cached plans built against the old
    /// placement being served.
    pub fn planner(&self) -> &DipPlanner<'a> {
        &self.planner
    }

    /// Runs (or re-runs) the planner's offline partitioning phase against a
    /// representative microbatch, dropping every cached plan: each was
    /// produced under the previous placement.
    /// Takes `&mut self` so no concurrent [`PlanningSession::plan`] can
    /// cache a plan against the old placement while it runs.
    ///
    /// # Errors
    ///
    /// Propagates [`DipError`] from [`DipPlanner::offline_partition`].
    pub fn offline_partition(
        &mut self,
        representative: &BatchWorkload,
    ) -> Result<crate::PartitionerOutput, DipError> {
        let output = self.planner.offline_partition(representative)?;
        self.clear();
        Ok(output)
    }

    /// The session configuration.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> SessionStats {
        *self.stats.lock()
    }

    /// Number of plans currently cached (exact tier).
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().len()
    }

    /// Number of fuzzy anchor plans currently cached (one per bucket seen).
    pub fn fuzzy_anchors(&self) -> usize {
        self.fuzzy.lock().len()
    }

    /// Number of elastic anchors: the plans cached on the topology the last
    /// [`PlanningSession::retarget`] left (zero before any).
    #[cfg(test)]
    fn elastic_anchors(&self) -> usize {
        self.elastic
            .as_ref()
            .map_or(0, |elastic| elastic.plans.len())
    }

    /// Drops every cached plan: the exact cache, the fuzzy anchors and the
    /// elastic anchors.
    pub fn clear(&mut self) {
        self.cache.lock().clear();
        self.fuzzy.lock().clear();
        self.elastic = None;
    }

    /// Moves the session onto a new cluster topology after a failure,
    /// preemption or scale event, and keeps the plans it had cached as
    /// elastic anchors.
    ///
    /// The new planner is built exactly as [`DipPlanner::on_topology`]
    /// builds one from this session's model, parallel layout and planner
    /// configuration; a calibration registry resolves again on the new
    /// topology. Every plan in the exact cache becomes an elastic anchor
    /// under its exact-cache key, and the old topology is kept beside
    /// them. The next [`PlanningSession::plan`] of such a request replans
    /// it elastically under `elastic` and books it as
    /// [`PlanTier::Elastic`]. The exact cache and the fuzzy table start
    /// empty, because their plans belong to the old topology.
    ///
    /// A second `retarget` replaces the anchors with the exact cache of the
    /// topology it leaves, so an anchor that was not planned again in
    /// between is dropped. With [`SessionConfig::cache_capacity`] zero
    /// nothing is cached: there are no anchors, and every later plan is
    /// cold. `elastic` holds until the next `retarget`.
    pub fn retarget(&mut self, topology: ClusterTopology, elastic: ElasticConfig) {
        let planner = DipPlanner::on_topology(
            self.planner.spec,
            self.planner.parallel,
            topology,
            self.planner.config.clone(),
        );
        let old = std::mem::replace(&mut self.planner, planner);
        let plans = self
            .cache
            .get_mut()
            .entries
            .drain()
            .map(|(key, (cached, _))| (key, cached))
            .collect();
        self.fuzzy.get_mut().clear();
        self.elastic = Some(ElasticAnchors {
            old_topology: old.topology,
            config: elastic,
            plans,
        });
    }

    /// Plans one iteration through the four-tier lookup: exact cache hit →
    /// elastic replan (after [`PlanningSession::retarget`]) → fuzzy hit
    /// (when [`SessionConfig::bucketing`] is enabled) → cold plan. Takes
    /// `&self`; see the [module docs](self) on tier order and thread
    /// safety.
    ///
    /// Fresh signatures are planned **single-flight**: when several threads
    /// miss on the same key concurrently, exactly one runs the planner and
    /// the rest wait on that key's slot until its plan lands in the cache,
    /// then serve it as a hit — a repeated shape never pays the planner
    /// twice, even under a cache stampede. The exact-hit path takes exactly
    /// one cache-lock acquisition (lookup and LRU stamp under one lock).
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidRequest`] for an empty request or one
    /// with a microbatch of zero tokens (naming its index), otherwise
    /// propagates the planner's [`DipError`]. An elastic anchor that fails
    /// the planner's structural check is an error, not a fall-through: the
    /// anchor is the request's own plan, so a mismatch is a fault.
    pub fn plan(&self, request: &PlanRequest) -> Result<PlanOutcome, DipError> {
        let microbatches = request.microbatches();
        let start = Instant::now();
        let signature = request.signature();
        let key = signature.as_u64();

        // The request checks run after the exact lookup: a hit equals a
        // request that passed them, since no other request is ever cached.
        if self.config.cache_capacity > 0 {
            if let Some(outcome) = self.try_cached(request, key, signature, start) {
                return Ok(outcome);
            }
        }
        require_microbatches(microbatches)?;

        if self.config.cache_capacity == 0 {
            // Caching disabled: nothing to deduplicate or anchor against.
            let planned = self.planner.plan_with(microbatches, Reuse::Cold);
            let planned = planned.map(|plan| (plan, None));
            return self.finish(request, planned, signature, key, None, start);
        }

        // Single-flight on the exact key: become the planning leader, or
        // wait on the key's slot for the current leader and serve its
        // freshly cached plan. Elastic and fuzzy replans run under the same
        // leadership, so a stampeded shape replans exactly once too.
        let slot = loop {
            let (slot, leader) = {
                let mut in_flight = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
                match in_flight.entry(key) {
                    Entry::Occupied(occupied) => (Arc::clone(occupied.get()), false),
                    Entry::Vacant(vacant) => (Arc::clone(vacant.insert(Arc::default())), true),
                }
            };
            if leader {
                // We inserted the slot: we are this key's leader.
                break slot;
            }
            slot.wait();
            if let Some(outcome) = self.try_cached(request, key, signature, start) {
                return Ok(outcome);
            }
            // The leader failed, its plan was already evicted, or it
            // planned a colliding request: try to become the leader.
        };
        let _guard = InFlightGuard {
            in_flight: &self.in_flight,
            slot,
            key,
        };
        // A previous leader may have cached the plan between our initial
        // lookup and the leadership acquisition — re-check so a late
        // arrival never replans a cached signature (this is what makes
        // "exactly one miss per stampeded signature" deterministic).
        if let Some(outcome) = self.try_cached(request, key, signature, start) {
            return Ok(outcome);
        }

        // Elastic tier: the request's own plan on the old topology, with
        // its microbatches checked, is replanned onto the new one.
        let elastic = self.elastic.as_ref().and_then(|elastic| {
            let anchor = elastic.plans.get(&key)?;
            (anchor.microbatches == microbatches).then_some((elastic, anchor))
        });
        if let Some((elastic, anchor)) = elastic {
            let replanned = self
                .planner
                .replan_elastic(
                    microbatches,
                    &anchor.plan,
                    &elastic.old_topology,
                    &elastic.config,
                )
                .map(|ElasticOutcome { mut plan, report }| {
                    if report.candidate == ElasticCandidate::Unchanged {
                        plan.stats = served_verbatim(&plan.stats, PlanTier::Elastic);
                    }
                    (plan, Some(report))
                });
            return self.finish(request, replanned, signature, key, None, start);
        }

        // Fuzzy tier: an in-bucket anchor serves the request by delta
        // replanning. Only an anchor the shared compatibility check rejects
        // falls through to a cold plan; a delta replan that fails past the
        // check is a failed request, booked as a miss.
        let fuzzy_key = self.fuzzy_key(request);
        let anchor = fuzzy_key
            .and_then(|fuzzy_key| self.fuzzy.lock().get(fuzzy_key))
            .filter(|anchor| {
                let planned_on = self.planner.topology().fingerprint();
                self.planner
                    .check_anchor(microbatches, &anchor.plan, planned_on)
                    .is_ok()
            });
        if let Some(anchor) = anchor {
            let planned = self
                .planner
                .plan_with(microbatches, Reuse::Fuzzy(&anchor.plan));
            let planned = planned.map(|plan| (plan, None));
            return self.finish(request, planned, signature, key, None, start);
        }
        let planned = self.planner.plan_with(microbatches, Reuse::Cold);
        let planned = planned.map(|plan| (plan, None));
        self.finish(request, planned, signature, key, fuzzy_key, start)
    }

    /// The cache hit path: lookup and LRU touch under a single cache-lock
    /// acquisition; the critical section hands out an `Arc` handle, so the
    /// key check and the plan copy happen outside the lock and concurrent
    /// hits do not serialize on them. The copy ([`serve`]) shares the
    /// cached plan's graph slabs, orders, memory plan, sub-microbatch table
    /// and placement segments; it allocates only the segment priorities,
    /// the modalities and the graph's two per-rank byte vectors.
    fn try_cached(
        &self,
        request: &PlanRequest,
        key: u64,
        signature: CanonicalSignature,
        start: Instant,
    ) -> Option<PlanOutcome> {
        self.cache_lock_acquisitions
            .fetch_add(1, AtomicOrdering::Relaxed);
        let cached = self.cache.lock().get(key)?;
        if cached.microbatches != request.microbatches() {
            // A key collision: the entry is another request's plan.
            return None;
        }
        // The plan is identical to the cached original; only the
        // bookkeeping reflects the (near-zero) cost of serving it.
        let mut plan = serve(&cached.plan, PlanTier::Exact);
        plan.stats.planning_time = start.elapsed();
        let mut stats = self.stats.lock();
        stats.requests += 1;
        stats.exact_hits += 1;
        stats.exact_hit_time += plan.stats.planning_time;
        drop(stats);
        Some(PlanOutcome {
            plan,
            signature,
            tier: PlanTier::Exact,
            elastic: None,
        })
    }

    /// Books a freshly planned request (cold, fuzzy or elastic, by
    /// `plan.tier`) and the cache evictions its insertion caused: the tier
    /// counter, the per-tier latency split and the per-phase totals.
    fn book_planned(&self, plan: &PlannerStats, evicted: u64) {
        let mut stats = self.stats.lock();
        stats.requests += 1;
        stats.evictions += evicted;
        match plan.tier {
            PlanTier::Fuzzy => {
                stats.fuzzy_hits += 1;
                stats.fuzzy_plan_time += plan.planning_time;
            }
            PlanTier::Elastic => {
                stats.elastic_plans += 1;
                stats.elastic_plan_time += plan.planning_time;
            }
            PlanTier::Cold | PlanTier::Exact => {
                stats.cache_misses += 1;
                stats.cold_plan_time += plan.planning_time;
            }
        }
        stats.phases += plan.phases;
    }

    /// Finishes a planned request on any tier but the exact one: a failure
    /// is booked as a miss, keeping
    /// `requests == exact_hits + elastic_plans + fuzzy_hits + cache_misses`
    /// exact. A plan gets its planning time stamped from `start`, is cached
    /// under its exact key with the request's microbatches (so a replanned
    /// shape tiers up to an exact hit) and is booked by `plan.stats.tier`.
    /// A cold plan passes its bucket's `anchor_key` and becomes the
    /// bucket's anchor if it has none; both tables then hold the same
    /// allocation. Fuzzy and elastic plans pass `None`, so every fuzzy plan
    /// stays one step from a cold plan.
    fn finish(
        &self,
        request: &PlanRequest,
        planned: Result<(DipPlan, Option<ElasticReport>), DipError>,
        signature: CanonicalSignature,
        key: u64,
        anchor_key: Option<u64>,
        start: Instant,
    ) -> Result<PlanOutcome, DipError> {
        let (mut plan, elastic) = match planned {
            Ok(planned) => planned,
            Err(err) => {
                let mut stats = self.stats.lock();
                stats.requests += 1;
                stats.cache_misses += 1;
                return Err(err);
            }
        };
        plan.stats.planning_time = start.elapsed();
        let cached = Arc::new(CachedPlan {
            microbatches: request.microbatches().to_vec(),
            plan,
        });
        let evicted = if self.config.cache_capacity > 0 {
            self.cache_lock_acquisitions
                .fetch_add(1, AtomicOrdering::Relaxed);
            self.cache
                .lock()
                .insert(key, Arc::clone(&cached), self.config.cache_capacity)
        } else {
            0
        };
        if let Some(anchor_key) = anchor_key {
            // First cold plan in a bucket wins as the anchor; later cold
            // plans (evictions aside) never replace it, so delta regret is
            // measured against a stable reference.
            let mut fuzzy = self.fuzzy.lock();
            if fuzzy.get(anchor_key).is_none() {
                fuzzy.insert(anchor_key, Arc::clone(&cached), self.config.cache_capacity);
            }
        }
        self.book_planned(&cached.plan.stats, evicted);
        let plan =
            Arc::try_unwrap(cached).map_or_else(|shared| shared.plan.clone(), |own| own.plan);
        Ok(PlanOutcome {
            tier: plan.stats.tier,
            plan,
            signature,
            elastic,
        })
    }

    /// Cumulative number of plan-cache lock acquisitions taken by
    /// [`PlanningSession::plan`] — exactly one per cache hit (lookup and
    /// recency update share a single acquisition; the hit path never takes
    /// a second lock), plus the miss path's failed lookup, post-leadership
    /// re-check and insert.
    pub fn cache_lock_acquisitions(&self) -> u64 {
        self.cache_lock_acquisitions.load(AtomicOrdering::Relaxed)
    }

    /// Plans a slice of independent requests concurrently through a worker
    /// pool, returning one result per request in request order. The workers
    /// share this session's plan cache, so repeated signatures within (or
    /// before) the slice hit the cache as usual.
    ///
    /// [`PlannerConfig::num_threads`] is the session's *total* CPU budget:
    /// each plan already runs `search.workers` ordering-search threads, so
    /// the pool width is `num_threads / search.workers` (at least one) and
    /// total concurrency never multiplies beyond `num_threads`. For a wide
    /// pool, set `search.workers` to 1 and `num_threads` to the core count.
    /// The pool width never changes the per-plan search configuration, and
    /// a cold plan is a pure function of its request, so it comes out as a
    /// sequential [`PlanningSession::plan`] loop would produce it. With the
    /// fuzzy tier enabled, which in-bucket request's cold plan anchors the
    /// bucket (and so which requests are served fuzzy) can still depend on
    /// which plan finishes first.
    ///
    /// A planner panic is confined to its request and reported as
    /// [`DipError::Concurrency`] in that slot instead of tearing down the
    /// whole batch.
    ///
    /// If the offline partitioning phase has not run yet, it is run once
    /// up front against the heaviest microbatch across the whole slice —
    /// so a heterogeneous batch is planned under one deterministic
    /// placement rather than racing per-worker representatives. (Call
    /// [`PlanningSession::offline_partition`] first to choose the
    /// representative yourself.)
    pub fn plan_many(&self, requests: &[PlanRequest]) -> Vec<Result<PlanOutcome, DipError>> {
        let representative = heaviest(requests.iter().flat_map(|r| r.microbatches())).cloned();
        if let Some(representative) = representative {
            // Compute-if-absent under a single lock hold: concurrent
            // plan_many/plan calls on a fresh session pin exactly one
            // placement instead of racing last-write-wins.
            if let Err(err) = self.planner.offline_partition_if_absent(&representative) {
                return requests.iter().map(|_| Err(err.clone())).collect();
            }
        }
        let config = self.planner.config();
        let threads = config.num_threads.max(1) / config.search.workers.max(1);
        parallel_map_indexed(
            requests.len(),
            threads,
            || (),
            |_, i| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.plan(&requests[i])))
                    .unwrap_or_else(|_| {
                        Err(DipError::concurrency(
                            "planner worker panicked while planning a request",
                        ))
                    })
            },
        )
    }

    /// Simulates the deployment of a plan (delegates to the planner).
    ///
    /// # Errors
    ///
    /// Returns [`DipError::Pipeline`] if the plan is inconsistent.
    pub fn simulate(&self, plan: &DipPlan) -> Result<ExecutionOutcome, DipError> {
        self.planner.simulate(plan)
    }

    /// Convenience: plan one request and simulate the resulting plan.
    ///
    /// ```
    /// use dip_core::{PlanRequest, PlannerConfig, PlanningSession};
    /// use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    /// use dip_pipeline::ParallelConfig;
    /// use dip_sim::ClusterTopology;
    ///
    /// let spec = zoo::vlm_s();
    /// // A heterogeneous cluster: 8 H800s plus 8 H20s.
    /// let topology = ClusterTopology::mixed_h800_h20(1, 1);
    /// let session = PlanningSession::new(
    ///     &spec,
    ///     ParallelConfig::new(4, 4, 1),
    ///     &topology,
    ///     PlannerConfig::fast(),
    /// );
    /// let batch = BatchWorkload::new()
    ///     .with(Modality::Text, ModalityWorkload::new(6502, 1))
    ///     .with(Modality::Image, ModalityWorkload::new(1690, 10));
    /// let (outcome, execution) = session.plan_and_simulate(&PlanRequest::new(vec![batch])).unwrap();
    /// assert!(execution.metrics.iteration_time_s > 0.0);
    /// assert!(outcome.plan.graph.critical_rank_time() > 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates [`DipError`] from planning or simulation.
    pub fn plan_and_simulate(
        &self,
        request: &PlanRequest,
    ) -> Result<(PlanOutcome, ExecutionOutcome), DipError> {
        let outcome = self.plan(request)?;
        let execution = self.simulate(&outcome.plan)?;
        Ok((outcome, execution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::SearchWork;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_pipeline::{dual_queue, DualQueueConfig};
    use std::time::Duration;

    fn vlm_batch(images: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    fn request(counts: &[u64]) -> PlanRequest {
        PlanRequest::new(counts.iter().map(|&i| vlm_batch(i)).collect())
    }

    fn session<'a>(
        spec: &'a LmmSpec,
        cluster: &ClusterTopology,
        config: SessionConfig,
    ) -> PlanningSession<'a> {
        PlanningSession::with_config(
            spec,
            ParallelConfig::new(4, 4, 1),
            cluster,
            PlannerConfig::fast(),
            config,
        )
    }

    /// A stand-in plan for LRU unit tests (never simulated).
    fn dummy_plan(spec: &LmmSpec, cluster: &ClusterTopology) -> Arc<CachedPlan> {
        let planner = DipPlanner::on_topology(
            spec,
            ParallelConfig::new(4, 4, 1),
            cluster.clone(),
            PlannerConfig::no_opt(),
        );
        let microbatches = vec![vlm_batch(4)];
        let plan = planner.plan_iteration(&microbatches).unwrap();
        Arc::new(CachedPlan { microbatches, plan })
    }

    #[test]
    fn sessions_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanningSession<'static>>();
    }

    #[test]
    fn lru_cache_evicts_the_least_recently_used_entry() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let plan = dummy_plan(&spec, &cluster);
        let mut lru = LruCache::default();

        // Fill to capacity 3.
        for key in [1u64, 2, 3] {
            assert_eq!(lru.insert(key, Arc::clone(&plan), 3), 0);
        }
        assert_eq!(lru.len(), 3);

        // Use the LRU entry: it becomes most recent, nothing is evicted.
        assert!(lru.get(1).is_some());
        assert_eq!(lru.len(), 3);

        // Inserting a fourth key evicts exactly the least recently used.
        assert_eq!(lru.insert(4, Arc::clone(&plan), 3), 1);
        assert_eq!(lru.len(), 3);
        assert!(lru.peek(2).is_none(), "2 was least recently used");
        assert!(lru.peek(1).is_some() && lru.peek(3).is_some() && lru.peek(4).is_some());

        // Re-inserting a cached key neither grows the cache nor evicts, and
        // makes it most recent: the next new key evicts 1, not 3.
        assert_eq!(lru.insert(3, Arc::clone(&plan), 3), 0);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.insert(5, Arc::clone(&plan), 3), 1);
        assert!(lru.peek(1).is_none() && lru.peek(3).is_some());

        // Looking up an absent key is a miss that changes nothing.
        assert!(lru.get(99).is_none());
        assert_eq!(lru.len(), 3);

        lru.clear();
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn lru_cache_matches_a_reference_recency_list() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let plan = dummy_plan(&spec, &cluster);
        const KEYS: u64 = 8;
        let mut rng = StdRng::seed_from_u64(0x1a2b);
        for capacity in 1..=4usize {
            let mut lru = LruCache::default();
            // The reference: keys in recency order, least recent first.
            let mut model: Vec<u64> = Vec::new();
            let (mut evictions, mut model_evictions) = (0u64, 0u64);
            for step in 0..500 {
                let key = rng.gen_range(0..KEYS);
                let position = model.iter().position(|&k| k == key);
                if rng.gen_bool(0.5) {
                    let hit = lru.get(key).is_some();
                    assert_eq!(hit, position.is_some(), "capacity {capacity}, step {step}");
                    if let Some(position) = position {
                        model.remove(position);
                        model.push(key);
                    }
                } else {
                    evictions += lru.insert(key, Arc::clone(&plan), capacity);
                    if let Some(position) = position {
                        model.remove(position);
                    } else {
                        while model.len() >= capacity {
                            model.remove(0);
                            model_evictions += 1;
                        }
                    }
                    model.push(key);
                }
                assert_eq!(
                    evictions, model_evictions,
                    "capacity {capacity}, step {step}"
                );
                assert_eq!(lru.len(), model.len());
                for k in 0..KEYS {
                    assert_eq!(
                        lru.peek(k).is_some(),
                        model.contains(&k),
                        "key {k}, capacity {capacity}, step {step}"
                    );
                }
            }
            assert!(evictions > 0, "capacity {capacity} never evicted");
        }
    }

    #[test]
    fn repeated_reinsertion_does_not_skew_evictions() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let plan = dummy_plan(&spec, &cluster);
        let mut lru = LruCache::default();
        let mut evictions = 0u64;
        // Hammer two keys into a capacity-2 cache: no eviction should ever
        // happen, and the structure must stay exactly two entries.
        for round in 0..10u64 {
            evictions += lru.insert(round % 2, Arc::clone(&plan), 2);
        }
        assert_eq!(evictions, 0);
        assert_eq!(lru.len(), 2);
        // A third key evicts exactly one entry.
        evictions += lru.insert(7, Arc::clone(&plan), 2);
        assert_eq!(evictions, 1);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn request_signatures_track_workload_identity() {
        let a = request(&[10, 20]);
        let b = request(&[10, 20]);
        let c = request(&[20, 10]);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature(), "microbatch order matters");
        assert_ne!(
            request(&[10]).signature(),
            request(&[10, 10]).signature(),
            "length matters"
        );
        assert_eq!(format!("{}", a.signature()).len(), 16);
    }

    #[test]
    fn cache_hit_returns_an_identical_plan() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[10, 40, 2, 30]);

        let first = session.plan(&req).unwrap();
        let second = session.plan(&req).unwrap();
        assert_ne!(first.tier, PlanTier::Exact);
        assert_eq!(second.tier, PlanTier::Exact);
        assert_eq!(second.plan.stats.tier, PlanTier::Exact);
        assert_eq!(first.signature, second.signature);
        assert_eq!(first.plan.orders, second.plan.orders);
        assert_eq!(
            first.plan.segment_priorities,
            second.plan.segment_priorities
        );
        assert_eq!(first.plan.memory_plan, second.plan.memory_plan);
        assert_eq!(first.plan.sub_microbatches, second.plan.sub_microbatches);

        // Identical plans simulate to identical iteration times.
        let t1 = session
            .simulate(&first.plan)
            .unwrap()
            .metrics
            .iteration_time_s;
        let t2 = session
            .simulate(&second.plan)
            .unwrap()
            .metrics
            .iteration_time_s;
        assert!((t1 - t2).abs() < 1e-12);

        let stats = session.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_hits_report_no_phase_time_but_their_own_lookup() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[10, 40, 2, 30]);

        let cold = session.plan(&req).unwrap().plan.stats;
        assert!(cold.search_evaluations > 1);
        assert!(cold.search_work.interleave_passes > 0);

        let hit = session.plan(&req).unwrap().plan.stats;
        assert_eq!(hit.tier, PlanTier::Exact);
        assert_eq!(
            hit.phases,
            PhaseTimes::default(),
            "an exact hit ran no phase"
        );
        // Nor did it search: the cold plan's search is not the hit's.
        assert_eq!(hit.search_evaluations, 0);
        assert_eq!(hit.search_work, SearchWork::default());
    }

    #[test]
    fn session_totals_are_the_sums_of_the_served_plans() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::fuzzy());
        let base = request(&[8, 32]);
        let neighbour = PlanRequest::new(vec![vlm_batch_jittered(8, 7), vlm_batch_jittered(32, 3)]);
        let other = request(&[40, 4]);
        let trace = [&base, &neighbour, &base, &other, &neighbour, &other];

        let mut tiers = Vec::new();
        let mut phases = PhaseTimes::default();
        let mut planning_time = Duration::ZERO;
        for req in trace {
            let outcome = session.plan(req).unwrap();
            tiers.push(outcome.tier);
            phases += outcome.plan.stats.phases;
            planning_time += outcome.plan.stats.planning_time;
        }
        use PlanTier::{Cold, Exact, Fuzzy};
        assert_eq!(tiers, [Cold, Fuzzy, Exact, Cold, Exact, Exact]);

        let stats = session.stats();
        assert_eq!(stats.phases, phases);
        assert!(stats.phases.search > Duration::ZERO);
        assert_eq!(stats.planning_time(), planning_time);
    }

    #[test]
    fn repeated_shapes_plan_at_least_twice_as_fast_with_the_cache() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        // A repeated-shape trace: two distinct shapes, each seen four times.
        let trace: Vec<PlanRequest> = (0..8)
            .map(|i| request(if i % 2 == 0 { &[8, 32] } else { &[40, 4] }))
            .collect();

        // Planning work is counted in search evaluations (the planner's
        // virtual time), which an exact hit skips entirely; wall time is
        // printed for reference only.
        let run = |config: SessionConfig| {
            let s = session(&spec, &cluster, config);
            let mut evaluations = 0u64;
            let mut wall = Duration::ZERO;
            for req in &trace {
                let outcome = s.plan(req).unwrap();
                evaluations += outcome.plan.stats.search_evaluations;
                wall += outcome.plan.stats.planning_time;
            }
            (evaluations, wall, s.stats())
        };

        let (cold_evaluations, cold_wall, cold_stats) = run(SessionConfig::cold());
        let (cached_evaluations, cached_wall, cached_stats) = run(SessionConfig::default());
        eprintln!("planning wall: cached {cached_wall:?} vs cold {cold_wall:?}");

        assert_eq!(cold_stats.exact_hits, 0);
        assert_eq!(
            cached_stats.exact_hits, 6,
            "6 of 8 iterations repeat a shape"
        );
        // 8 cold plans against 2 cold plans plus 6 hits: exactly 4× the work.
        assert!(cached_evaluations > 0);
        assert_eq!(cold_evaluations, 4 * cached_evaluations);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let config = SessionConfig {
            cache_capacity: 1,
            ..SessionConfig::default()
        };
        let session = session(&spec, &cluster, config);
        let a = request(&[8, 32]);
        let b = request(&[40, 4]);

        assert_ne!(session.plan(&a).unwrap().tier, PlanTier::Exact);
        assert_eq!(session.plan(&a).unwrap().tier, PlanTier::Exact);
        assert_ne!(
            session.plan(&b).unwrap().tier,
            PlanTier::Exact,
            "b evicts a"
        );
        assert_eq!(session.cached_plans(), 1);
        assert_ne!(
            session.plan(&a).unwrap().tier,
            PlanTier::Exact,
            "a was evicted"
        );
        assert_eq!(session.stats().evictions, 2);
    }

    #[test]
    fn clear_drops_every_cached_plan() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::default());

        session.plan(&request(&[8, 32])).unwrap();
        session.plan(&request(&[40, 4])).unwrap();
        assert_eq!(session.cached_plans(), 2);

        session.clear();
        assert_eq!(session.cached_plans(), 0);
        let third = session.plan(&request(&[40, 4])).unwrap();
        assert_ne!(third.tier, PlanTier::Exact);
    }

    #[test]
    fn re_partitioning_invalidates_the_cache() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[10, 40]);
        assert_ne!(session.plan(&req).unwrap().tier, PlanTier::Exact);
        assert_eq!(session.plan(&req).unwrap().tier, PlanTier::Exact);

        // Re-running the offline phase changes the placement; plans cached
        // against the old placement must not be served.
        session.offline_partition(&vlm_batch(48)).unwrap();
        assert_eq!(session.cached_plans(), 0);
        assert_ne!(session.plan(&req).unwrap().tier, PlanTier::Exact);
    }

    #[test]
    fn empty_requests_are_rejected() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let err = session.plan(&PlanRequest::default()).unwrap_err();
        assert!(matches!(err, DipError::InvalidRequest(_)));
        assert!(err.to_string().contains("zero microbatches"));
    }

    #[test]
    fn zero_token_microbatches_are_rejected_by_index() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::fuzzy());
        let no_work = BatchWorkload::new();
        let zero_text = BatchWorkload::new().with(Modality::Text, ModalityWorkload::new(0, 1));
        for (index, microbatches) in [
            (1, vec![vlm_batch(8), no_work]),
            (0, vec![zero_text, vlm_batch(8)]),
        ] {
            let request = PlanRequest::new(microbatches);
            let message = format!("microbatch {index} has zero tokens");
            let err = session.plan(&request).unwrap_err();
            assert!(matches!(err, DipError::InvalidRequest(_)));
            assert!(err.to_string().contains(&message), "{err}");
            let err = session
                .planner()
                .plan_with(request.microbatches(), Reuse::Cold)
                .unwrap_err();
            assert!(err.to_string().contains(&message), "{err}");
        }
        // Rejected before any tier runs: nothing was planned or booked.
        assert_eq!(session.stats().requests, 0);
        assert_eq!(session.cached_plans(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::cold());
        let req = request(&[8, 32]);
        assert_ne!(session.plan(&req).unwrap().tier, PlanTier::Exact);
        assert_ne!(session.plan(&req).unwrap().tier, PlanTier::Exact);
        assert_eq!(session.cached_plans(), 0);
    }

    #[test]
    fn single_flight_plans_a_stampeded_signature_once() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        // Pin the placement so the workers don't race the offline phase.
        session
            .planner()
            .offline_partition_if_absent(&vlm_batch(40))
            .unwrap();
        let req = request(&[8, 32]);
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
                    barrier.wait();
                    let outcome = session.plan(&req).unwrap();
                    assert_eq!(outcome.signature, req.signature());
                });
            }
        })
        .unwrap();
        let stats = session.stats();
        assert_eq!(stats.requests, threads as u64);
        assert_eq!(
            stats.cache_misses, 1,
            "single-flight: exactly one thread runs the planner"
        );
        assert_eq!(stats.exact_hits, threads as u64 - 1);
        assert_eq!(session.cached_plans(), 1);
    }

    /// An in-bucket neighbour of `vlm_batch(images)`: the text tokens are
    /// jittered by `dt` (well under the default 512-token bucket), so the
    /// exact signature differs but the canonical signature matches.
    fn vlm_batch_jittered(images: u64, dt: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169 + dt, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    #[test]
    fn fuzzy_hit_adopts_the_anchor_in_one_pass_without_memory_ilp() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::fuzzy());
        let base = request(&[8, 32]);
        let neighbour = PlanRequest::new(vec![vlm_batch_jittered(8, 7), vlm_batch_jittered(32, 3)]);
        assert_ne!(base.signature(), neighbour.signature());
        assert_eq!(session.fuzzy_key(&base), session.fuzzy_key(&neighbour));

        let cold = session.plan(&base).unwrap();
        assert_eq!(cold.tier, PlanTier::Cold);
        assert_eq!(
            session.fuzzy_anchors(),
            1,
            "the cold plan anchors its bucket"
        );

        let fuzzy = session.plan(&neighbour).unwrap();
        assert_eq!(fuzzy.tier, PlanTier::Fuzzy);
        assert_eq!(fuzzy.plan.stats.tier, PlanTier::Fuzzy);
        // The fuzzy tier adopts the anchor's ordering, memory plan and
        // splits verbatim and never runs the memory ILP.
        assert_eq!(fuzzy.plan.segment_priorities, cold.plan.segment_priorities);
        assert_eq!(fuzzy.plan.memory_plan, cold.plan.memory_plan);
        assert_eq!(fuzzy.plan.sub_microbatches, cold.plan.sub_microbatches);
        assert_eq!(fuzzy.plan.stats.memopt_constraint_entries, 0);
        // One interleave pass over the repriced graph, and nothing else.
        let graph = &fuzzy.plan.graph;
        assert_eq!(fuzzy.plan.stats.search_evaluations, 1);
        assert_eq!(fuzzy.plan.stats.search_work.interleave_passes, 1);
        assert_eq!(fuzzy.plan.stats.search_work.live_steps, graph.len() as u64);
        let queue = DualQueueConfig {
            memory_limit: Some(session.planner().activation_budget(&graph.static_memory)),
            segment_priorities: cold.plan.segment_priorities.clone(),
            ..DualQueueConfig::default()
        };
        let (orders, time_s) = dual_queue::schedule(graph, &queue);
        assert_eq!(fuzzy.plan.orders, orders);
        assert_eq!(fuzzy.plan.stats.planned_time_s.to_bits(), time_s.to_bits());
        // The plan is priced against the *real* shape, not the anchor's:
        // the graph timings differ.
        assert!(session.simulate(&fuzzy.plan).is_ok());

        let stats = session.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_misses, 1, "a fuzzy hit is not a miss");
        assert_eq!(stats.fuzzy_hits, 1);
        assert_eq!(stats.exact_hits, 0);
        assert_eq!(stats.delta_replans, 0, "fuzzy hits run no search");
        assert!(stats.fuzzy_plan_time > Duration::ZERO);
        assert_eq!(
            stats.requests,
            stats.exact_hits + stats.fuzzy_hits + stats.cache_misses
        );

        // Tier-up: the fuzzy plan was cached under its exact key, so the
        // identical request is now an exact hit.
        let repeat = session.plan(&neighbour).unwrap();
        assert_eq!(repeat.tier, PlanTier::Exact);
        assert_eq!(repeat.plan.orders, fuzzy.plan.orders);
        // The bucket's anchor is still the original cold plan.
        assert_eq!(session.fuzzy_anchors(), 1);
    }

    #[test]
    fn incompatible_anchor_falls_back_to_a_cold_plan() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::fuzzy());
        let base = request(&[8, 32]);
        let neighbour = PlanRequest::new(vec![vlm_batch_jittered(8, 7), vlm_batch_jittered(32, 3)]);
        session.plan(&base).unwrap();

        // Corrupt the bucket's anchor so the shared compatibility check
        // rejects it: one priority short of its placement's segments.
        let fuzzy_key = session.fuzzy_key(&neighbour).unwrap();
        let cached = session.fuzzy.lock().get(fuzzy_key).unwrap();
        let mut anchor = cached.plan.clone();
        anchor.segment_priorities.pop();
        let err = session
            .planner()
            .plan_iteration_delta(neighbour.microbatches(), &anchor)
            .unwrap_err();
        assert!(matches!(err, DipError::InvalidRequest(_)));
        assert!(err.to_string().contains("segment count"), "{err}");
        let microbatches = cached.microbatches.clone();
        let anchor = Arc::new(CachedPlan {
            microbatches,
            plan: anchor,
        });
        session.fuzzy.lock().insert(fuzzy_key, anchor, 64);

        // The rejected anchor is skipped: the request is planned cold and
        // booked as a miss, not a fuzzy hit.
        let outcome = session.plan(&neighbour).unwrap();
        assert_eq!(outcome.tier, PlanTier::Cold);
        let stats = session.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.fuzzy_hits, 0);
    }

    #[test]
    fn single_flight_plans_each_stampeded_key_once() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        // Pin the placement so the workers don't race the offline phase.
        session
            .planner()
            .offline_partition_if_absent(&vlm_batch(40))
            .unwrap();
        // Two distinct cold keys, four threads stampeding each: the
        // in-flight table must plan each key exactly once, and a stampede
        // on one key must not block the other's leader.
        let keys = [request(&[8, 32]), request(&[40, 4])];
        const THREADS_PER_KEY: usize = 4;
        let barrier = std::sync::Barrier::new(keys.len() * THREADS_PER_KEY);
        crossbeam::scope(|scope| {
            for req in &keys {
                for _ in 0..THREADS_PER_KEY {
                    let barrier = &barrier;
                    let session = &session;
                    scope.spawn(move |_| {
                        barrier.wait();
                        let outcome = session.plan(req).unwrap();
                        assert_eq!(outcome.signature, req.signature());
                    });
                }
            }
        })
        .unwrap();
        let stats = session.stats();
        assert_eq!(stats.requests, (keys.len() * THREADS_PER_KEY) as u64);
        assert_eq!(
            stats.cache_misses,
            keys.len() as u64,
            "exactly-once planning per stampeded key"
        );
        assert_eq!(
            stats.exact_hits,
            (keys.len() * (THREADS_PER_KEY - 1)) as u64
        );
        assert_eq!(session.cached_plans(), keys.len());
    }

    #[test]
    fn cache_hit_takes_exactly_one_cache_lock_acquisition() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[8, 32]);
        session.plan(&req).unwrap();
        let before = session.cache_lock_acquisitions();
        let outcome = session.plan(&req).unwrap();
        assert_eq!(outcome.tier, PlanTier::Exact);
        assert_eq!(
            session.cache_lock_acquisitions() - before,
            1,
            "the hit path must not take a second lock for the LRU touch"
        );
    }

    #[test]
    fn plan_many_matches_sequential_planning() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut parallel = session(&spec, &cluster, SessionConfig::default());
        parallel.offline_partition(&vlm_batch(40)).unwrap();
        let requests: Vec<PlanRequest> = [&[8u64, 32][..], &[40, 4], &[10, 20], &[8, 32]]
            .iter()
            .map(|counts| request(counts))
            .collect();

        let outcomes = parallel.plan_many(&requests);
        assert_eq!(outcomes.len(), requests.len());
        for (i, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("plan_many result");
            assert_eq!(outcome.signature, requests[i].signature());
            assert_eq!(outcome.plan.orders.num_stages(), outcome.plan.graph.len());
        }
        // All four requests were served; the duplicate signature either hit
        // the cache or raced its twin, but is cached afterwards either way.
        let stats = parallel.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(
            stats.requests,
            stats.exact_hits + stats.fuzzy_hits + stats.cache_misses
        );
        assert_eq!(parallel.plan(&requests[0]).unwrap().tier, PlanTier::Exact);
    }

    #[test]
    fn plan_many_pins_one_placement_for_heterogeneous_first_batches() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        // Fresh session: no offline partition yet.
        let session = session(&spec, &cluster, SessionConfig::default());
        assert!(session.planner().partition_output().is_none());
        // Very different shapes in one slice: the partition must be pinned
        // once (from the heaviest microbatch of the slice), not raced
        // per-worker.
        let requests = vec![request(&[0, 0]), request(&[48, 48])];
        let outcomes = session.plan_many(&requests);
        assert!(outcomes.iter().all(Result::is_ok));
        let placement = session
            .planner()
            .partition_output()
            .expect("plan_many pinned the placement");
        // The pinned representative is the heaviest microbatch across the
        // whole slice, deterministically.
        let expected = session
            .planner()
            .offline_partition(&vlm_batch(48))
            .unwrap()
            .placement;
        assert_eq!(placement.placement, expected);
    }

    #[test]
    fn plan_many_reports_per_request_errors() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let requests = vec![request(&[8, 32]), PlanRequest::default()];
        let outcomes = session.plan_many(&requests);
        assert!(outcomes[0].is_ok());
        assert!(matches!(outcomes[1], Err(DipError::InvalidRequest(_))));
    }

    /// Asserts two plans are the same plan, bit for bit.
    fn assert_same_plan(a: &DipPlan, b: &DipPlan, what: &str) {
        assert_eq!(a.graph, b.graph, "{what}: stage graphs differ");
        assert_eq!(a.orders, b.orders, "{what}: rank orders differ");
        assert_eq!(
            a.segment_priorities, b.segment_priorities,
            "{what}: segment priorities differ"
        );
        assert_eq!(a.memory_plan, b.memory_plan, "{what}: memory plans differ");
        assert_eq!(
            a.sub_microbatches, b.sub_microbatches,
            "{what}: splits differ"
        );
        assert_eq!(a.placement, b.placement, "{what}: placements differ");
        assert_eq!(a.topology_fingerprint, b.topology_fingerprint, "{what}");
        assert_eq!(
            a.stats.planned_time_s.to_bits(),
            b.stats.planned_time_s.to_bits(),
            "{what}: planned times differ"
        );
    }

    fn assert_tiers_partition_requests(stats: &SessionStats) {
        assert_eq!(
            stats.requests,
            stats.exact_hits + stats.elastic_plans + stats.fuzzy_hits + stats.cache_misses
        );
    }

    #[test]
    fn a_key_collision_is_planned_not_served() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::default());
        let a = request(&[8, 32]);
        let b = request(&[40, 4]);
        let planned_a = session.plan(&a).unwrap();

        // File a's plan under b's key, as a 64-bit hash collision would.
        let entry = session.cache.lock().get(a.signature().as_u64()).unwrap();
        session
            .cache
            .lock()
            .insert(b.signature().as_u64(), Arc::clone(&entry), 64);
        let served = session.plan(&b).unwrap();
        assert_eq!(served.tier, PlanTier::Cold, "a colliding entry is a miss");
        assert_ne!(served.plan.graph, planned_a.plan.graph);
        // b's own plan replaced the colliding entry.
        assert_eq!(session.plan(&b).unwrap().tier, PlanTier::Exact);

        // The elastic anchors check their microbatches the same way: b's
        // anchor replaced by a's plan is a miss, and b plans cold.
        session.retarget(
            ClusterTopology::mixed_h800_h20(1, 1),
            ElasticConfig::default(),
        );
        assert_eq!(session.elastic_anchors(), 2);
        let anchors = &mut session.elastic.as_mut().unwrap().plans;
        anchors.insert(b.signature().as_u64(), entry);
        assert_eq!(session.plan(&b).unwrap().tier, PlanTier::Cold);
        assert_eq!(session.plan(&a).unwrap().tier, PlanTier::Elastic);
        let stats = session.stats();
        assert_eq!((stats.cache_misses, stats.elastic_plans), (3, 1));
        assert_tiers_partition_requests(&stats);
    }

    #[test]
    fn retargeted_plans_equal_replan_elastic_bit_for_bit() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let old_topology = ClusterTopology::mixed_h800_h20(1, 1);
        let new_topology = ClusterTopology::mixed_h800_h20(1, 0);
        let config = PlannerConfig::fast();
        let elastic = ElasticConfig::default();
        let req = request(&[12, 40]);

        // The planner route: a cold plan on the old topology, replanned by
        // a planner on the new one.
        let old_planner =
            DipPlanner::on_topology(&spec, parallel, old_topology.clone(), config.clone());
        let old_plan = old_planner.plan_iteration(req.microbatches()).unwrap();
        let direct = DipPlanner::on_topology(&spec, parallel, new_topology.clone(), config.clone())
            .replan_elastic(req.microbatches(), &old_plan, &old_topology, &elastic)
            .unwrap();

        // The session route: plan, retarget, plan again, and repeat.
        let run = || {
            let mut session = PlanningSession::with_config(
                &spec,
                parallel,
                &old_topology,
                config.clone(),
                SessionConfig::fuzzy(),
            );
            let cold = session.plan(&req).unwrap();
            session.retarget(new_topology.clone(), elastic);
            assert_eq!(session.elastic_anchors(), 1);
            assert_eq!((session.cached_plans(), session.fuzzy_anchors()), (0, 0));
            let replanned = session.plan(&req).unwrap();
            let repeat = session.plan(&req).unwrap();
            (session.stats(), [cold, replanned, repeat])
        };
        let (stats, [cold, replanned, repeat]) = run();
        assert_eq!(cold.tier, PlanTier::Cold);
        assert_same_plan(&cold.plan, &old_plan, "the anchor");
        assert_eq!(replanned.tier, PlanTier::Elastic);
        assert_eq!(replanned.plan.stats.tier, PlanTier::Elastic);
        assert_same_plan(&replanned.plan, &direct.plan, "retarget + plan");
        assert_eq!(
            replanned.plan.stats.search_evaluations,
            direct.plan.stats.search_evaluations
        );
        assert_eq!(replanned.elastic.as_ref(), Some(&direct.report));
        // A repeat is an exact hit on the elastic plan.
        assert_eq!(repeat.tier, PlanTier::Exact);
        assert!(repeat.elastic.is_none());
        assert_same_plan(&repeat.plan, &replanned.plan, "the repeat");

        assert_eq!(stats.requests, 3);
        assert_eq!(
            (
                stats.exact_hits,
                stats.elastic_plans,
                stats.fuzzy_hits,
                stats.cache_misses
            ),
            (1, 1, 0, 1)
        );
        assert!(stats.elastic_plan_time > Duration::ZERO);
        assert_tiers_partition_requests(&stats);

        // The same call sequence on a second session yields the same plans.
        let (again, [cold_again, replanned_again, _]) = run();
        assert_same_plan(&cold_again.plan, &cold.plan, "second session, cold");
        assert_same_plan(
            &replanned_again.plan,
            &replanned.plan,
            "second session, elastic",
        );
        assert_eq!(replanned_again.elastic, replanned.elastic);
        assert_eq!(again.elastic_plans, stats.elastic_plans);
    }

    #[test]
    fn retarget_builds_the_planner_on_topology_builds() {
        use dip_sim::{CalibrationArtifact, CalibrationRegistry, CostModel};

        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let old_topology = ClusterTopology::mixed_h800_h20(1, 1);
        let new_topology = ClusterTopology::mixed_h800_h20(2, 0);
        // An exact artifact for the old fleet and a different fleet-wide
        // default, so the two topologies resolve to different settings.
        let mut on_old = CalibrationArtifact::builtin_for(&old_topology);
        on_old.eval_cost = CostModel::new(80e-6, 2e-6);
        let mut fleet = CalibrationArtifact::builtin_defaults();
        fleet.link_latency_s = 20e-6;
        let config =
            PlannerConfig::fast().with_calibration(CalibrationRegistry::new(vec![on_old, fleet]));

        let mut session = PlanningSession::with_config(
            &spec,
            parallel,
            &old_topology,
            config.clone(),
            SessionConfig::default(),
        );
        let before = session.planner().config().clone();
        session.retarget(new_topology.clone(), ElasticConfig::default());
        let direct = DipPlanner::on_topology(&spec, parallel, new_topology, config);
        assert_eq!(session.planner().config(), direct.config());
        assert_eq!(session.planner().topology(), direct.topology());
        assert_eq!(
            session.planner().calibration_source(),
            direct.calibration_source()
        );
        assert_ne!(
            session.planner().config(),
            &before,
            "the calibration resolved again on the new topology"
        );
    }

    #[test]
    fn without_a_cache_a_retarget_leaves_no_anchors() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::cold());
        let req = request(&[8, 32]);
        session.plan(&req).unwrap();
        session.retarget(
            ClusterTopology::mixed_h800_h20(1, 1),
            ElasticConfig::default(),
        );
        assert_eq!(session.elastic_anchors(), 0);
        assert_eq!(session.plan(&req).unwrap().tier, PlanTier::Cold);
        assert_eq!(session.stats().cache_misses, 2);
    }

    #[test]
    fn a_second_retarget_anchors_on_the_topology_it_leaves() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::default());
        let (a, b) = (request(&[8, 32]), request(&[40, 4]));
        session.plan(&a).unwrap();
        session.plan(&b).unwrap();
        let middle = ClusterTopology::mixed_h800_h20(1, 1);
        session.retarget(middle.clone(), ElasticConfig::default());
        assert_eq!(session.elastic_anchors(), 2);
        // Only a is planned on the middle topology, so only a is anchored
        // for the next change; b's anchor from the first topology is gone.
        let on_middle = session.plan(&a).unwrap();
        assert_eq!(on_middle.tier, PlanTier::Elastic);
        session.retarget(
            ClusterTopology::mixed_h800_h20(2, 0),
            ElasticConfig::default(),
        );
        assert_eq!(session.elastic_anchors(), 1);
        let next = session.plan(&a).unwrap();
        assert_eq!(next.tier, PlanTier::Elastic);
        assert_eq!(
            next.elastic.unwrap().delta,
            middle.delta_to(session.planner().topology(), 4),
            "the anchor is the plan on the middle topology"
        );
        assert_eq!(session.plan(&b).unwrap().tier, PlanTier::Cold);
    }

    #[test]
    fn retargeting_onto_the_same_topology_serves_the_old_plan() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[8, 32]);
        let cold = session.plan(&req).unwrap();
        session.retarget(cluster.clone(), ElasticConfig::default());
        let same = session.plan(&req).unwrap();
        assert_eq!(same.tier, PlanTier::Elastic);
        assert_eq!(same.plan.stats.tier, PlanTier::Elastic);
        let report = same.elastic.unwrap();
        assert_eq!(report.candidate, ElasticCandidate::Unchanged);
        assert_eq!(report.migration.bytes_moved, 0);
        assert_same_plan(&same.plan, &cold.plan, "unchanged topology");
        // Nothing was searched for this request.
        assert_eq!(same.plan.stats.search_evaluations, 0);
        assert_eq!(same.plan.stats.phases, PhaseTimes::default());
    }
}
