//! A served plan shares the cached plan's storage instead of copying it.
//!
//! Exact hits, fuzzy-served and elastic-served plans hand out clones of a
//! cached [`DipPlan`], and a clone shares the stage graph's slabs, the rank
//! orders, the memory plan, the sub-microbatch table and the placement's
//! segments with the original. A counting global allocator pins what one
//! exact hit allocates: only the plan's small plain vectors.

use dip_bench::{vlm_batch, vlm_batch_jittered};
use dip_core::{
    BucketingConfig, DipPlan, ElasticCandidate, ElasticConfig, PlanRequest, PlanTier,
    PlannerConfig, PlanningSession, SessionConfig,
};
use dip_models::{zoo, Modality};
use dip_pipeline::ParallelConfig;
use dip_sim::ClusterTopology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// The system allocator, counting the allocations (and reallocations) and
/// their bytes on threads that turned counting on.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = COUNTED.try_with(|c| {
                let (allocations, total) = c.get();
                c.set((allocations + 1, total + bytes as u64));
            });
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; `note` only reads and writes
// const-initialised `Cell` thread locals, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result with the allocations and bytes this
/// thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNTED.with(|c| c.set((0, 0)));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let (allocations, bytes) = COUNTED.with(Cell::get);
    (out, allocations, bytes)
}

fn parallel() -> ParallelConfig {
    ParallelConfig::new(4, 4, 1)
}

fn planner_config() -> PlannerConfig {
    let mut config = PlannerConfig::fast().with_num_threads(1);
    config.search.time_budget = Duration::from_millis(40);
    config.search.workers = 1;
    config
}

fn request(images: &[u64]) -> PlanRequest {
    PlanRequest::new(images.iter().map(|&i| vlm_batch(i)).collect())
}

/// True when `a` and `b` share every copy-on-write part: the graph's
/// slabs, the orders, the memory plan, the sub-microbatch table and the
/// placement's segments.
fn shares_every_part(a: &DipPlan, b: &DipPlan) -> bool {
    a.graph.shares_storage_with(&b.graph)
        && a.orders.shares_storage_with(&b.orders)
        && a.memory_plan.shares_storage_with(&b.memory_plan)
        && a.sub_microbatches.shares_storage_with(&b.sub_microbatches)
        && a.placement.shares_storage_with(&b.placement)
}

#[test]
fn exact_hits_share_every_part_with_the_cached_plan() {
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let session = PlanningSession::new(&spec, parallel(), &cluster, planner_config());
    let request = request(&[12, 30]);

    let cold = session.plan(&request).unwrap();
    assert_eq!(cold.tier, PlanTier::Cold);
    let first = session.plan(&request).unwrap();
    let second = session.plan(&request).unwrap();
    for hit in [&first, &second] {
        assert_eq!(hit.tier, PlanTier::Exact);
        assert!(shares_every_part(&hit.plan, &cold.plan));
        assert_eq!(hit.plan.orders, cold.plan.orders);
        assert_eq!(hit.plan.stats.search_evaluations, 0);
    }
    assert!(shares_every_part(&first.plan, &second.plan));
}

#[test]
fn fuzzy_plans_share_the_anchor_parts_they_adopt_and_their_cache_entry() {
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let session = PlanningSession::with_config(
        &spec,
        parallel(),
        &cluster,
        planner_config(),
        SessionConfig::fuzzy(),
    );
    let bucketing = BucketingConfig::default();
    let request = |jitter| {
        PlanRequest::new(vec![
            vlm_batch_jittered(8, jitter, &bucketing),
            vlm_batch_jittered(24, jitter, &bucketing),
        ])
    };

    let anchor = session.plan(&request(0)).unwrap();
    assert_eq!(anchor.tier, PlanTier::Cold);
    let fuzzy = session.plan(&request(3)).unwrap();
    assert_eq!(fuzzy.tier, PlanTier::Fuzzy);
    // Adopted from the anchor, so shared with it.
    assert!(fuzzy
        .plan
        .placement
        .shares_storage_with(&anchor.plan.placement));
    assert!(fuzzy
        .plan
        .sub_microbatches
        .shares_storage_with(&anchor.plan.sub_microbatches));
    assert!(fuzzy
        .plan
        .memory_plan
        .shares_storage_with(&anchor.plan.memory_plan));
    // Built for this request: its own graph and orders.
    assert!(!fuzzy.plan.graph.shares_storage_with(&anchor.plan.graph));
    assert!(!fuzzy.plan.orders.shares_storage_with(&anchor.plan.orders));

    // The served fuzzy plan is a clone of its cache entry, which an exact
    // hit on the same request hands out again.
    let hit = session.plan(&request(3)).unwrap();
    assert_eq!(hit.tier, PlanTier::Exact);
    assert!(shares_every_part(&hit.plan, &fuzzy.plan));
}

#[test]
fn elastic_plans_share_their_anchor_and_their_cache_entry() {
    let spec = zoo::vlm_s();
    let old = ClusterTopology::mixed_h800_h20(1, 1);
    let mut session = PlanningSession::new(&spec, parallel(), &old, planner_config());
    let request = request(&[6, 40]);
    let running = session.plan(&request).unwrap().plan;

    // Onto the same topology: the anchor itself is served.
    session.retarget(old, ElasticConfig::default());
    let unchanged = session.plan(&request).unwrap();
    assert_eq!(unchanged.tier, PlanTier::Elastic);
    assert_eq!(
        unchanged.elastic.as_ref().unwrap().candidate,
        ElasticCandidate::Unchanged
    );
    assert!(shares_every_part(&unchanged.plan, &running));

    // Onto a smaller cluster: the splits and memory plan are adopted, the
    // rest is planned anew, and an exact hit serves the cached replan.
    session.retarget(
        ClusterTopology::mixed_h800_h20(1, 0),
        ElasticConfig::default(),
    );
    let replanned = session.plan(&request).unwrap();
    assert_eq!(replanned.tier, PlanTier::Elastic);
    let candidate = replanned.elastic.as_ref().unwrap().candidate;
    assert_ne!(candidate, ElasticCandidate::Unchanged);
    assert!(replanned
        .plan
        .sub_microbatches
        .shares_storage_with(&running.sub_microbatches));
    assert!(replanned
        .plan
        .memory_plan
        .shares_storage_with(&running.memory_plan));
    if candidate == ElasticCandidate::Stay {
        assert!(replanned
            .plan
            .placement
            .shares_storage_with(&running.placement));
    }
    let hit = session.plan(&request).unwrap();
    assert_eq!(hit.tier, PlanTier::Exact);
    assert!(shares_every_part(&hit.plan, &replanned.plan));
}

/// One exact hit allocates only the served plan's small plain vectors:
/// the graph's two per-rank byte vectors, the segment priorities and the
/// modalities — one allocation each, sized to its contents. The cache
/// lookup, the signature and the shared parts allocate nothing.
#[test]
fn an_exact_hit_allocates_only_the_plans_plain_vectors() {
    let spec = zoo::vlm_s();
    let cluster = ClusterTopology::h800_cluster(2);
    let session = PlanningSession::new(&spec, parallel(), &cluster, planner_config());
    let request = request(&[12, 30]);
    let cold = session.plan(&request).unwrap().plan;
    // Warm up whatever the first hit sets up once.
    drop(session.plan(&request).unwrap());

    let (hit, allocations, bytes) = counted(|| session.plan(&request).unwrap());
    assert_eq!(hit.tier, PlanTier::Exact);
    let plain = [
        cold.graph.static_memory.len() * size_of::<u64>(),
        cold.graph.param_bytes_per_rank.len() * size_of::<u64>(),
        cold.segment_priorities.len() * size_of::<i64>(),
        cold.modalities.len() * size_of::<Modality>(),
    ];
    assert!(plain.iter().all(|&b| b > 0), "{plain:?}");
    assert_eq!(
        allocations,
        plain.len() as u64,
        "allocations of one exact hit"
    );
    assert_eq!(
        bytes,
        plain.iter().sum::<usize>() as u64,
        "bytes allocated by one exact hit"
    );
    // Pinned for this request (pp 4, 4 segments, 2 modalities), so a
    // change in what a hit copies shows here as a number.
    assert_eq!((allocations, bytes), (4, 2 * 32 + 32 + 2));
}
