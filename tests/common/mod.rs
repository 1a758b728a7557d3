//! Helpers shared by the root integration tests.

use dip_core::DipPlan;

/// Asserts that `a` and `b` are the same plan: the same stage graph,
/// rank orders, segment priorities, memory plan, sub-microbatch table,
/// placement, modalities and topology fingerprint, and a planned time
/// equal to the bit. `what` names the comparison in a failure.
pub fn assert_plans_bit_identical(a: &DipPlan, b: &DipPlan, what: &str) {
    assert_eq!(a.graph, b.graph, "{what}: stage graphs differ");
    assert_eq!(a.orders, b.orders, "{what}: rank orders differ");
    assert_eq!(
        a.segment_priorities, b.segment_priorities,
        "{what}: priorities differ"
    );
    assert_eq!(a.memory_plan, b.memory_plan, "{what}: memory plans differ");
    assert_eq!(
        a.sub_microbatches, b.sub_microbatches,
        "{what}: sub-microbatch plans differ"
    );
    assert_eq!(a.placement, b.placement, "{what}: placements differ");
    assert_eq!(a.modalities, b.modalities, "{what}: modalities differ");
    assert_eq!(
        a.topology_fingerprint, b.topology_fingerprint,
        "{what}: topology fingerprints differ"
    );
    assert_eq!(
        a.stats.planned_time_s.to_bits(),
        b.stats.planned_time_s.to_bits(),
        "{what}: planned times differ bit-wise"
    );
}
