//! The pass memo of one ordering search: it lets one interleave pass
//! answer or resume another.
//!
//! This module owns the reading half of the memo's protocol: it stores the
//! decision records of one search's passes, scans them for the best resume
//! point and copies a prefix back into a workspace. [`crate::dual_queue`]
//! owns the writing half — every pass leaves a record and replays the
//! prefix its workspace holds — and its docs define the record and prove
//! the resume sound.
//!
//! A [`PassMemo`] serves every stream of one search, whose graph and
//! [`DualQueueConfig`] apart from the priorities are fixed. It packs the
//! graph once into the [`PassGraph`] every pass reads, and holds an exact
//! map (priorities → makespan of a completed evaluation) and one record per
//! completed pass: its requirement table, and its pop log and events up to
//! the largest finite requirement step, past which nothing is replayed. An
//! evaluation looks the priorities up in the exact map, then scans the
//! records for their largest resume point `j`. At `j = ∞` they reproduce
//! that pass bit for bit, and the memo answers with its makespan;
//! otherwise the pass runs resumed at `j` (`j = 0` is a fresh pass). A pass
//! resumed at `j` shares its first `j` pops and their events with its
//! *origin*, so its record stores only the rest, and copying a prefix back
//! walks the chain of origins. A memo may start out holding one completed
//! pass that ran before it ([`PassMemo::adopting`]): an elastic
//! candidate's ranking pass, which its search takes as its seed's
//! evaluation.
//!
//! The scan reads the requirement tables column-major, one column per
//! ordered segment pair holding that pair's step for every record (two
//! bytes a step when the graph's steps fit, four otherwise). It folds the
//! columns of the unranked pairs into a per-record minimum, branch-free,
//! then takes the first record holding the largest minimum — the origin
//! the record-by-record scan it replaced picks, ties included (a proptest
//! keeps that scan as its reference).
//!
//! Every answer equals a fresh bounded pass over the same priorities; the
//! memo changes only how much kernel work runs, which [`MemoWork`] counts.

use crate::dual_queue::{
    self, DualQueueConfig, PassGraph, RecordState, RequirementEvent, ScheduleWorkspace,
    NO_REQUIREMENT,
};
use crate::graph::StageGraph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Mutex, MutexGuard};

/// One search's pass memo over one graph, shared by every stream of the
/// search (see the module docs). It holds makespans and decision records,
/// never orders.
pub struct PassMemo<'g> {
    view: PassGraph<'g>,
    tables: Mutex<MemoTables>,
    /// Interleave passes run through [`PassMemo::evaluate`], aborted ones
    /// included (an adopted pass is not).
    passes: AtomicU64,
    /// Steps those passes decided live.
    live_steps: AtomicU64,
    /// Steps those passes replayed from an earlier pass.
    replayed_steps: AtomicU64,
}

/// The kernel work behind a memo's evaluations, returned by
/// [`PassMemo::interleave_winner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoWork {
    /// Distinct priority vectors whose evaluation completed, by a pass or
    /// a record hit: the final size of the exact map, an adopted pass's
    /// priorities included.
    pub distinct_priorities: u64,
    /// Interleave passes run, completed or aborted by the cutoff, resumed
    /// or fresh (neither an adopted pass nor the winner's re-interleave
    /// included).
    pub passes: u64,
    /// Stages those passes decided live, popping them from the queues.
    pub live_steps: u64,
    /// Stages those passes replayed from an earlier pass's pop log.
    pub replayed_steps: u64,
    /// Stages the winner's re-interleave decided live.
    pub winner_live_steps: u64,
    /// Stages the winner's re-interleave replayed from the record it
    /// reproduces.
    pub winner_replayed_steps: u64,
}

struct MemoTables {
    /// Priorities → makespan, for every priority vector whose evaluation
    /// completed (by a pass or a record hit).
    exact: HashMap<Vec<i64>, f64>,
    /// The decision record of every completed pass.
    records: PassRecords,
}

impl<'g> PassMemo<'g> {
    /// An empty memo for passes over `graph`.
    pub fn new(graph: &'g StageGraph) -> Self {
        Self {
            view: PassGraph::new(graph),
            tables: Mutex::new(MemoTables {
                exact: HashMap::new(),
                records: PassRecords::new(graph),
            }),
            passes: AtomicU64::new(0),
            live_steps: AtomicU64::new(0),
            replayed_steps: AtomicU64::new(0),
        }
    }

    /// A memo holding one pass that ran before it: the last pass `ws` ran,
    /// over `graph` under `priorities`, whose makespan was `makespan`. The
    /// memo answers those priorities and resumes from the pass's record as
    /// if it had run the pass, but counts no pass or step of it. Every
    /// later evaluation's config must equal that pass's apart from the
    /// priorities.
    ///
    /// # Panics
    ///
    /// When that pass did not pop every stage of `graph` (a bounded pass
    /// the cutoff aborted, say): its record would make later answers
    /// silently wrong. The check runs in release builds too.
    pub fn adopting(
        graph: &'g StageGraph,
        priorities: &[i64],
        ws: &ScheduleWorkspace,
        makespan: f64,
    ) -> Self {
        assert_eq!(
            ws.record.pops.len(),
            graph.len(),
            "the adopted pass did not complete"
        );
        let mut memo = Self::new(graph);
        let tables = memo.tables.get_mut().expect("a new memo is unshared");
        // A fresh pass: it resumed from no record, at step 0.
        tables.records.push(&ws.record, makespan, Origin::default());
        tables.exact.insert(priorities.to_vec(), makespan);
        memo
    }

    /// The makespan of `priorities` if their evaluation completed, or the
    /// memo adopted their pass.
    pub fn makespan_of(&self, priorities: &[i64]) -> Option<f64> {
        self.tables().exact.get(priorities).copied()
    }

    fn tables(&self) -> MutexGuard<'_, MemoTables> {
        self.tables
            .lock()
            .expect("a search stream panicked holding the pass memo")
    }

    /// Evaluates `config.segment_priorities` under `cutoff`, using `ws` as
    /// scratch, and answers exactly what a fresh [`dual_queue::schedule_bounded`]
    /// pass would: `Some(m)` when the makespan `m` is at most `cutoff`,
    /// `None` otherwise (the bound is exact, see there). It answers from
    /// the exact map when it can, then from any completed pass the
    /// priorities reproduce whole (every such pass carries the same
    /// makespan bits, so the scan order does not matter); a record answer
    /// within the cutoff joins the exact map as a completed evaluation.
    /// Otherwise the bounded pass runs, resumed at the largest resume point
    /// any record offers, and only a completed pass is memoised, in both
    /// tables. `ws` holds a pop log only after a pass, so callers keep
    /// priorities, never orders.
    ///
    /// `config` must equal the config of every other evaluation of this
    /// memo apart from its priorities.
    pub fn evaluate(
        &self,
        config: &DualQueueConfig,
        ws: &mut ScheduleWorkspace,
        cutoff: f64,
    ) -> Option<f64> {
        let priorities = config.segment_priorities.as_slice();
        let origin = {
            let mut tables = self.tables();
            if let Some(&makespan) = tables.exact.get(priorities) {
                return (makespan <= cutoff).then_some(makespan);
            }
            let pairs = unranked_pairs(priorities, self.view.graph().num_segments());
            let origin = tables.records.best_resume(pairs);
            if origin.is_hit() {
                let makespan = tables.records.passes[origin.source as usize].makespan;
                if makespan <= cutoff {
                    tables.exact.insert(priorities.to_vec(), makespan);
                }
                return (makespan <= cutoff).then_some(makespan);
            }
            tables.records.copy_prefix(origin, &mut ws.record);
            origin
        };
        let result = dual_queue::resume(&self.view, config, ws, cutoff);
        self.passes.fetch_add(1, AtomicOrdering::Relaxed);
        self.live_steps
            .fetch_add(ws.live_steps as u64, AtomicOrdering::Relaxed);
        self.replayed_steps
            .fetch_add(ws.replayed_steps as u64, AtomicOrdering::Relaxed);
        if let Some(makespan) = result {
            let mut tables = self.tables();
            tables.exact.insert(priorities.to_vec(), makespan);
            tables.records.push(&ws.record, makespan, origin);
        }
        result
    }

    /// Interleaves the search's winner, `config.segment_priorities`, into
    /// `ws`, so [`ScheduleWorkspace::orders`] reads its orders, and returns
    /// the work the memo counted. The winner's evaluation completed, so a
    /// record reproduces it whole: the pass replays everything the memo
    /// stores of that record and decides only the rest.
    pub fn interleave_winner(
        self,
        config: &DualQueueConfig,
        ws: &mut ScheduleWorkspace,
    ) -> MemoWork {
        let priorities = config.segment_priorities.as_slice();
        {
            let mut tables = self.tables();
            let pairs = unranked_pairs(priorities, self.view.graph().num_segments());
            let mut origin = tables.records.best_resume(pairs);
            // Always a hit for a completed winner; a resumed pass is exact
            // anyway.
            if origin.is_hit() {
                origin = tables.records.stored_prefix(origin.source);
            }
            tables.records.copy_prefix(origin, &mut ws.record);
        }
        let makespan = dual_queue::resume(&self.view, config, ws, f64::INFINITY);
        let tables = self
            .tables
            .into_inner()
            .expect("a search stream panicked holding the pass memo");
        debug_assert_eq!(
            makespan.map(f64::to_bits),
            tables.exact.get(priorities).map(|m| m.to_bits()),
            "the winner re-interleaves to its searched makespan"
        );
        MemoWork {
            distinct_priorities: tables.exact.len() as u64,
            passes: self.passes.into_inner(),
            live_steps: self.live_steps.into_inner(),
            replayed_steps: self.replayed_steps.into_inner(),
            winner_live_steps: ws.live_steps as u64,
            winner_replayed_steps: ws.replayed_steps as u64,
        }
    }
}

/// The requirement-table index `s * num_segments + t` of every ordered
/// segment pair `(s, t)`, `s ≠ t`, that `priorities` do not rank strictly
/// `s` over `t`: the pairs a resume point minimises over. Missing
/// priorities count as zero, as in the interleaver.
pub(crate) fn unranked_pairs(
    priorities: &[i64],
    num_segments: usize,
) -> impl Iterator<Item = usize> + '_ {
    let priority = move |seg: usize| priorities.get(seg).copied().unwrap_or(0);
    (0..num_segments).flat_map(move |s| {
        (0..num_segments)
            .filter(move |&t| t != s && priority(t) >= priority(s))
            .map(move |t| s * num_segments + t)
    })
}

/// The decision records of a search's completed passes (one record per
/// pass, in completion order), so storing a record costs no allocation of
/// its own once the arenas have grown.
struct PassRecords {
    /// Per pass: its makespan, origin and where its own parts end.
    passes: Vec<StoredPass>,
    /// The requirement tables, column-major, and each pass's own pops,
    /// from its resume step up to its horizon (no resume replays past the
    /// horizon), back to back.
    words: Box<dyn Words>,
    /// Each pass's own requirement events, at pop steps from its resume
    /// step up to its horizon, back to back.
    events: Vec<RequirementEvent>,
}

/// The fixed-size part of a stored record.
struct StoredPass {
    makespan: f64,
    origin: Origin,
    /// Where the pass's own pops end in [`PassRecords::words`].
    pops_end: u32,
    /// Where the pass's own events end in [`PassRecords::events`].
    events_end: u32,
}

/// The start of a stored record: it shares its first `resumed` pops and
/// the events below them with record `source`. As a scan result, the
/// record with the largest resume point `resumed` (0 when no record agrees
/// on even one step), which is [`NO_REQUIREMENT`] when the priorities
/// reproduce the record whole.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Origin {
    source: u32,
    resumed: u32,
}

impl Origin {
    /// True for a record the priorities reproduce whole (`j = ∞`).
    fn is_hit(self) -> bool {
        self.resumed == NO_REQUIREMENT
    }
}

impl PassRecords {
    fn new(graph: &StageGraph) -> Self {
        let pairs = graph.num_segments() * graph.num_segments();
        Self {
            passes: Vec::new(),
            words: words_for_graph(graph.len(), pairs),
            events: Vec::new(),
        }
    }

    /// The largest resume point any record offers priorities whose
    /// unranked pairs are `unranked`, and the first record holding it: a
    /// hit when it is `j = ∞` (every record the priorities reproduce
    /// carries the same makespan bits).
    fn best_resume(&mut self, unranked: impl IntoIterator<Item = usize>) -> Origin {
        let (source, resumed) = self
            .words
            .best(&mut unranked.into_iter(), self.passes.len())
            .unwrap_or((0, 0));
        Origin {
            source: source as u32,
            resumed,
        }
    }

    /// The longest prefix of `pass` the records hold: its resume step and
    /// its own pops after it, up to its horizon.
    fn stored_prefix(&self, pass: u32) -> Origin {
        let stored = &self.passes[pass as usize];
        let (pops_start, _) = self.starts(pass as usize);
        Origin {
            source: pass,
            resumed: stored.origin.resumed + (stored.pops_end - pops_start as u32),
        }
    }

    /// Where the own parts of `pass` start: after those of the pass
    /// before it.
    fn starts(&self, pass: usize) -> (usize, usize) {
        pass.checked_sub(1).map_or((0, 0), |prev| {
            let prev = &self.passes[prev];
            (prev.pops_end as usize, prev.events_end as usize)
        })
    }

    /// Loads the first `origin.resumed` pops of pass `origin.source`, and
    /// its events below them, into `record` as the prefix its next pass
    /// replays: each pass along the chain of passes it resumed from
    /// contributes its own part.
    fn copy_prefix(&self, origin: Origin, record: &mut RecordState) {
        let (pops, events) = (&mut record.pops, &mut record.events);
        pops.clear();
        pops.resize(origin.resumed as usize, 0);
        events.clear();
        // The chain yields later steps first, and each pass stores its own
        // events in pop-step order, so pushing every part reversed and
        // then reversing the whole restores the recorded order exactly.
        let (mut pass, mut end) = (origin.source as usize, origin.resumed as usize);
        while end > 0 {
            let stored = &self.passes[pass];
            let resumed = (stored.origin.resumed as usize).min(end);
            let (pops_start, events_start) = self.starts(pass);
            self.words.copy_pops(
                pops_start..pops_start + end - resumed,
                &mut pops[resumed..end],
            );
            let own = &self.events[events_start..stored.events_end as usize];
            let below = own.partition_point(|e| (e.pop_step as usize) < end);
            events.extend(own[..below].iter().rev());
            (pass, end) = (stored.origin.source as usize, resumed);
        }
        events.reverse();
    }

    /// Stores the record of a completed pass that resumed at `origin`.
    fn push(&mut self, record: &RecordState, makespan: f64, origin: Origin) {
        let horizon = record.horizon();
        let resumed = origin.resumed as usize;
        let own_pops = &record.pops[resumed..horizon.max(resumed)];
        self.words.push(&record.requirements, own_pops);
        // Events come in pop-step order, so those at steps `resumed..horizon`
        // are one run.
        let events = &record.events;
        let below = |step: usize| events.partition_point(|e| (e.pop_step as usize) < step);
        let (lo, hi) = (below(resumed), below(horizon));
        self.events.extend_from_slice(&events[lo..hi.max(lo)]);
        self.passes.push(StoredPass {
            makespan,
            origin,
            pops_end: self.words.pops_len() as u32,
            events_end: self.events.len() as u32,
        });
    }
}

/// Whether every stage id and requirement step of a graph fits in two
/// bytes (ids and steps stay below its item count), with the largest
/// two-byte value left free to stand for [`NO_REQUIREMENT`].
fn fits_narrow(len: usize) -> bool {
    len < usize::from(u16::MAX)
}

/// A stored stage id or requirement step: two bytes when the graph's ids
/// and steps fit (see [`fits_narrow`]), four otherwise.
trait Word: Copy + Ord + Send {
    /// The stored [`NO_REQUIREMENT`].
    const NONE: Self;
    fn pack(value: u32) -> Self;
    fn unpack(self) -> u32;
}

impl Word for u16 {
    const NONE: Self = u16::MAX;
    fn pack(value: u32) -> Self {
        value.min(u32::from(u16::MAX)) as u16
    }
    fn unpack(self) -> u32 {
        if self == Self::NONE {
            NO_REQUIREMENT
        } else {
            u32::from(self)
        }
    }
}

impl Word for u32 {
    const NONE: Self = NO_REQUIREMENT;
    fn pack(value: u32) -> Self {
        value
    }
    fn unpack(self) -> u32 {
        self
    }
}

/// The records' requirement tables and pops at the graph's width.
fn words_for_graph(len: usize, pairs: usize) -> Box<dyn Words> {
    if fits_narrow(len) {
        Box::new(Stored::<u16>::new(pairs))
    } else {
        Box::new(Stored::<u32>::new(pairs))
    }
}

/// The part of the records whose width depends on the graph.
trait Words: Send {
    /// Appends one record's row-major requirement table and its own pops.
    fn push(&mut self, table: &[u32], pops: &[u32]);
    /// The first of the `records` records holding the largest minimum over
    /// the `pairs` columns, and that minimum; `None` without records.
    fn best(
        &mut self,
        pairs: &mut dyn Iterator<Item = usize>,
        records: usize,
    ) -> Option<(usize, u32)>;
    /// The number of stored pops.
    fn pops_len(&self) -> usize;
    /// Copies the stored pops in `range` into `out`.
    fn copy_pops(&self, range: std::ops::Range<usize>, out: &mut [u32]);
}

/// Requirement steps stored column by column, one column per ordered
/// segment pair holding that pair's step for every record; the reused row
/// the scan folds them into; and each pass's own pops, back to back.
struct Stored<T> {
    columns: Vec<Vec<T>>,
    mins: Vec<T>,
    pops: Vec<T>,
}

impl<T: Word> Stored<T> {
    fn new(pairs: usize) -> Self {
        Self {
            columns: (0..pairs).map(|_| Vec::new()).collect(),
            mins: Vec::new(),
            pops: Vec::new(),
        }
    }
}

impl<T: Word> Words for Stored<T> {
    fn push(&mut self, table: &[u32], pops: &[u32]) {
        for (column, &value) in self.columns.iter_mut().zip(table) {
            column.push(T::pack(value));
        }
        self.pops.extend(pops.iter().map(|&id| T::pack(id)));
    }

    /// Takes the elementwise minimum of the `pairs` columns over all
    /// `records` records, without stopping early, then returns the first
    /// record holding the maximum of those minima. A record's minimum is
    /// [`NO_REQUIREMENT`] when `pairs` is empty.
    fn best(
        &mut self,
        pairs: &mut dyn Iterator<Item = usize>,
        records: usize,
    ) -> Option<(usize, u32)> {
        let mins = &mut self.mins;
        mins.clear();
        mins.resize(records, T::NONE);
        for pair in pairs {
            for (min, &value) in mins.iter_mut().zip(&self.columns[pair][..records]) {
                *min = (*min).min(value);
            }
        }
        let best = *mins.iter().max()?;
        let record = mins.iter().position(|&min| min == best)?;
        Some((record, best.unpack()))
    }

    fn pops_len(&self) -> usize {
        self.pops.len()
    }

    fn copy_pops(&self, range: std::ops::Range<usize>, out: &mut [u32]) {
        for (out, &id) in out.iter_mut().zip(&self.pops[range]) {
            *out = id.unpack();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual_queue::tests::vlm_graph;
    use crate::dual_queue::{resume, schedule, schedule_bounded, schedule_into};
    use dip_sim::ClusterTopology;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Every ordering of `segments` segments, in lexicographic order: each
    /// prefix extended by every segment it lacks, in ascending order.
    fn all_orderings(segments: usize) -> Vec<Vec<usize>> {
        (0..segments).fold(vec![Vec::new()], |prefixes, _| {
            let extend = |prefix: &Vec<usize>| {
                let unused = (0..segments).filter(|seg| !prefix.contains(seg));
                unused
                    .map(|seg| [prefix.as_slice(), &[seg]].concat())
                    .collect::<Vec<_>>()
            };
            prefixes.iter().flat_map(extend).collect()
        })
    }

    /// The search's priority assignment: position `i` of `ordering` gets
    /// priority `n − i`.
    fn priorities_of(ordering: &[usize]) -> Vec<i64> {
        let n = ordering.len();
        let mut priorities = vec![0i64; n];
        for (pos, &seg) in ordering.iter().enumerate() {
            priorities[seg] = (n - pos) as i64;
        }
        priorities
    }

    /// True when `ordering` puts every segment `s` ahead of every segment `t`
    /// the record has a requirement step for: the pairs the pass had to rank.
    fn record_covers(record: &RecordState, ordering: &[usize]) -> bool {
        let n = ordering.len();
        let mut position = vec![0usize; n];
        for (pos, &seg) in ordering.iter().enumerate() {
            position[seg] = pos;
        }
        (0..n).all(|s| {
            (0..n).all(|t| {
                s == t
                    || record.requirements[s * n + t] == NO_REQUIREMENT
                    || position[s] < position[t]
            })
        })
    }

    /// The 6-segment VLM-S graph (tp4 pp4, separated placement, 12
    /// microbatches), and its dual-queue configurations: under the cluster's
    /// activation budgets, and with 1-byte budgets, which send every forward
    /// past a rank's first through the relaxed deadlock path.
    fn six_segment_setup() -> (StageGraph, Vec<(&'static str, DualQueueConfig)>) {
        let (graph, n) = vlm_graph(12, 4);
        assert_eq!(n, 6);
        let usable = ClusterTopology::h800_cluster(2)
            .reference_device()
            .usable_memory();
        let budgets = graph.static_memory.iter();
        let config = |budget| DualQueueConfig {
            memory_limit: Some(budget),
            ..DualQueueConfig::default()
        };
        let configs = vec![
            (
                "activation budgets",
                config(budgets.map(|s| usable.saturating_sub(*s)).collect()),
            ),
            ("1-byte budgets", config(vec![1; graph.num_ranks])),
        ];
        (graph, configs)
    }

    /// The identity plus orderings whose records leave some segment pairs
    /// unranked under the activation budgets.
    const REFERENCES: [[usize; 6]; 5] = [
        [0, 1, 2, 3, 4, 5],
        [0, 4, 1, 5, 3, 2],
        [1, 5, 4, 3, 0, 2],
        [0, 5, 3, 4, 1, 2],
        [4, 0, 3, 5, 2, 1],
    ];

    /// Whole-pass reuse, exhaustively on the 6-segment VLM-S graph: for
    /// several reference orderings and every one of the 720 orderings, the
    /// resume point against the reference pass is `j = ∞` exactly when the
    /// ordering ranks every pair the record constrains, and every such
    /// ordering reproduces the reference's makespan bits and per-rank orders
    /// in a fresh `schedule`. It runs under activation budgets and 1-byte
    /// budgets. Covered orderings other than the reference must exist, or a
    /// record demanding the full order would pass vacuously.
    #[test]
    fn decision_witness_covers_only_orderings_that_reproduce_the_pass() {
        let (graph, configs) = six_segment_setup();
        let orderings = all_orderings(6);
        let mut ws = ScheduleWorkspace::new();
        for (label, base) in configs {
            let mut others_covered = 0usize;
            for reference in &REFERENCES {
                let config = DualQueueConfig {
                    segment_priorities: priorities_of(reference),
                    ..base.clone()
                };
                let makespan = schedule_into(&graph, &config, &mut ws);
                let orders = ws.orders(&graph);
                let record = &ws.record;
                assert!(record_covers(record, reference), "{label}: {reference:?}");
                for ordering in &orderings {
                    let covered = record_covers(record, ordering);
                    let j = record.resume_point(&priorities_of(ordering));
                    assert_eq!(
                        j.is_none(),
                        covered,
                        "{label}: {ordering:?} against {reference:?} resumes at {j:?}"
                    );
                    if !covered {
                        continue;
                    }
                    let (fresh_orders, fresh_makespan) = schedule(
                        &graph,
                        &DualQueueConfig {
                            segment_priorities: priorities_of(ordering),
                            ..base.clone()
                        },
                    );
                    assert_eq!(
                        fresh_makespan.to_bits(),
                        makespan.to_bits(),
                        "{label}: {ordering:?} covered by {reference:?}"
                    );
                    assert_eq!(
                        fresh_orders, orders,
                        "{label}: {ordering:?} covered by {reference:?}"
                    );
                    others_covered += usize::from(ordering != reference);
                }
            }
            assert!(
                others_covered > 0,
                "{label}: no record covered an ordering besides its own"
            );
        }
    }

    /// Prefix-resume soundness, exhaustively on the 6-segment VLM-S graph: for
    /// every reference pass and each of the 720 orderings with a finite resume
    /// point `j`, the pass resumed at `j` reproduces, bit for bit, a fresh
    /// pass's makespan, per-rank orders, pop log and requirement table. With a
    /// cutoff just below the makespan, or at half of it, the resumed pass
    /// aborts exactly where a fresh bounded pass does. Some `j` must fall
    /// strictly inside the pass, and some abort inside a replayed prefix, or
    /// the property would hold vacuously.
    #[test]
    fn resumed_passes_reproduce_fresh_passes_bit_for_bit() {
        let (graph, configs) = six_segment_setup();
        let view = PassGraph::new(&graph);
        let orderings = all_orderings(6);
        let (mut source, mut fresh, mut resumed) = (
            ScheduleWorkspace::new(),
            ScheduleWorkspace::new(),
            ScheduleWorkspace::new(),
        );
        for (label, base) in configs {
            let (mut inside, mut aborted_in_replay) = (0usize, 0usize);
            for reference in &REFERENCES {
                let config = DualQueueConfig {
                    segment_priorities: priorities_of(reference),
                    ..base.clone()
                };
                schedule_into(&graph, &config, &mut source);
                let record = &source.record;
                for ordering in &orderings {
                    let config = DualQueueConfig {
                        segment_priorities: priorities_of(ordering),
                        ..base.clone()
                    };
                    let Some(j) = record.resume_point(&config.segment_priorities) else {
                        continue;
                    };
                    inside += usize::from(0 < j && j < graph.len());
                    let makespan = schedule_into(&graph, &config, &mut fresh);
                    // Independently of how the record was built: the fresh
                    // pass pops exactly like the reference below `j`.
                    assert_eq!(
                        fresh.record.pops[..j],
                        record.pops[..j],
                        "{label}: {ordering:?} diverges from {reference:?} before step {j}"
                    );
                    resumed.record.load_prefix(record, j);
                    let result = resume(&view, &config, &mut resumed, f64::INFINITY);
                    let what = format!("{label}: {ordering:?} resumed at {j} from {reference:?}");
                    assert_eq!(result.map(f64::to_bits), Some(makespan.to_bits()), "{what}");
                    assert_eq!(resumed.orders(&graph), fresh.orders(&graph), "{what}");
                    assert_eq!(resumed.record.pops, fresh.record.pops, "{what}");
                    assert_eq!(
                        resumed.record.requirements, fresh.record.requirements,
                        "{what}"
                    );
                    assert_eq!(resumed.record.events, fresh.record.events, "{what}");
                    assert_eq!(
                        (resumed.replayed_steps, resumed.live_steps),
                        (j, graph.len() - j),
                        "{what}"
                    );
                    // Just below the makespan, and at half of it, which
                    // often aborts inside the replayed prefix.
                    for cutoff in [makespan * (1.0 - 1e-12), makespan * 0.5] {
                        assert!(
                            schedule_bounded(&view, &config, &mut fresh, cutoff).is_none(),
                            "{what}"
                        );
                        resumed.record.load_prefix(record, j);
                        assert!(
                            resume(&view, &config, &mut resumed, cutoff).is_none(),
                            "{what}"
                        );
                        assert_eq!(
                            resumed.replayed_steps + resumed.live_steps,
                            fresh.live_steps,
                            "{what}: aborted at a different step under cutoff {cutoff}"
                        );
                        aborted_in_replay += usize::from(resumed.live_steps == 0);
                    }
                }
            }
            assert!(inside > 0, "{label}: no resume point fell inside a pass");
            assert!(
                aborted_in_replay > 0,
                "{label}: no bounded resumed pass aborted inside its replay"
            );
        }
    }

    /// Every stored record rebuilds, at every resume step up to its
    /// horizon and over its whole stored prefix, exactly the pops and
    /// events of a fresh pass over its ordering, although resumed passes
    /// store only their own part.
    #[test]
    fn stored_records_rebuild_every_prefix() {
        let (graph, n) = vlm_graph(6, 2);
        let memo = PassMemo::new(&graph);
        let mut ws = ScheduleWorkspace::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ordering: Vec<usize> = (0..n).collect();
        let config = |ordering: &[usize]| DualQueueConfig {
            segment_priorities: priorities_of(ordering),
            ..DualQueueConfig::default()
        };
        // The ordering behind each stored record, in storage order.
        let mut stored = Vec::new();
        for _ in 0..40 {
            ordering.shuffle(&mut rng);
            let passes = memo.passes.load(AtomicOrdering::Relaxed);
            memo.evaluate(&config(&ordering), &mut ws, f64::INFINITY);
            if memo.passes.load(AtomicOrdering::Relaxed) > passes {
                stored.push(ordering.clone());
            }
        }
        let tables = memo.tables();
        let records = &tables.records;
        assert!(
            records.passes.iter().any(|p| p.origin.resumed > 0),
            "no stored pass resumed"
        );
        let (mut fresh, mut prefix) = (ScheduleWorkspace::new(), RecordState::default());
        for (pass, ordering) in stored.iter().enumerate() {
            schedule_into(&graph, &config(ordering), &mut fresh);
            let record = &fresh.record;
            // The winner's re-interleave replays a record's whole stored
            // prefix: at least up to its horizon, and its own pops.
            let whole = records.stored_prefix(pass as u32);
            assert!(whole.resumed as usize >= record.horizon(), "pass {pass}");
            records.copy_prefix(whole, &mut prefix);
            assert_eq!(
                prefix.pops,
                record.pops[..whole.resumed as usize],
                "pass {pass}"
            );
            for steps in 0..=record.horizon() {
                records.copy_prefix(
                    Origin {
                        source: pass as u32,
                        resumed: steps as u32,
                    },
                    &mut prefix,
                );
                assert_eq!(
                    prefix.pops,
                    record.pops[..steps],
                    "pass {pass}, {steps} steps"
                );
                let below: Vec<RequirementEvent> = record
                    .events
                    .iter()
                    .copied()
                    .filter(|e| (e.pop_step as usize) < steps)
                    .collect();
                assert_eq!(prefix.events, below, "pass {pass}, {steps} steps");
            }
        }
    }

    /// The record-major scan the column-major one replaced: records in
    /// completion order, each one's pair loop stopping once its running
    /// minimum is at or below the best point so far, the scan stopping at
    /// the first record the priorities reproduce.
    fn record_major_resume(tables: &[Vec<u32>], unranked: &[usize]) -> Origin {
        let mut best = Origin {
            source: 0,
            resumed: 0,
        };
        for (pass, table) in tables.iter().enumerate() {
            let mut j = NO_REQUIREMENT;
            for &pair in unranked {
                j = j.min(table[pair]);
                if j <= best.resumed {
                    break;
                }
            }
            if j == NO_REQUIREMENT {
                return Origin {
                    source: pass as u32,
                    resumed: j,
                };
            }
            if j > best.resumed {
                best = Origin {
                    source: pass as u32,
                    resumed: j,
                };
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        /// The column-major scan returns exactly the record-major scan's
        /// origin (hit or not, record and step) at both storage widths, on
        /// memos from empty to a few dozen records whose steps come from a
        /// small set (so equal `j` ties are common), with whole rows of
        /// "none" and priorities that leave no pair unranked.
        #[test]
        fn column_major_resume_matches_the_record_major_scan(
            shape in (1usize..6, 0u8..2),
            cells in prop::collection::vec(0u8..16, 0..600),
            priorities in prop::collection::vec(0u8..4, 5..6),
        ) {
            let (segments, wide) = (shape.0, shape.1 == 1);
            let pairs = segments * segments;
            // The graph length fixes the width; steps stay below it.
            let len = if wide { 100_000 } else { 60_000 };
            let steps = [0, 1, 2, 2, 5, 5, 9, len as u32 - 1];
            let tables: Vec<Vec<u32>> = cells
                .chunks_exact(pairs)
                .map(|row| {
                    // A row led by 15 is all "none".
                    let all_none = row[0] == 15;
                    row.iter()
                        .map(|&c| match c {
                            _ if all_none => NO_REQUIREMENT,
                            0..=7 => steps[usize::from(c)],
                            _ => NO_REQUIREMENT,
                        })
                        .collect()
                })
                .collect();
            let mut records = PassRecords {
                passes: Vec::new(),
                words: words_for_graph(len, pairs),
                events: Vec::new(),
            };
            prop_assert_eq!(fits_narrow(len), !wide);
            for table in &tables {
                records.words.push(table, &[]);
                records.passes.push(StoredPass {
                    makespan: 0.0,
                    origin: Origin {
                        source: 0,
                        resumed: 0,
                    },
                    pops_end: 0,
                    events_end: 0,
                });
            }
            let priorities: Vec<i64> = priorities[..segments].iter().map(|&p| i64::from(p)).collect();
            let unranked: Vec<usize> = unranked_pairs(&priorities, segments).collect();
            prop_assert_eq!(
                records.best_resume(unranked.iter().copied()),
                record_major_resume(&tables, &unranked),
                "{} records, unranked {:?}",
                tables.len(),
                unranked
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every memo answer — an exact hit, a record hit, a resumed pass or
        /// a fresh one — equals a fresh `schedule_into` of the same
        /// priorities: its makespan bits when the makespan is at most the
        /// cutoff, an abort exactly when it is above. The sequences repeat
        /// priorities (24 orderings of 4 segments), and their cutoffs fall
        /// below, at and above each makespan. Half the memos start out
        /// adopting one pass, which no counter of passes or steps includes.
        /// The winner's re-interleave then yields a fresh pass's orders, and
        /// every counter adds up.
        #[test]
        fn every_memo_answer_equals_a_fresh_pass(
            evaluations in prop::collection::vec((0usize..24, 0u8..4, 0.5f64..1.5), 1..40),
            memory_bound in 0u8..2,
            adopt in 0usize..48,
        ) {
            let (graph, n) = vlm_graph(4, 2);
            prop_assert_eq!(n, 4);
            let orderings = all_orderings(n);
            let base = DualQueueConfig {
                memory_limit: (memory_bound == 1).then(|| vec![1 << 30; graph.num_ranks]),
                ..DualQueueConfig::default()
            };
            let config = |ordering: &[usize]| DualQueueConfig {
                segment_priorities: priorities_of(ordering),
                ..base.clone()
            };
            let (mut ws, mut fresh) = (ScheduleWorkspace::new(), ScheduleWorkspace::new());
            let adopted = orderings.get(adopt).map(|_| adopt);
            let memo = match adopted {
                Some(index) => {
                    let config = config(&orderings[index]);
                    let makespan = schedule_into(&graph, &config, &mut fresh);
                    PassMemo::adopting(&graph, &config.segment_priorities, &fresh, makespan)
                }
                None => PassMemo::new(&graph),
            };
            let mut winner = adopted;
            let mut aborted = 0;
            for &(index, kind, factor) in &evaluations {
                let config = config(&orderings[index]);
                let makespan = schedule_into(&graph, &config, &mut fresh);
                let cutoff = match kind {
                    0 => f64::INFINITY,
                    1 => makespan,
                    2 => makespan * (1.0 - 1e-12),
                    _ => makespan * factor,
                };
                let expected = (makespan <= cutoff).then_some(makespan.to_bits());
                let answer = memo.evaluate(&config, &mut ws, cutoff);
                prop_assert_eq!(answer.map(f64::to_bits), expected, "{:?} under {}", &orderings[index], cutoff);
                aborted += u64::from(answer.is_none());
                if answer.is_some() {
                    winner.get_or_insert(index);
                }
            }
            if let Some(winner) = winner {
                let config = config(&orderings[winner]);
                let work = memo.interleave_winner(&config, &mut ws);
                let (orders, _) = schedule(&graph, &config);
                prop_assert_eq!(ws.orders(&graph), orders);
                let len = graph.len() as u64;
                prop_assert_eq!(work.winner_live_steps + work.winner_replayed_steps, len);
                let adopted = u64::from(adopted.is_some());
                prop_assert!(work.passes + adopted <= work.distinct_priorities + aborted);
                prop_assert!(work.live_steps + work.replayed_steps <= work.passes * len);
            }
        }
    }

    /// A memo adopts only a pass that completed over its graph: a bounded
    /// pass the cutoff aborted holds a partial record, and answers seeded
    /// from it would be wrong. The check holds in release builds.
    #[test]
    #[should_panic(expected = "the adopted pass did not complete")]
    fn adoption_rejects_a_pass_that_did_not_complete() {
        let (graph, _) = vlm_graph(4, 2);
        let config = DualQueueConfig::default();
        let mut ws = ScheduleWorkspace::new();
        let makespan = schedule_into(&graph, &config, &mut ws);
        let view = PassGraph::new(&graph);
        let cutoff = makespan * 0.5;
        assert!(schedule_bounded(&view, &config, &mut ws, cutoff).is_none());
        PassMemo::adopting(&graph, &config.segment_priorities, &ws, makespan);
    }
}
