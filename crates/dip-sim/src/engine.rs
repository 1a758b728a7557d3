//! A deterministic discrete-event executor for pipeline execution plans.
//!
//! The engine replays per-rank task lists (forward stages, backward stages,
//! communication waits, optimizer steps) with cross-rank dependencies and
//! produces the information every experiment needs: end-to-end makespan,
//! per-rank busy and bubble time, per-task start/end timestamps and per-rank
//! memory timelines.
//!
//! Semantics: tasks assigned to the same rank execute strictly in the order
//! they were added (the execution plan order, §6.3); a task additionally
//! waits for all of its dependencies plus their communication lag.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a task inside a [`SimEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub usize);

/// The coarse category of a task, used for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// A forward pipeline stage.
    Forward,
    /// A backward pipeline stage.
    Backward,
    /// A communication operation accounted on the rank (e.g. a blocking wait).
    Communication,
    /// The optimizer step at the end of an iteration.
    Optimizer,
    /// Anything else.
    Other,
}

/// One task of an execution plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// The pipeline rank (resource) executing the task.
    pub rank: usize,
    /// Execution latency in seconds.
    pub duration: f64,
    /// Task category.
    pub kind: TaskKind,
    /// Dependencies: the task starts only after each `(task, lag)` has
    /// finished and `lag` additional seconds (e.g. P2P latency) have passed.
    pub deps: Vec<(TaskId, f64)>,
    /// Memory delta (bytes) applied to the rank when the task starts
    /// (e.g. +activation bytes for a forward stage).
    pub mem_at_start: i64,
    /// Memory delta (bytes) applied to the rank when the task ends
    /// (e.g. -activation bytes for a backward stage).
    pub mem_at_end: i64,
    /// Optional human-readable label ("fw mb3 seg1"...).
    pub label: Option<String>,
}

impl Task {
    /// A compute task with no memory effect and no dependencies.
    pub fn compute(rank: usize, duration: f64, kind: TaskKind) -> Self {
        Self {
            rank,
            duration,
            kind,
            deps: Vec::new(),
            mem_at_start: 0,
            mem_at_end: 0,
            label: None,
        }
    }

    /// Adds a dependency with the given communication lag.
    pub fn after(mut self, task: TaskId, lag: f64) -> Self {
        self.deps.push((task, lag));
        self
    }

    /// Sets the memory deltas.
    pub fn with_memory(mut self, at_start: i64, at_end: i64) -> Self {
        self.mem_at_start = at_start;
        self.mem_at_end = at_end;
        self
    }

    /// Sets the label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Errors produced while simulating a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A task references a rank outside the engine's rank count.
    InvalidRank {
        /// The offending task.
        task: TaskId,
        /// The invalid rank index.
        rank: usize,
    },
    /// A task depends on a task id that has not been added.
    UnknownDependency {
        /// The offending task.
        task: TaskId,
        /// The missing dependency id.
        dependency: TaskId,
    },
    /// The dependency graph (including same-rank ordering) contains a cycle.
    DependencyCycle,
    /// The simulated report violates an internal accounting invariant
    /// (e.g. a rank's busy time exceeds the makespan beyond float
    /// tolerance). This indicates over-accounted durations upstream; it
    /// used to be a `debug_assert!` that release builds silently clamped,
    /// which hid exactly this class of bug from CI.
    InconsistentReport {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidRank { task, rank } => {
                write!(f, "task {} refers to invalid rank {rank}", task.0)
            }
            EngineError::UnknownDependency { task, dependency } => write!(
                f,
                "task {} depends on unknown task {}",
                task.0, dependency.0
            ),
            EngineError::DependencyCycle => write!(f, "execution plan contains a dependency cycle"),
            EngineError::InconsistentReport { detail } => {
                write!(f, "inconsistent engine report: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Start/end record of one simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Simulation time at which the task started.
    pub start: f64,
    /// Simulation time at which the task finished.
    pub end: f64,
}

/// Per-rank results of a simulation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RankTimeline {
    /// The rank index.
    pub rank: usize,
    /// Total busy time (sum of task durations).
    pub busy_s: f64,
    /// Idle (bubble) time within the iteration makespan.
    pub bubble_s: f64,
    /// `(task, start, end)` for every task on this rank, in execution order.
    pub tasks: Vec<(TaskId, f64, f64)>,
    /// Memory usage samples `(time, bytes)` after each change, starting from
    /// the static baseline.
    pub memory_timeline: Vec<(f64, i64)>,
    /// Peak memory observed (bytes).
    pub peak_memory: i64,
}

/// The result of simulating an execution plan.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineReport {
    /// End-to-end makespan in seconds.
    pub makespan: f64,
    /// Per-rank timelines.
    pub ranks: Vec<RankTimeline>,
    /// Per-task records, indexed by [`TaskId`].
    pub records: Vec<TaskRecord>,
}

/// Rounding tolerance for busy-versus-available time comparisons: the two
/// are accumulated in different summation orders, so they may disagree by a
/// few ulps even in a consistent report.
fn busy_time_tolerance(available: f64) -> f64 {
    available * 1e-9 + 1e-12
}

impl EngineReport {
    /// Aggregate bubble fraction: idle time divided by total rank-time,
    /// computed exactly. Busy time can never exceed rank-time in a
    /// consistent report (tasks on one rank are serialised within the
    /// makespan), so a meaningfully negative result indicates busy-time
    /// over-accounting upstream — asserted in debug builds rather than
    /// silently clamped to zero, which used to hide exactly that class of
    /// bug. Only a negative within the float-summation tolerance is
    /// flushed to zero, keeping the result in `0..=1`.
    ///
    /// Release builds get the same protection through
    /// [`EngineReport::try_bubble_fraction`], which the plan executor uses
    /// so the violation surfaces as a returned error instead of a silently
    /// wrong metric.
    pub fn bubble_fraction(&self) -> f64 {
        match self.try_bubble_fraction() {
            Ok(fraction) => fraction,
            Err(err) => {
                debug_assert!(false, "{err}: over-accounted durations");
                let total: f64 = self.ranks.len() as f64 * self.makespan;
                let busy: f64 = self.ranks.iter().map(|r| r.busy_s).sum();
                (total - busy) / total
            }
        }
    }

    /// Like [`EngineReport::bubble_fraction`], but reports a busy-time
    /// over-accounting as [`EngineError::InconsistentReport`] instead of
    /// debug-asserting — so the check also runs in release builds, where
    /// `debug_assert!` compiles away.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InconsistentReport`] when the summed busy
    /// time exceeds `ranks × makespan` beyond float-summation tolerance.
    pub fn try_bubble_fraction(&self) -> Result<f64, EngineError> {
        let total: f64 = self.ranks.len() as f64 * self.makespan;
        if total <= 0.0 {
            return Ok(0.0);
        }
        let busy: f64 = self.ranks.iter().map(|r| r.busy_s).sum();
        if busy > total + busy_time_tolerance(total) {
            return Err(EngineError::InconsistentReport {
                detail: format!(
                    "busy time {busy} exceeds total rank-time {total}: over-accounted durations"
                ),
            });
        }
        Ok(((total - busy) / total).max(0.0))
    }

    /// The highest peak memory across ranks.
    pub fn max_peak_memory(&self) -> i64 {
        self.ranks.iter().map(|r| r.peak_memory).max().unwrap_or(0)
    }
}

/// The discrete-event engine.
#[derive(Debug, Clone, Default)]
pub struct SimEngine {
    num_ranks: usize,
    tasks: Vec<Task>,
    static_memory: Vec<i64>,
}

impl SimEngine {
    /// Creates an engine with `num_ranks` pipeline ranks.
    pub fn new(num_ranks: usize) -> Self {
        Self {
            num_ranks,
            tasks: Vec::new(),
            static_memory: vec![0; num_ranks],
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Sets the static memory baseline (parameters, gradients, optimizer
    /// state) of a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn set_static_memory(&mut self, rank: usize, bytes: i64) {
        self.static_memory[rank] = bytes;
    }

    /// Adds a task and returns its id. Tasks on the same rank execute in the
    /// order they are added.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(task);
        id
    }

    /// Simulates the plan.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] if a task references an invalid rank or an
    /// unknown dependency, or if the combined dependency graph has a cycle.
    pub fn run(&self) -> Result<EngineReport, EngineError> {
        let n = self.tasks.len();
        // Validate.
        for (i, t) in self.tasks.iter().enumerate() {
            if t.rank >= self.num_ranks {
                return Err(EngineError::InvalidRank {
                    task: TaskId(i),
                    rank: t.rank,
                });
            }
            for (dep, _) in &t.deps {
                if dep.0 >= n {
                    return Err(EngineError::UnknownDependency {
                        task: TaskId(i),
                        dependency: *dep,
                    });
                }
            }
        }

        // Build the full dependency graph: explicit deps + same-rank FIFO order.
        let mut preds: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut last_on_rank: Vec<Option<usize>> = vec![None; self.num_ranks];
        for (i, t) in self.tasks.iter().enumerate() {
            for (dep, lag) in &t.deps {
                preds[i].push((dep.0, *lag));
            }
            if let Some(prev) = last_on_rank[t.rank] {
                preds[i].push((prev, 0.0));
            }
            last_on_rank[t.rank] = Some(i);
        }

        // Topological order (Kahn).
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for (p, _) in ps {
                succs[*p].push(i);
                indegree[i] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(i);
            for &s in &succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if topo.len() != n {
            return Err(EngineError::DependencyCycle);
        }

        // Earliest start/finish times.
        let mut records = vec![TaskRecord::default(); n];
        for &i in &topo {
            let mut start: f64 = 0.0;
            for &(p, lag) in &preds[i] {
                start = start.max(records[p].end + lag);
            }
            records[i] = TaskRecord {
                start,
                end: start + self.tasks[i].duration,
            };
        }

        let makespan = records.iter().map(|r| r.end).fold(0.0, f64::max);

        // Per-rank timelines.
        let mut ranks: Vec<RankTimeline> = (0..self.num_ranks)
            .map(|r| RankTimeline {
                rank: r,
                ..RankTimeline::default()
            })
            .collect();
        for (i, t) in self.tasks.iter().enumerate() {
            let rank = &mut ranks[t.rank];
            rank.busy_s += t.duration;
            rank.tasks
                .push((TaskId(i), records[i].start, records[i].end));
        }
        for rank in &mut ranks {
            rank.tasks
                .sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            // Same-rank tasks are serialised, so their summed durations
            // cannot exceed the makespan (the max over task end times):
            // computed exactly, with the invariant reported as a returned
            // error instead of the old `.max(0.0)` clamp (which masked
            // over-accounting) or a `debug_assert!` (which release builds
            // compiled away). Only a float-summation ulp of negativity is
            // flushed to zero.
            if rank.busy_s > makespan + busy_time_tolerance(makespan) {
                return Err(EngineError::InconsistentReport {
                    detail: format!(
                        "rank {} busy {} exceeds makespan {makespan}",
                        rank.rank, rank.busy_s
                    ),
                });
            }
            rank.bubble_s = (makespan - rank.busy_s).max(0.0);
        }

        // Memory timelines: events at task starts and ends.
        for rank in &mut ranks {
            let base = self.static_memory[rank.rank];
            let mut events: Vec<(f64, i64)> = Vec::new();
            for &(tid, start, end) in &rank.tasks {
                let task = &self.tasks[tid.0];
                if task.mem_at_start != 0 {
                    events.push((start, task.mem_at_start));
                }
                if task.mem_at_end != 0 {
                    events.push((end, task.mem_at_end));
                }
            }
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut current = base;
            let mut timeline = vec![(0.0, base)];
            let mut peak = base;
            for (time, delta) in events {
                current += delta;
                peak = peak.max(current);
                timeline.push((time, current));
            }
            rank.memory_timeline = timeline;
            rank.peak_memory = peak;
        }

        Ok(EngineReport {
            makespan,
            ranks,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_on_one_rank_execute_in_order() {
        let mut e = SimEngine::new(1);
        let a = e.add_task(Task::compute(0, 1.0, TaskKind::Forward));
        let b = e.add_task(Task::compute(0, 2.0, TaskKind::Backward));
        let report = e.run().unwrap();
        assert_eq!(report.records[a.0].start, 0.0);
        assert_eq!(report.records[b.0].start, 1.0);
        assert_eq!(report.makespan, 3.0);
        assert_eq!(report.ranks[0].busy_s, 3.0);
        assert_eq!(report.ranks[0].bubble_s, 0.0);
    }

    #[test]
    fn cross_rank_dependency_with_lag_delays_start() {
        let mut e = SimEngine::new(2);
        let a = e.add_task(Task::compute(0, 1.0, TaskKind::Forward));
        let b = e.add_task(Task::compute(1, 1.0, TaskKind::Forward).after(a, 0.5));
        let report = e.run().unwrap();
        assert_eq!(report.records[b.0].start, 1.5);
        assert_eq!(report.makespan, 2.5);
        // Rank 1 idles while waiting: bubble time reflects it.
        assert!(report.ranks[1].bubble_s > 0.0);
        assert!(report.bubble_fraction() > 0.0);
    }

    #[test]
    fn simple_two_stage_pipeline_has_expected_bubbles() {
        // 2 ranks, 2 microbatches, forward-only: classic pipeline fill.
        let mut e = SimEngine::new(2);
        let f0 = e.add_task(Task::compute(0, 1.0, TaskKind::Forward));
        let f1 = e.add_task(Task::compute(0, 1.0, TaskKind::Forward));
        let g0 = e.add_task(Task::compute(1, 1.0, TaskKind::Forward).after(f0, 0.0));
        let _g1 = e.add_task(Task::compute(1, 1.0, TaskKind::Forward).after(f1, 0.0));
        let report = e.run().unwrap();
        assert_eq!(report.records[g0.0].start, 1.0);
        assert_eq!(report.makespan, 3.0);
    }

    #[test]
    fn memory_timeline_tracks_allocations_and_peak() {
        let mut e = SimEngine::new(1);
        e.set_static_memory(0, 100);
        let f = e.add_task(Task::compute(0, 1.0, TaskKind::Forward).with_memory(50, 0));
        let _b = e.add_task(
            Task::compute(0, 1.0, TaskKind::Backward)
                .after(f, 0.0)
                .with_memory(0, -50),
        );
        let report = e.run().unwrap();
        let rank = &report.ranks[0];
        assert_eq!(rank.peak_memory, 150);
        assert_eq!(rank.memory_timeline.first().unwrap().1, 100);
        assert_eq!(rank.memory_timeline.last().unwrap().1, 100);
        assert_eq!(report.max_peak_memory(), 150);
    }

    #[test]
    fn rejects_invalid_ranks_and_unknown_dependencies() {
        let mut e = SimEngine::new(1);
        e.add_task(Task::compute(3, 1.0, TaskKind::Forward));
        assert!(matches!(e.run(), Err(EngineError::InvalidRank { .. })));

        let mut e = SimEngine::new(1);
        e.add_task(Task::compute(0, 1.0, TaskKind::Forward).after(TaskId(99), 0.0));
        assert!(matches!(
            e.run(),
            Err(EngineError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn detects_dependency_cycles() {
        // Task 0 on rank 0 depends on task 1, which (being later on the same
        // rank) implicitly depends on task 0.
        let mut e = SimEngine::new(1);
        e.add_task(Task::compute(0, 1.0, TaskKind::Forward).after(TaskId(1), 0.0));
        e.add_task(Task::compute(0, 1.0, TaskKind::Forward));
        assert_eq!(e.run(), Err(EngineError::DependencyCycle));
    }

    #[test]
    fn bubble_fraction_is_exact() {
        // 2 ranks, makespan 2.0, busy 2.0 + 1.0: bubble = (4 - 3) / 4.
        let mut e = SimEngine::new(2);
        let a = e.add_task(Task::compute(0, 2.0, TaskKind::Forward));
        let _b = e.add_task(Task::compute(1, 1.0, TaskKind::Forward).after(a, 0.0));
        let report = e.run().unwrap();
        assert_eq!(report.makespan, 3.0);
        assert_eq!(report.bubble_fraction(), (6.0 - 3.0) / 6.0);
        assert_eq!(report.ranks[0].bubble_s, 1.0);
        assert_eq!(report.ranks[1].bubble_s, 2.0);
    }

    /// Regression: a report whose busy time was over-accounted (busy >
    /// ranks × makespan) used to be silently clamped to a bubble fraction
    /// of 0.0; it must now trip the debug assertion instead of hiding the
    /// inconsistency.
    #[test]
    #[should_panic(expected = "over-accounted durations")]
    #[cfg(debug_assertions)]
    fn over_accounted_busy_time_is_detected() {
        let report = EngineReport {
            makespan: 1.0,
            ranks: vec![RankTimeline {
                rank: 0,
                busy_s: 1.5,
                ..RankTimeline::default()
            }],
            records: Vec::new(),
        };
        let _ = report.bubble_fraction();
    }

    /// Unlike the `debug_assert!` path above, the fallible accessor reports
    /// the inconsistency in **every** build profile — this test is what the
    /// release-mode CI step runs to keep the invariant checked where
    /// `debug_assert!` compiles away.
    #[test]
    fn over_accounted_busy_time_is_a_returned_error_in_release_too() {
        let report = EngineReport {
            makespan: 1.0,
            ranks: vec![RankTimeline {
                rank: 0,
                busy_s: 1.5,
                ..RankTimeline::default()
            }],
            records: Vec::new(),
        };
        let err = report.try_bubble_fraction().unwrap_err();
        assert!(matches!(err, EngineError::InconsistentReport { .. }));
        assert!(err.to_string().contains("over-accounted durations"));

        // A consistent report passes and matches the infallible accessor.
        let ok = EngineReport {
            makespan: 2.0,
            ranks: vec![RankTimeline {
                rank: 0,
                busy_s: 1.0,
                ..RankTimeline::default()
            }],
            records: Vec::new(),
        };
        assert_eq!(ok.try_bubble_fraction().unwrap(), 0.5);
        assert_eq!(ok.bubble_fraction(), 0.5);
    }

    #[test]
    fn empty_plan_is_valid() {
        let e = SimEngine::new(4);
        let report = e.run().unwrap();
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.ranks.len(), 4);
        assert_eq!(report.bubble_fraction(), 0.0);
    }

    #[test]
    fn labels_and_kinds_are_preserved() {
        let mut e = SimEngine::new(1);
        let id = e.add_task(Task::compute(0, 1.0, TaskKind::Optimizer).with_label("opt step"));
        assert_eq!(id, TaskId(0));
        assert_eq!(e.num_ranks(), 1);
    }
}
