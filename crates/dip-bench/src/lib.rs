//! Shared experiment harness for the DIP reproduction.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! This library holds the pieces they share: experiment scaling (quick runs
//! by default, `DIP_BENCH_SCALE=full` for paper-scale runs), workload
//! construction from the synthetic datasets, and running every training
//! system (Megatron-LM, nnScaler*, Optimus, FSDP and DIP) over the same
//! batches.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use dip_models::json;

use crate::json::JsonValue;
use dip_core::{BucketingConfig, DipPlan, DipPlanner, PlanRequest, PlannerConfig, PlanningSession};
use dip_data::{BatchGenerator, DatasetMix, ZipfSampler};
use dip_models::{BatchWorkload, LmmSpec, Modality, ModalityWorkload};
use dip_pipeline::baselines::{
    nnscaler_static_plan, simulate_megatron, simulate_nnscaler, simulate_optimus, BaselineContext,
};
use dip_pipeline::{
    dual_queue, execute, DualQueueConfig, ExecutorConfig, ParallelConfig, PassGraph,
    ScheduleWorkspace, StageGraph,
};
use dip_sim::{ClusterTopology, CostModel, CostSample, IterationMetrics};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Scaling of the experiments: `quick` finishes in seconds, `full`
/// approaches the paper's microbatch counts and search budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Microbatches per iteration.
    pub microbatches: usize,
    /// Iterations to average over.
    pub iterations: usize,
    /// Schedule-search budget in milliseconds.
    pub search_ms: u64,
    /// Parallel search workers.
    pub workers: usize,
}

impl ExperimentScale {
    /// Reads the scale from the `DIP_BENCH_SCALE` environment variable
    /// (`quick` by default, `full` for paper-scale runs). The worker count
    /// can be overridden independently with `DIP_BENCH_WORKERS`, which the
    /// CI smoke job uses to exercise the parallel planning path.
    pub fn from_env() -> Self {
        let mut scale = match Self::name_from_env() {
            "full" => Self {
                microbatches: 32,
                iterations: 10,
                search_ms: 2_000,
                workers: 8,
            },
            _ => Self {
                microbatches: 12,
                iterations: 3,
                search_ms: 300,
                workers: 4,
            },
        };
        if let Some(workers) = std::env::var("DIP_BENCH_WORKERS")
            .ok()
            .and_then(|w| w.parse::<usize>().ok())
        {
            scale.workers = workers.max(1);
        }
        scale
    }

    /// The canonical name of the scale selected by `DIP_BENCH_SCALE` —
    /// the single parser behind both [`ExperimentScale::from_env`] and
    /// [`BenchReport::from_env`], so the report's `scale` label can never
    /// drift from the scale the run actually used.
    pub fn name_from_env() -> &'static str {
        match std::env::var("DIP_BENCH_SCALE").as_deref() {
            Ok("full") => "full",
            _ => "quick",
        }
    }

    /// The planner configuration matching this scale.
    pub fn planner_config(&self) -> PlannerConfig {
        let mut config = PlannerConfig::default().with_num_threads(self.workers);
        config.search.time_budget = Duration::from_millis(self.search_ms);
        config
    }
}

/// A synthetic VLM microbatch with the given image count, packed to the
/// 8192-token context (images at 169 patch tokens each).
pub fn vlm_batch(images: u64) -> BatchWorkload {
    let images = images.min(48);
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(8192 - images * 169, 1),
        )
        .with(Modality::Image, ModalityWorkload::new(images * 169, images))
}

/// An in-bucket jitter of [`vlm_batch`]: the text-token count moves by up
/// to `dt` (clamped to the canonical bucket's remaining headroom under
/// `bucketing`), so the exact signature (under [`BucketingConfig::exact`])
/// changes while the signature under `bucketing` — and therefore the
/// fuzzy-cache bucket — stays put.
pub fn vlm_batch_jittered(images: u64, dt: u64, bucketing: &BucketingConfig) -> BatchWorkload {
    let base = vlm_batch(images);
    let text = base.get(Modality::Text);
    let width = bucketing.token_bucket.max(1);
    let headroom = width - 1 - (text.tokens % width);
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(text.tokens + dt.min(headroom), text.sequences),
        )
        .with(Modality::Image, base.get(Modality::Image))
}

/// The base per-microbatch image count of Zipf rank `rank`, microbatch `m`
/// — a deterministic spread over the 2..=48 packing range, distinct across
/// nearby ranks.
fn zipf_base_images(rank: usize, m: usize) -> u64 {
    ((rank * 7 + m * 3) % 47) as u64 + 2
}

/// A seeded Zipfian dynamic-traffic request stream (the fig8b `zipf.*`
/// section).
///
/// Ranks are drawn from [`ZipfSampler::new(hot, exponent)`](ZipfSampler);
/// each rank maps to a fixed base shape of `microbatches` microbatches, and
/// successive visits to a rank rotate through `variants` in-bucket jitter
/// variants of that base. Hot ranks therefore keep producing *fresh exact
/// signatures inside one canonical bucket* — the traffic pattern the fuzzy
/// tier targets — while revisits of a (rank, variant) pair repeat the exact
/// signature and hit the exact tier. The stream is a pure function of its
/// arguments: the same seed replays bit-identically.
pub fn zipf_request_stream(
    length: usize,
    hot: usize,
    variants: usize,
    microbatches: usize,
    exponent: f64,
    seed: u64,
    bucketing: &BucketingConfig,
) -> Vec<PlanRequest> {
    use rand::{rngs::StdRng, SeedableRng};
    let zipf = ZipfSampler::new(hot, exponent);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut visits = vec![0usize; hot];
    (0..length)
        .map(|_| {
            let rank = zipf.sample(&mut rng);
            let variant = visits[rank] % variants.max(1);
            visits[rank] += 1;
            let batches = (0..microbatches)
                .map(|m| {
                    vlm_batch_jittered(zipf_base_images(rank, m), (variant as u64) * 7, bucketing)
                })
                .collect();
            PlanRequest::new(batches)
        })
        .collect()
}

/// Draws `n` packed VLM microbatch workloads from the default dataset
/// mixture.
pub fn vlm_batches_from_datasets(n: usize, seed: u64) -> Vec<BatchWorkload> {
    let mut generator = BatchGenerator::vlm(DatasetMix::vlm_default(), n, seed);
    generator.next_batch().workloads()
}

/// Draws `n` packed T2V microbatch workloads from the default dataset
/// mixture.
pub fn t2v_batches_from_datasets(n: usize, seed: u64) -> Vec<BatchWorkload> {
    let mut generator = BatchGenerator::t2v(DatasetMix::t2v_default(), n, seed);
    generator.next_batch().workloads()
}

/// One row of a system-comparison experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemResult {
    /// System name ("Megatron-LM", "DIP", ...).
    pub system: String,
    /// Mean iteration metrics over the evaluated iterations.
    pub metrics: IterationMetrics,
}

/// Runs every applicable training system over the same microbatches and
/// returns one result per system (in the paper's Fig. 8a order).
pub fn run_all_systems(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    cluster: &ClusterTopology,
    batches: &[BatchWorkload],
    scale: &ExperimentScale,
) -> Vec<SystemResult> {
    let ctx = BaselineContext::new(spec, parallel, cluster);
    let mut results = Vec::new();

    if let Ok(outcome) = simulate_megatron(&ctx, batches, 1) {
        results.push(SystemResult {
            system: "Megatron-LM".into(),
            metrics: outcome.metrics,
        });
    }
    let representative = batches
        .iter()
        .max_by_key(|b| b.total_tokens())
        .cloned()
        .unwrap_or_default();
    let static_plan = nnscaler_static_plan(&ctx, &representative, 1);
    if let Ok(outcome) = simulate_nnscaler(&ctx, &static_plan, batches) {
        results.push(SystemResult {
            system: "nnScaler*".into(),
            metrics: outcome.metrics,
        });
    }
    if let Ok(outcome) = simulate_optimus(&ctx, batches) {
        results.push(SystemResult {
            system: "Optimus".into(),
            metrics: outcome.metrics,
        });
    }
    let session = PlanningSession::new(spec, parallel, cluster, scale.planner_config());
    if let Ok((_, outcome)) = session.plan_and_simulate(&PlanRequest::new(batches.to_vec())) {
        results.push(SystemResult {
            system: "DIP".into(),
            metrics: outcome.metrics,
        });
    }
    results
}

/// How the CI regression gate treats a metric when comparing a bench run
/// against the committed baseline (see the `bench_check` binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// A simulated time (or other simulated quantity where lower is
    /// better): the gate fails when the current value regresses more than
    /// the tolerance (15%) over the baseline. Improvements always pass.
    SimTime,
    /// A determinism witness (plan-identity flags, evaluation counts,
    /// cache hit totals): fixed-seed runs must reproduce the baseline
    /// **bit for bit on any machine** — the gate fails on any mismatch.
    Determinism,
    /// A ratio of two wall-clock latencies measured in the same run (e.g.
    /// fuzzy-tier p99 over cold-tier p50). Both sides are evaluation-quota
    /// bound, so the ratio is machine-independent to first order; the gate
    /// allows a generous 2× drift over the baseline before failing, and
    /// improvements always pass.
    LatencyRatio,
    /// Wall-clock timings and other machine-dependent observations:
    /// recorded for the artifact, never compared.
    Info,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::SimTime => "sim_time",
            MetricKind::Determinism => "determinism",
            MetricKind::LatencyRatio => "latency_ratio",
            MetricKind::Info => "info",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "sim_time" => Some(MetricKind::SimTime),
            "determinism" => Some(MetricKind::Determinism),
            "latency_ratio" => Some(MetricKind::LatencyRatio),
            "info" => Some(MetricKind::Info),
            _ => None,
        }
    }
}

/// One machine-readable measurement of a bench run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMetric {
    /// Dotted metric path, e.g. `scaling.w4.iteration_s`.
    pub name: String,
    /// How the CI gate compares the metric against the baseline.
    pub kind: MetricKind,
    /// Unit label (`s`, `ratio`, `count`, `bool`), for human readers of
    /// the artifact.
    pub unit: String,
    /// The measured value. Booleans are encoded as `0.0` / `1.0`.
    pub value: f64,
}

/// The machine-readable output of one bench binary run — the shared schema
/// every `fig*` binary emits under `DIP_BENCH_JSON` and the `bench_check`
/// gate consumes. Human tables keep printing to stdout; this is the file
/// CI diffs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// The bench binary's stable name (e.g. `fig12_scalability`).
    pub bench: String,
    /// The experiment scale the run used (`quick` or `full`) — reports are
    /// only comparable at equal scale.
    pub scale: String,
    /// The measurements, in emission order.
    pub metrics: Vec<BenchMetric>,
}

impl BenchReport {
    /// An empty report for `bench` at the scale selected by
    /// `DIP_BENCH_SCALE` (the same parser as [`ExperimentScale::from_env`]).
    pub fn from_env(bench: impl Into<String>) -> Self {
        Self {
            bench: bench.into(),
            scale: ExperimentScale::name_from_env().into(),
            metrics: Vec::new(),
        }
    }

    /// Appends a measurement.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        kind: MetricKind,
        unit: impl Into<String>,
        value: f64,
    ) {
        self.metrics.push(BenchMetric {
            name: name.into(),
            kind,
            unit: unit.into(),
            value,
        });
    }

    /// Appends a boolean determinism witness (encoded 0/1).
    pub fn push_flag(&mut self, name: impl Into<String>, value: bool) {
        self.push(name, MetricKind::Determinism, "bool", f64::from(value));
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serialises the report as JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// The report as a [`JsonValue`] (used by `bench_check` to assemble
    /// baseline arrays).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("bench".into(), JsonValue::String(self.bench.clone())),
            ("scale".into(), JsonValue::String(self.scale.clone())),
            (
                "metrics".into(),
                JsonValue::Array(
                    self.metrics
                        .iter()
                        .map(|m| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::String(m.name.clone())),
                                ("kind".into(), JsonValue::String(m.kind.as_str().into())),
                                ("unit".into(), JsonValue::String(m.unit.clone())),
                                ("value".into(), JsonValue::Number(m.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialises one report from a [`JsonValue`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let bench = value
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field 'bench'")?
            .to_string();
        let scale = value
            .get("scale")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field 'scale'")?
            .to_string();
        let metrics = value
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field 'metrics'")?
            .iter()
            .map(|m| -> Result<BenchMetric, String> {
                Ok(BenchMetric {
                    name: m
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("metric missing 'name'")?
                        .to_string(),
                    kind: m
                        .get("kind")
                        .and_then(JsonValue::as_str)
                        .and_then(MetricKind::from_str)
                        .ok_or("metric missing a valid 'kind'")?,
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or("metric missing numeric 'value'")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            bench,
            scale,
            metrics,
        })
    }

    /// Parses one report from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse or schema failure.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json_value(&value)
    }

    /// Writes the report to the path named by the `DIP_BENCH_JSON`
    /// environment variable, if set — the machine-readable side channel of
    /// every bench binary. A missing variable is a no-op (human tables
    /// only); a set-but-unwritable path is a hard error so CI never
    /// silently skips the gate's input.
    pub fn write_if_requested(&self) {
        if let Ok(path) = std::env::var("DIP_BENCH_JSON") {
            if path.is_empty() {
                return;
            }
            std::fs::write(&path, self.to_json())
                .unwrap_or_else(|e| panic!("DIP_BENCH_JSON: cannot write {path}: {e}"));
            println!(
                "[bench-json] wrote {} metrics to {path}",
                self.metrics.len()
            );
        }
    }
}

/// The differential oracle the bench gate checks on served plans: replays
/// `plan`'s graph and orders on the discrete-event engine without the
/// optimizer step, on `planner`'s topology and timing model, and returns
/// whether the engine's iteration time equals the plan's planned time (the
/// interleaver's makespan) bit for bit. An engine error is a mismatch.
pub fn interleaver_equals_engine(planner: &DipPlanner<'_>, plan: &DipPlan) -> bool {
    let config = ExecutorConfig {
        include_optimizer: false,
        ..ExecutorConfig::new(plan.placement.parallel)
    };
    execute(
        &plan.graph,
        &plan.orders,
        planner.topology(),
        planner.timing(),
        &config,
    )
    .is_ok_and(|outcome| {
        outcome.metrics.iteration_time_s.to_bits() == plan.stats.planned_time_s.to_bits()
    })
}

/// Measures the wall time of one ordering evaluation on `graph` and fits a
/// [`CostModel`] from the samples: the calibration hook that aligns the
/// ordering search's virtual clock
/// ([`dip_core::OrderingSearchConfig::eval_cost`]) with the machine it
/// runs on, as the simulator's efficiency factors are aligned with
/// measured kernels (§6.1 / Fig. 13).
///
/// It times the steady-state kernel a search stream runs: one packed
/// [`PassGraph`] and one warmed-up [`ScheduleWorkspace`] reused for
/// `evaluations` full interleave passes under the identity ordering
/// (segment `i` at priority `n − i`), through
/// [`dual_queue::schedule_bounded`] with no cutoff: no memo, no replayed
/// prefix and no per-call pack. The first, allocating pass is left out of
/// the samples. A search's quota charges a memo hit or a resumed pass the
/// price of a full pass, so the model prices full passes.
///
/// This is an **offline** utility: its output varies with the machine.
/// Feed the fitted model into the search config *before* planning and the
/// planning itself stays deterministic (the model only scales the quota;
/// for reproducible plans across a fleet, distribute one fitted model to
/// every machine). Returns `None` when `evaluations == 0` or the
/// measurements are degenerate.
///
/// All samples share one problem size (this graph's item count), so the
/// fit goes **through the origin**, on the samples' median
/// ([`fit_pass_cost`]): the median pass becomes a per-item rate that
/// extrapolates proportionally to other graph sizes. To recover the fixed
/// overhead too, time graphs of several sizes and hand the pooled samples
/// to [`CostModel::fit`].
pub fn calibrate_eval_cost(
    graph: &StageGraph,
    num_segments: usize,
    base: &DualQueueConfig,
    evaluations: u32,
) -> Option<CostModel> {
    let view = PassGraph::new(graph);
    let mut ws = ScheduleWorkspace::new();
    let config = DualQueueConfig {
        segment_priorities: (0..num_segments)
            .map(|i| (num_segments - i) as i64)
            .collect(),
        ..base.clone()
    };
    let mut pass = || {
        dual_queue::schedule_bounded(&view, &config, &mut ws, f64::INFINITY)
            .expect("an infinite cutoff never aborts")
    };
    if evaluations > 0 {
        pass();
    }
    let seconds: Vec<f64> = (0..evaluations)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .collect();
    fit_pass_cost(graph.len() as u64, &seconds)
}

/// Fits a per-pass cost model through the origin from wall-clock samples
/// of single passes over one graph of `units` items, on their **median**.
/// A least-squares fit through the origin at one size is the samples'
/// mean, which one preempted pass can double; the median ignores it.
/// Returns `None` without samples, for `units == 0`, or when the median
/// is not positive.
pub fn fit_pass_cost(units: u64, seconds: &[f64]) -> Option<CostModel> {
    let mut sorted = seconds.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    CostModel::fit_through_origin(&[CostSample {
        units,
        seconds: median,
    }])
}

/// Prints a GitHub-flavoured markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Formats seconds with three decimals.
pub fn fmt_s(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio with three decimals.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::zoo;
    use dip_pipeline::{separated_placement, StageGraphBuilder, SubMicrobatchPlan};
    use std::collections::BTreeMap;

    #[test]
    fn scale_defaults_to_quick() {
        let s = ExperimentScale::from_env();
        assert!(s.microbatches >= 4);
        assert!(s.search_ms >= 100);
    }

    #[test]
    fn vlm_batch_respects_context_length() {
        let b = vlm_batch(48);
        assert_eq!(b.total_tokens(), 8192);
        let capped = vlm_batch(200);
        assert!(capped.get(Modality::Image).sequences <= 48);
    }

    #[test]
    fn dataset_batches_are_produced() {
        assert_eq!(vlm_batches_from_datasets(4, 1).len(), 4);
        assert_eq!(t2v_batches_from_datasets(4, 1).len(), 4);
    }

    #[test]
    fn bench_reports_roundtrip_through_json() {
        let mut report = BenchReport {
            bench: "fig12_scalability".into(),
            scale: "quick".into(),
            metrics: Vec::new(),
        };
        report.push(
            "scaling.w4.iteration_s",
            MetricKind::SimTime,
            "s",
            0.1 + 0.2,
        );
        report.push(
            "scaling.w4.evaluations",
            MetricKind::Determinism,
            "count",
            2048.0,
        );
        report.push("scaling.w4.wall_s", MetricKind::Info, "s", 1.5);
        report.push_flag("scaling.cross_worker_identical", true);

        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("roundtrip parses");
        assert_eq!(parsed, report);
        // Bit-exact value survival is what the determinism gate relies on.
        assert_eq!(
            parsed
                .metric("scaling.w4.iteration_s")
                .unwrap()
                .value
                .to_bits(),
            (0.1 + 0.2f64).to_bits()
        );
        assert_eq!(
            parsed
                .metric("scaling.cross_worker_identical")
                .unwrap()
                .value,
            1.0
        );
        assert!(parsed.metric("missing").is_none());

        // Schema errors are reported, not panicked.
        assert!(BenchReport::from_json("{\"bench\": 3}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn calibrate_eval_cost_fits_a_usable_model() {
        let spec = zoo::vlm_s();
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 2usize);
        let placement = separated_placement(&spec, ParallelConfig::new(4, 4, 1), &k);
        let cluster = ClusterTopology::h800_cluster(2);
        let batches = vec![vlm_batch(10); 2];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = StageGraphBuilder::new_on(&spec, &placement, &cluster)
            .build(&batches, &plan)
            .unwrap();
        let n = placement.segments.len();
        let base = DualQueueConfig::default();
        assert!(calibrate_eval_cost(&graph, n, &base, 0).is_none());
        let model =
            calibrate_eval_cost(&graph, n, &base, 8).expect("calibration succeeds on a real graph");
        assert!(model.seconds(graph.len() as u64) > 0.0);
        // The fitted model converts budgets into finite quotas.
        let quota = model.quota(Duration::from_millis(100), graph.len() as u64);
        assert!(quota > 0 && quota < u64::MAX);
    }

    #[test]
    fn one_outlier_pass_leaves_the_fit_within_five_percent() {
        let units = 256;
        let mut seconds = vec![10e-6; 31];
        seconds.push(300e-6);
        let fit = fit_pass_cost(units, &seconds).expect("positive samples fit");
        let clean = 10e-6 / units as f64;
        assert_eq!(fit.base_s, 0.0);
        assert!(
            (fit.per_unit_s / clean - 1.0).abs() <= 0.05,
            "fit {} against {clean}",
            fit.per_unit_s
        );
        // The mean of the same samples, which a least-squares fit through
        // the origin returns, is 1.9 times the clean pass.
        let samples: Vec<CostSample> = seconds
            .iter()
            .map(|&seconds| CostSample { units, seconds })
            .collect();
        let mean = CostModel::fit_through_origin(&samples).unwrap();
        assert!(mean.per_unit_s > 1.8 * clean);
        assert!(fit_pass_cost(units, &[]).is_none());
        assert!(fit_pass_cost(0, &seconds).is_none());
    }

    #[test]
    fn run_all_systems_covers_the_four_vlm_systems() {
        let spec = zoo::vlm_s();
        let cluster = ClusterTopology::h800_cluster(2);
        let scale = ExperimentScale {
            microbatches: 4,
            iterations: 1,
            search_ms: 100,
            workers: 2,
        };
        let batches: Vec<_> = [8u64, 30, 2, 40].iter().map(|&i| vlm_batch(i)).collect();
        let results = run_all_systems(
            &spec,
            ParallelConfig::new(4, 4, 1),
            &cluster,
            &batches,
            &scale,
        );
        let names: Vec<&str> = results.iter().map(|r| r.system.as_str()).collect();
        assert_eq!(names, vec!["Megatron-LM", "nnScaler*", "Optimus", "DIP"]);
        for r in &results {
            assert!(r.metrics.iteration_time_s > 0.0);
        }
    }
}
