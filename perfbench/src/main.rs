//! Planner benchmark: per-request planning latency, simulated throughput and
//! per-layer costs of the DIP planner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_vlm|zipf_tiered|elastic_t2v> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The load is a closed loop: one client (the training loop's prefetcher)
//! with one request outstanding, planned on one planning thread. A run is
//! as many *rounds* as fit in `--seconds` (at least two). Every round sets
//! the system up afresh and replays the same seeded requests, so
//! per-request digests and work counters must repeat exactly across rounds,
//! and each request's latency is its fastest repeat. Every wall time behind
//! an end-to-end metric is first scaled to a reference machine speed by a
//! reference kernel timed next to it (see [`speed`]). `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced rounds,
//! reports the per-layer metrics from the traced ones, and writes the spans
//! to `perfbench/traces/<workload>-seed<n>.json`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A wrong output prints
//! `"correct": false` and exits with code 1.

mod cold;
mod common;
mod elastic;
mod env;
mod speed;
mod stats;
mod trace;
mod zipf;

use common::Round;
use dip_core::PlanTier;
use dip_models::json::JsonValue;
use speed::Timing;
use stats::{median, tail};
use std::collections::HashMap;
use std::process::ExitCode;
use trace::Tracer;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// Rounds every run makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdVlm,
    ZipfTiered,
    ElasticT2v,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_vlm" => Some(Self::ColdVlm),
            "zipf_tiered" => Some(Self::ZipfTiered),
            "elastic_t2v" => Some(Self::ElasticT2v),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ColdVlm => "cold_vlm",
            Self::ZipfTiered => "zipf_tiered",
            Self::ElasticT2v => "elastic_t2v",
        }
    }

    /// Requests (failure schedules for `elastic_t2v`) per round. A round
    /// takes 4 to 13 s on a 2-vCPU x86 VM. `elastic_t2v` draws many short
    /// schedules so that which faults the seed draws moves its averages by
    /// a few percent at most.
    fn per_round(self) -> usize {
        match self {
            Self::ColdVlm => 64,
            Self::ZipfTiered => 8000,
            Self::ElasticT2v => 900,
        }
    }

    fn parameters(self) -> String {
        match self {
            Self::ColdVlm => format!(
                "VLM-S, 2x8 H800, tp4 pp4 dp1, {} microbatches/request, SessionConfig::cold(), \
                 dataset-drawn distinct requests (BatchGenerator::vlm)",
                cold::MICROBATCHES
            ),
            Self::ZipfTiered => format!(
                "VLM-S, 2x8 H800, tp4 pp4 dp1, {} microbatches/request, SessionConfig::fuzzy(), \
                 zipf_request_stream(hot {}, variants {}, exponent {}), one cold anchor per bucket",
                zipf::MICROBATCHES,
                zipf::HOT,
                zipf::VARIANTS,
                zipf::EXPONENT
            ),
            Self::ElasticT2v => format!(
                "T2V-S, mixed H800+H20 (2+1 nodes), tp4 pp4 dp1, {} microbatches/request, \
                 FailureSchedule::seeded({} iterations, {} events) per schedule from the base \
                 topology, {} pooled batches, ElasticConfig::default()",
                elastic::MICROBATCHES,
                elastic::SCHEDULE_ITERATIONS,
                elastic::SCHEDULE_EVENTS,
                elastic::POOL
            ),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or("--workload must be cold_vlm, zipf_tiered or elastic_t2v")?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a whole number")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let environment = env::Environment::capture();
    let per_round = args.workload.per_round();

    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut next_id = 0u64;
    let workload = args.workload;
    let run_round = |tracer: &mut Tracer, next_id: &mut u64| -> Round {
        // Inputs are regenerated per round from the seed: the generators
        // are pure functions of it, and no round sees another's state.
        match workload {
            Workload::ColdVlm => cold::ColdVlm::new(args.seed, per_round).round(tracer, next_id),
            Workload::ZipfTiered => {
                zipf::ZipfTiered::new(args.seed, per_round).round(tracer, next_id)
            }
            Workload::ElasticT2v => {
                elastic::ElasticT2v::new(args.seed, per_round).round(tracer, next_id)
            }
        }
    };
    // Rounds run until the next one would overrun `--seconds`, and at
    // least twice, so that every request is measured more than once.
    let mut all: Vec<Round> = Vec::new();
    let run_start = std::time::Instant::now();
    loop {
        let tracer = if args.trace && all.len() % 2 == 1 {
            &mut tracer
        } else {
            &mut untraced
        };
        let setup_kernel_ms = tracer.probe();
        let mut round = run_round(tracer, &mut next_id);
        round.setup_kernel_ms = setup_kernel_ms;
        all.push(round);
        let elapsed = run_start.elapsed().as_secs_f64();
        let next_done = elapsed * (all.len() + 1) as f64 / all.len() as f64;
        if all.len() >= MIN_ROUNDS && next_done > args.seconds as f64 {
            break;
        }
    }
    let rounds = all.len();
    let run_wall_s = run_start.elapsed().as_secs_f64();
    let peak_rss_mb = env::peak_rss_mb();
    let kernel: Vec<f64> = all
        .iter()
        .flat_map(|r| r.served.iter().map(|s| s.timing.kernel_ms))
        .collect();
    let environment = environment.finish(median(&kernel));

    let mut failures: Vec<String> = all.iter().flat_map(|r| r.failures.clone()).collect();
    check_rounds_agree(&all, &mut failures);
    check_tier_counts(&all, &mut failures);

    let untraced_rounds: Vec<&Round> = all.iter().filter(|r| !r.traced).collect();
    let traced_rounds: Vec<&Round> = all.iter().filter(|r| r.traced).collect();
    let first = &all[0];
    let attempted: u64 = all.iter().map(|r| r.served.len() as u64).sum();
    let failed: u64 = all
        .iter()
        .flat_map(|r| &r.served)
        .filter(|s| s.sim_s.is_none())
        .count() as u64;

    println!(
        "perfbench workload={} seed={} seconds={} trace={} rounds={} requests/round={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rounds,
        first.served.len()
    );
    println!("parameters: {}", workload.parameters());
    println!(
        "wall: {run_wall_s:.2} s for {rounds} rounds ({:.2} s per round)",
        run_wall_s / rounds as f64
    );
    println!("environment: {}", environment.describe());

    let wall = request_latencies(&untraced_rounds, |t| t.wall_s);
    println!(
        "times are scaled by {} ms / the kernel pass time next to them (see speed.rs); \
         unscaled: p50 {:.3} ms, plans/s {:.3}",
        speed::REFERENCE_PASS_MS,
        median(&wall) * 1e3,
        wall.len() as f64 / wall.iter().sum::<f64>()
    );
    let latencies = request_latencies(&untraced_rounds, Timing::scaled_s);
    let (tail_pct, tail_s) = tail(&latencies, TAIL_BEYOND).unwrap_or((100.0, f64::NAN));
    let p50_s = median(&latencies);
    let sims: Vec<f64> = first.served.iter().filter_map(|s| s.sim_s).collect();
    let mean_sim_s = sims.iter().sum::<f64>() / sims.len().max(1) as f64;
    let tokens: u64 = first
        .served
        .iter()
        .filter(|s| s.sim_s.is_some())
        .map(|s| s.tokens)
        .sum();
    let hide_ratio = tail_s / mean_sim_s;
    println!(
        "plan_tail_ms is p{tail_pct:.2} of {} distinct requests ({TAIL_BEYOND} beyond it); \
         each request's latency is its minimum over {} untraced rounds",
        latencies.len(),
        untraced_rounds.len()
    );
    let tiers = tier_shares(first);
    println!(
        "tier mix per round: exact {:.1}% fuzzy {:.1}% cold {:.1}% elastic {:.1}%",
        tiers[0], tiers[1], tiers[2], tiers[3]
    );
    let digests: Vec<u64> = first.served.iter().map(|s| s.digest).collect();
    println!(
        "plan digest {:016x} (per-request tier, planned time and simulated time; \
         a run with the same seed must print the same)",
        stats::fold(&digests)
    );
    if !args.trace {
        if hide_ratio >= 1.0 {
            failures.push(format!(
                "hide_ratio {hide_ratio:.3} >= 1: planning does not hide behind training"
            ));
        }
        check_tier_boundaries(&tiers, tail_pct, &mut failures);
    }

    let metrics: Vec<Metric> = if args.trace {
        per_layer_metrics(first, &untraced_rounds, &traced_rounds, &tracer)
    } else {
        let setups: Vec<f64> = untraced_rounds
            .iter()
            .flat_map(|r| r.scaled_setups())
            .collect();
        vec![
            metric("setup_s", median(&setups), "s"),
            metric(
                "plans_per_s",
                latencies.len() as f64 / latencies.iter().sum::<f64>(),
                "1/s",
            ),
            metric("plan_p50_ms", p50_s * 1e3, "ms"),
            metric("plan_tail_ms", tail_s * 1e3, "ms"),
            metric("hide_ratio", hide_ratio, "ratio"),
            metric(
                "sim_tokens_per_s",
                tokens as f64 / sims.iter().sum::<f64>(),
                "tokens/s",
            ),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    for (name, value) in &first.counters {
        println!("counter {name} = {value} per round");
    }
    println!(
        "error_rate = {:.6} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        match write_trace(&args, &environment, &tracer, &all) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => failures.push(format!("writing the trace failed: {e}")),
        }
    }
    for failure in failures.iter().take(20) {
        println!("CHECK FAILED: {failure}");
    }
    let correct = failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The latency of each request, as `time` reads its timing: the minimum
/// over the rounds, which all replay the same requests (min-of-k). On a
/// shared machine the noise only ever adds time, so the fastest repeat is
/// the steadiest estimate of what the planner itself costs; a request
/// that is slow in every repeat stays slow.
fn request_latencies(rounds: &[&Round], time: impl Fn(&Timing) -> f64) -> Vec<f64> {
    let n = rounds.iter().map(|r| r.served.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            rounds
                .iter()
                .map(|r| time(&r.served[i].timing))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Every round replays the same inputs: per-request digests and work
/// counters must repeat exactly, traced or not.
fn check_rounds_agree(rounds: &[Round], failures: &mut Vec<String>) {
    let first = &rounds[0];
    let digests: Vec<u64> = first.served.iter().map(|s| s.digest).collect();
    for (i, round) in rounds.iter().enumerate().skip(1) {
        let other: Vec<u64> = round.served.iter().map(|s| s.digest).collect();
        if other != digests {
            failures.push(format!(
                "round {i} ({}) served different plans than round 0 (digest {:016x} vs {:016x})",
                if round.traced { "traced" } else { "untraced" },
                stats::fold(&other),
                stats::fold(&digests)
            ));
        }
        if round.counters != first.counters {
            failures.push(format!(
                "round {i} work counters differ from round 0: {:?} vs {:?}",
                round.counters, first.counters
            ));
        }
    }
}

/// Session tier counts partition the requests and match the served tiers.
fn check_tier_counts(rounds: &[Round], failures: &mut Vec<String>) {
    for (i, round) in rounds.iter().enumerate() {
        let Some(&requests) = round.counters.get("session.requests") else {
            continue;
        };
        let get = |k: &str| round.counters.get(k).copied().unwrap_or(0);
        let (exact, fuzzy, cold) = (
            get("session.exact_hits"),
            get("session.fuzzy_hits"),
            get("session.cold_plans"),
        );
        if exact + fuzzy + cold != requests || requests != round.served.len() as u64 {
            failures.push(format!(
                "round {i}: exact {exact} + fuzzy {fuzzy} + cold {cold} != requests {requests} \
                 (served {})",
                round.served.len()
            ));
        }
        let served = |tier: PlanTier| round.served.iter().filter(|s| s.tier == tier).count() as u64;
        if served(PlanTier::Exact) != exact || served(PlanTier::Fuzzy) != fuzzy {
            failures.push(format!(
                "round {i}: served tiers disagree with the session's tier counters"
            ));
        }
    }
}

/// Percent of a round's requests per tier: exact, fuzzy, cold, elastic.
fn tier_shares(round: &Round) -> [f64; 4] {
    let n = round.served.len().max(1) as f64;
    let share =
        |tier: PlanTier| 100.0 * round.served.iter().filter(|s| s.tier == tier).count() as f64 / n;
    [
        share(PlanTier::Exact),
        share(PlanTier::Fuzzy),
        share(PlanTier::Cold),
        share(PlanTier::Elastic),
    ]
}

/// With several tiers in the mix, sorted latencies run exact → fuzzy →
/// cold; the p50 and the tail percentile must each sit at least 10
/// percentile points from every boundary between tiers, so that tier-mix
/// jitter cannot flip them.
fn check_tier_boundaries(shares: &[f64; 4], tail_pct: f64, failures: &mut Vec<String>) {
    let mut boundary = 0.0;
    for share in &shares[..3] {
        boundary += share;
        if *share == 0.0 || boundary <= 0.0 || boundary >= 100.0 - 1e-9 {
            continue;
        }
        for (name, pct) in [("p50", 50.0), ("tail", tail_pct)] {
            if (pct - boundary).abs() < 10.0 {
                failures.push(format!(
                    "{name} (p{pct:.1}) sits within 10 points of a tier boundary at {boundary:.1}%"
                ));
            }
        }
    }
}

/// `(request, duration ns)` of every call to `name` whose request was
/// served by one of `want`.
fn calls(
    tracer: &Tracer,
    name: &str,
    tiers: &HashMap<u64, PlanTier>,
    want: &[PlanTier],
) -> Vec<(u64, u64)> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && tiers.get(&s.request).is_some_and(|t| want.contains(t)))
        .map(|s| (s.request, s.duration_ns()))
        .collect()
}

fn per_layer_metrics(
    first: &Round,
    untraced: &[&Round],
    traced: &[&Round],
    tracer: &Tracer,
) -> Vec<Metric> {
    let mut tiers = HashMap::new();
    let mut items = HashMap::new();
    for s in traced.iter().flat_map(|r| &r.served) {
        tiers.insert(s.id, s.tier);
        items.insert(s.id, s.items);
    }
    let all_tiers = [
        PlanTier::Exact,
        PlanTier::Fuzzy,
        PlanTier::Cold,
        PlanTier::Elastic,
    ];
    let times = |name: &str, want: &[PlanTier]| calls(tracer, name, &tiers, want);
    // Median per call, scaled from ns; 0 when the layer never ran.
    let med = |calls: &[(u64, u64)], scale: f64| {
        if calls.is_empty() {
            0.0
        } else {
            median(&calls.iter().map(|&(_, ns)| ns as f64).collect::<Vec<_>>()) * scale
        }
    };
    let per_item = |calls: &[(u64, u64)]| {
        let ratios: Vec<f64> = calls
            .iter()
            .filter(|(id, _)| items.get(id).copied().unwrap_or(0) > 0)
            .map(|&(id, ns)| ns as f64 / items[&id] as f64)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            median(&ratios)
        }
    };
    let counter = |k: &str| first.counters.get(k).copied().unwrap_or(0) as f64;

    let search_cold = times("ordering.search_ordering", &[PlanTier::Cold]);
    let search_delta = times("ordering.search_ordering", &[PlanTier::Fuzzy]);
    let search_ns_per_round: f64 = search_cold
        .iter()
        .chain(&search_delta)
        .map(|&(_, ns)| ns as f64)
        .sum::<f64>()
        / traced.len().max(1) as f64;
    let evaluations = counter("ordering.evaluations");
    let evals_per_s = if search_ns_per_round > 0.0 {
        evaluations / (search_ns_per_round * 1e-9)
    } else {
        0.0
    };
    let build = times("graph.build_prepared", &all_tiers);
    let pass = times("dual_queue.schedule_into", &all_tiers);
    let requests = counter("session.requests");
    let hits = counter("session.exact_hits") + counter("session.fuzzy_hits");

    let mean_latency = |rounds: &[&Round]| {
        let lat: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.served.iter().map(|s| s.timing.scaled_s()))
            .collect();
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    };
    let offline: Vec<f64> = untraced
        .iter()
        .chain(traced)
        .flat_map(|r| r.offline_ms.iter().copied())
        .collect();

    vec![
        metric(
            "session.exact_hit_us_p50",
            med(&times("session.plan", &[PlanTier::Exact]), 1e-3),
            "us",
        ),
        metric(
            "session.fuzzy_ms_p50",
            med(&times("session.plan", &[PlanTier::Fuzzy]), 1e-6),
            "ms",
        ),
        metric(
            "session.cold_ms_p50",
            med(&times("session.plan", &[PlanTier::Cold]), 1e-6),
            "ms",
        ),
        metric("session.exact_hits", counter("session.exact_hits"), "count"),
        metric("session.fuzzy_hits", counter("session.fuzzy_hits"), "count"),
        metric("session.cold_plans", counter("session.cold_plans"), "count"),
        metric(
            "session.hit_ratio",
            if requests > 0.0 { hits / requests } else { 0.0 },
            "ratio",
        ),
        metric("ordering.search_ms", med(&search_cold, 1e-6), "ms"),
        metric("ordering.delta_ms", med(&search_delta, 1e-6), "ms"),
        metric("ordering.evaluations", evaluations, "count"),
        metric("ordering.evals_per_s", evals_per_s, "1/s"),
        metric("dual_queue.pass_us", med(&pass, 1e-3), "us"),
        metric("dual_queue.ns_per_item", per_item(&pass), "ns"),
        metric(
            "memopt.solve_ms",
            med(&times("memopt.optimize_memory_detailed", &all_tiers), 1e-6),
            "ms",
        ),
        metric(
            "graph.prepare_ms",
            med(&times("graph.prepare", &all_tiers), 1e-6),
            "ms",
        ),
        metric("graph.build_ms", med(&build, 1e-6), "ms"),
        metric("graph.ns_per_item", per_item(&build), "ns"),
        metric(
            "graph.reprice_us",
            med(&times("graph.reprice", &all_tiers), 1e-3),
            "us",
        ),
        metric("graph.items", counter("graph.items"), "count"),
        metric("graph.edges", counter("graph.edges"), "count"),
        metric("partitioner.offline_ms", median(&offline), "ms"),
        metric(
            "partitioner.sub_plan_us",
            med(&times("partitioner.sub_microbatch_plan", &all_tiers), 1e-3),
            "us",
        ),
        metric(
            "partitioner.sub_microbatches",
            counter("partitioner.sub_microbatches"),
            "count",
        ),
        metric(
            "elastic.replan_ms",
            med(&times("elastic.replan_elastic", &all_tiers), 1e-6),
            "ms",
        ),
        metric(
            "elastic.planner_new_us",
            med(&times("elastic.on_topology", &all_tiers), 1e-3),
            "us",
        ),
        metric("elastic.candidates", counter("elastic.candidates"), "count"),
        metric(
            "elastic.migration_bytes",
            counter("elastic.migration_bytes"),
            "bytes",
        ),
        metric(
            "trace.overhead_frac",
            mean_latency(traced) / mean_latency(untraced) - 1.0,
            "ratio",
        ),
    ]
}

/// Writes the spans, their per-name self-time summary and the run's
/// environment to `perfbench/traces/<workload>-seed<n>.json`.
fn write_trace(
    args: &Args,
    environment: &env::Environment,
    tracer: &Tracer,
    rounds: &[Round],
) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let summary = trace::summarize(tracer.spans())
        .into_iter()
        .map(|(name, (calls, total, self_ns))| {
            (
                name,
                JsonValue::Object(vec![
                    ("calls".into(), JsonValue::Number(calls as f64)),
                    ("total_ns".into(), JsonValue::Number(total as f64)),
                    ("self_ns".into(), JsonValue::Number(self_ns as f64)),
                ]),
            )
        })
        .collect();
    let counters = rounds[0]
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), JsonValue::Number(*v as f64)))
        .collect();
    let doc = JsonValue::Object(vec![
        (
            "workload".into(),
            JsonValue::String(args.workload.name().into()),
        ),
        ("seed".into(), JsonValue::Number(args.seed as f64)),
        ("seconds".into(), JsonValue::Number(args.seconds as f64)),
        (
            "parameters".into(),
            JsonValue::String(args.workload.parameters()),
        ),
        ("environment".into(), environment.to_json()),
        ("counters_per_round".into(), JsonValue::Object(counters)),
        ("self_time_by_span".into(), JsonValue::Object(summary)),
        ("spans".into(), trace::spans_to_json(tracer.spans())),
    ]);
    let text = doc.to_json();
    std::fs::write(&path, &text)?;
    // The written spans must read back exactly.
    let reread = dip_models::json::parse(&std::fs::read_to_string(&path)?)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let spans = reread
        .get("spans")
        .ok_or("no spans")
        .and_then(|v| trace::spans_from_json(v).map_err(|_| "unreadable spans"))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    if spans != tracer.spans() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "spans do not round-trip through JSON",
        ));
    }
    Ok(path.display().to_string())
}

/// The one-line JSON result.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                JsonValue::Object(vec![
                    ("value".into(), JsonValue::Number(m.value)),
                    ("unit".into(), JsonValue::String(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Number(attempted as f64)),
        ("failed".into(), JsonValue::Number(failed as f64)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ]);
    compact(&line.to_json())
}

/// Collapses `JsonValue::to_json`'s pretty print onto one line. Strings
/// never hold a raw newline (the writer escapes them), so dropping each
/// newline and the indent after it is lossless.
fn compact(pretty: &str) -> String {
    pretty
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_parseable_line() {
        let line = result_line(
            true,
            12,
            0,
            &[
                metric("plan_p50_ms", 81.25, "ms"),
                metric("setup_s", 0.5, "s"),
            ],
        );
        assert!(!line.contains('\n'));
        let value = dip_models::json::parse(&line).unwrap();
        assert_eq!(
            value.get("attempted").and_then(JsonValue::as_f64),
            Some(12.0)
        );
        let p50 = value
            .get("metrics")
            .and_then(|m| m.get("plan_p50_ms"))
            .unwrap();
        assert_eq!(p50.get("value").and_then(JsonValue::as_f64), Some(81.25));
        assert_eq!(p50.get("unit").and_then(JsonValue::as_str), Some("ms"));
    }

    #[test]
    fn tier_boundaries_flag_percentiles_near_a_tier_switch() {
        let mut failures = Vec::new();
        check_tier_boundaries(&[70.0, 30.0, 0.0, 0.0], 99.0, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        check_tier_boundaries(&[45.0, 55.0, 0.0, 0.0], 99.0, &mut failures);
        assert_eq!(failures.len(), 1);
        failures.clear();
        check_tier_boundaries(&[0.0, 0.0, 100.0, 0.0], 91.0, &mut failures);
        assert!(failures.is_empty());
    }
}
