//! The closed-loop serve workloads, `paper-rhc` and `sparse-1k`: the
//! harness owns the demand source and calls `CellCore::start`, `step`
//! and `finish` itself, starting each slot when the previous one has
//! committed.

use crate::layers;
use crate::probe::{self, HarnessSink, Probe, SinkLog, TimedPolicy, TimedSource};
use crate::report::{median, peak_rss_mib, percentile, Report, MIN_BEYOND};
use crate::Args;
use jocal_core::primal_dual::PrimalDualOptions;
use jocal_core::{CacheState, CostBreakdown, CostModel, Parallelism};
use jocal_online::policy::OnlinePolicy;
use jocal_online::rhc::RhcPolicy;
use jocal_serve::cell::CellCore;
use jocal_serve::engine::ServeConfig;
use jocal_serve::source::{DemandSource, SyntheticSource};
use jocal_sim::popularity::ZipfMandelbrot;
use jocal_sim::predictor::NoiseModel;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::stream::StreamingDemand;
use jocal_telemetry::{Telemetry, Tracer};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A workload's topology and its stream of per-slot demand intensities
/// (jitter and sparsity mask included) are its shape, drawn from this
/// fixed seed. `--seed` draws what varies between runs of one shape:
/// the prediction noise and the realized requests. Seeding the demand
/// stream too made the 100-slot figures of sparse-1k swing by 20%
/// between seeds.
pub const SHAPE_SEED: u64 = 7;
/// Planning horizon `T`: far beyond any run, so no decision sees the
/// end of the stream.
const HORIZON: usize = 1_000_000;
/// `cost_per_slot` and `hit_ratio` cover exactly this prefix of slots,
/// so they are deterministic for a seed however fast the host runs.
const DETERMINISTIC_SLOTS: usize = 100;
/// A run serves at least this many slots even past its time budget:
/// the deterministic prefix, and the 100 samples `slot_p90_ms` needs.
const MIN_SLOTS: usize = 100;
/// `e2e_tail_ms` is the highest percentile a run's slots support with
/// ten beyond it: a run serves 100 to 250 slots, so p90.
const E2E_TAIL: f64 = 0.9;
/// Slots re-served in a fresh cell to check the run is reproducible.
const REPLAY_SLOTS: usize = 8;
/// `setup_s` is the median of set-ups timed in batches of
/// `SETUP_BATCH`, one batch after every `SETUP_EVERY` served slots, so
/// that it samples the whole run. A set-up takes microseconds, and its
/// time moves with the host's state more than a slot's does: timed in
/// one block after the run, paper-rhc's median read 1.6 or 2.6 µs by
/// the minute. Timed before the first slot, set-ups also ran twice as
/// slow (the allocator had not yet grown its heap).
const SETUP_EVERY: usize = 10;
const SETUP_BATCH: usize = 20;

/// A serve workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    config: fn() -> ScenarioConfig,
}

/// The paper's default (Section V-B): 1 SBS, K = 30, 30 classes,
/// C = 5, w = 10, η = 0.1.
pub const PAPER_RHC: Shape = Shape {
    name: "paper-rhc",
    config: ScenarioConfig::paper_default,
};

/// K = 1000 at 1% density. Class densities are scaled ×100 so the
/// masked stream still carries traffic (unscaled it averages about 0.5
/// requests per slot and never hits a cache).
pub const SPARSE_1K: Shape = Shape {
    name: "sparse-1k",
    config: sparse_1k_config,
};

fn sparse_1k_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_default()
        .with_num_contents(1000)
        .with_nonzero_fraction(0.01);
    config.density_range = (
        config.density_range.0 * 100.0,
        config.density_range.1 * 100.0,
    );
    config
}

/// Online solver options with the fan-out pinned to one thread.
pub fn pinned_options() -> PrimalDualOptions {
    PrimalDualOptions {
        parallelism: Parallelism::Threads(1),
        ..PrimalDualOptions::online()
    }
}

/// One started cell and the collaborators its steps borrow.
struct Cell {
    core: CellCore,
    source: Box<dyn DemandSource>,
    policy: Box<dyn OnlinePolicy + Send>,
    sink: HarnessSink,
    log: Arc<Mutex<SinkLog>>,
}

/// Builds the scenario, network, source, policy and engine, and starts
/// the cell: everything `setup_s` times.
fn setup(
    shape: Shape,
    seed: u64,
    telemetry: &Telemetry,
    probe: Option<&Probe>,
) -> Result<Cell, String> {
    let config = (shape.config)();
    let network = config
        .build_network(SHAPE_SEED)
        .map_err(|e| format!("network: {e}"))?;
    let popularity = ZipfMandelbrot::new(config.num_contents, config.zipf_alpha, config.zipf_q)
        .map_err(|e| format!("popularity: {e}"))?;
    let generator = StreamingDemand::new(
        popularity,
        config.temporal.clone(),
        ScenarioConfig::demand_seed(SHAPE_SEED),
    )
    .and_then(|g| g.with_nonzero_fraction(config.nonzero_fraction))
    .map_err(|e| format!("demand: {e}"))?;
    let synthetic = SyntheticSource::bounded(generator, network.clone(), HORIZON);
    let mut source: Box<dyn DemandSource> = match probe {
        Some(p) => Box::new(TimedSource::new(synthetic, p.clone())),
        None => Box::new(synthetic),
    };
    let rhc: Box<dyn OnlinePolicy + Send> =
        Box::new(RhcPolicy::new(config.prediction_window, pinned_options()));
    let mut policy: Box<dyn OnlinePolicy + Send> = match probe {
        Some(p) => Box::new(TimedPolicy::new(rhc, p.clone(), 0)),
        None => rhc,
    };
    let mut serve = ServeConfig::new(config.prediction_window, seed);
    serve.noise = NoiseModel::new(config.eta, seed.wrapping_add(1_000_003));
    let (mut sink, log) = HarnessSink::new(None, probe.cloned(), 0);
    let core = CellCore::start(
        &network,
        &CostModel::paper(),
        serve,
        telemetry,
        source.as_mut(),
        policy.as_mut(),
        CacheState::empty(&network),
        &mut sink,
    )
    .map_err(|e| format!("CellCore::start: {e}"))?;
    Ok(Cell {
        core,
        source,
        policy,
        sink,
        log,
    })
}

/// Per-slot step times of one closed-loop run.
struct Served {
    step_ms: Vec<f64>,
    /// When each step began: the step that decides slot `t` is the one
    /// that ingests slot `t + w − 1`, the last slot decision `t` reads.
    step_started: Vec<Instant>,
    /// Step time minus the harness-timed calls inside it.
    step_self_us: Vec<f64>,
    wall_s: f64,
    errors: u64,
}

/// Steps `cell` until `budget` has elapsed and at least `min_slots`
/// slots are served, or until `max_slots` slots are served. Calls
/// `between` with the slot's index after each slot; its time counts in
/// neither the slot nor the wall time.
fn serve(
    cell: &mut Cell,
    budget: Duration,
    (min_slots, max_slots): (usize, usize),
    probe: Option<&Probe>,
    between: &mut dyn FnMut(usize),
) -> Served {
    let mut out = Served {
        step_ms: Vec::new(),
        step_started: Vec::new(),
        step_self_us: Vec::new(),
        wall_s: 0.0,
        errors: 0,
    };
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    while out.step_ms.len() < max_slots {
        let before = probe.map_or(0, Probe::len);
        let t0 = Instant::now();
        let step = cell
            .core
            .step(cell.source.as_mut(), cell.policy.as_mut(), &mut cell.sink);
        let dt = t0.elapsed();
        match step {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                eprintln!("slot {} failed: {e}", out.step_ms.len());
                out.errors += 1;
                break;
            }
        }
        out.step_ms.push(dt.as_secs_f64() * 1e3);
        out.step_started.push(t0);
        if let Some(p) = probe {
            let t = cell.core.slots() as u64 - 1;
            p.record(probe::STEP, 0, t, t0);
            let inner_ns: u64 = p
                .since(before)
                .iter()
                .filter(|s| s.name != probe::STEP)
                .map(|s| s.dur_ns)
                .sum();
            out.step_self_us
                .push((dt.as_nanos() as f64 - inner_ns as f64) / 1e3);
        }
        let b0 = Instant::now();
        between(out.step_ms.len() - 1);
        paused += b0.elapsed();
        if started.elapsed() >= budget && out.step_ms.len() >= min_slots {
            break;
        }
    }
    out.wall_s = (started.elapsed() - paused).as_secs_f64();
    out
}

/// Checks the committed stream and the summary, and returns the
/// deterministic prefix figures `(cost_per_slot, hit_ratio,
/// requests_per_slot)`.
fn check_stream(cell: Cell, served: usize, report: &mut Report) -> Result<(f64, f64, f64), String> {
    let Cell {
        core,
        mut sink,
        log,
        ..
    } = cell;
    core.finish(&mut sink)
        .map_err(|e| format!("CellCore::finish: {e}"))?;
    let log = log.lock().expect("sink log poisoned");
    let slots = &log.slots;
    if slots.len() != served {
        report.fail(format!(
            "{} slots timed but {} committed",
            served,
            slots.len()
        ));
    }
    let mut folded = CostBreakdown::default();
    for (i, s) in slots.iter().enumerate() {
        if s.slot != i {
            report.fail(format!("commit {i} carries slot {}", s.slot));
            break;
        }
        let parts = s.cost_bits.map(f64::from_bits);
        if parts.iter().any(|c| !c.is_finite() || *c < 0.0)
            || !(0.0..=s.requests as f64 + 1e-9).contains(&s.sbs_served)
        {
            report.fail(format!("slot {i} has an infeasible record: {s:?}"));
        }
        folded = folded
            + CostBreakdown {
                bs_operating: parts[0],
                sbs_operating: parts[1],
                replacement: parts[2],
                replacement_count: s.replacements,
            };
    }
    match &log.summary {
        Some(summary) => {
            if summary.slots != slots.len()
                || summary.cost.total().to_bits() != folded.total().to_bits()
            {
                report.fail(format!(
                    "summary ({} slots, cost {}) does not reconcile with the slot stream \
                     ({} slots, cost {})",
                    summary.slots,
                    summary.cost.total(),
                    slots.len(),
                    folded.total()
                ));
            }
        }
        None => report.fail("no summary record".into()),
    }
    if slots.len() < DETERMINISTIC_SLOTS {
        return Err(format!(
            "cost_per_slot needs {DETERMINISTIC_SLOTS} committed slots, the run served {}",
            slots.len()
        ));
    }
    let prefix = &slots[..DETERMINISTIC_SLOTS];
    let cost: f64 = prefix.iter().map(|s| s.cost_total).sum();
    let requests: u64 = prefix.iter().map(|s| s.requests).sum();
    let hits: f64 = prefix.iter().map(|s| s.sbs_served).sum();
    let n = DETERMINISTIC_SLOTS as f64;
    let hit_ratio = if requests == 0 {
        0.0
    } else {
        hits / requests as f64
    };
    Ok((cost / n, hit_ratio, requests as f64 / n))
}

/// Re-serves the first slots in a fresh cell and compares them bit for
/// bit with the timed run.
fn check_replay(
    shape: Shape,
    seed: u64,
    timed: &[probe::SlotRecord],
    report: &mut Report,
) -> Result<(), String> {
    let mut cell = setup(shape, seed, &Telemetry::disabled(), None)?;
    let served = serve(
        &mut cell,
        Duration::ZERO,
        (REPLAY_SLOTS, REPLAY_SLOTS),
        None,
        &mut |_| {},
    );
    if served.errors > 0 {
        report.fail("replay cell failed to serve".into());
    }
    let log = cell.log.lock().expect("sink log poisoned");
    for (a, b) in log.slots.iter().zip(timed) {
        if a.decision() != b.decision() {
            report.fail(format!("slot {} differs on replay", a.slot));
        }
    }
    Ok(())
}

/// The timed run: the closed loop for `--seconds` with set-up
/// repetitions between its slots, then the checks.
pub fn run(shape: Shape, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.trace {
        return run_traced(shape, args, report);
    }
    let mut cell = setup(shape, args.seed, &Telemetry::disabled(), None)?;
    let mut setup_s = Vec::new();
    let mut setup_err = None;
    let served = serve(
        &mut cell,
        args.budget(),
        (MIN_SLOTS, usize::MAX),
        None,
        &mut |slot| {
            if slot % SETUP_EVERY != 0 {
                return;
            }
            for _ in 0..SETUP_BATCH {
                let t0 = Instant::now();
                match setup(shape, args.seed, &Telemetry::disabled(), None) {
                    Ok(throwaway) => {
                        setup_s.push(t0.elapsed().as_secs_f64());
                        drop(throwaway);
                    }
                    Err(e) => {
                        setup_err.get_or_insert(e);
                    }
                }
            }
        },
    );
    let rss = peak_rss_mib()?;
    if let Some(e) = setup_err {
        return Err(format!("set-up: {e}"));
    }
    report.attempted = served.step_ms.len() as u64 + served.errors;
    report.failed += served.errors;

    report.metric(
        "setup_s",
        median("setup_s", &setup_s)?,
        "s",
        Some(setup_s.len()),
    );
    report.metric(
        "slots_per_s",
        served.step_ms.len() as f64 / served.wall_s,
        "1/s",
        Some(served.step_ms.len()),
    );
    report.metric(
        "slot_p50_ms",
        percentile("slot_p50_ms", &served.step_ms, 0.5)?,
        "ms",
        Some(served.step_ms.len()),
    );
    report.metric(
        "slot_p90_ms",
        percentile("slot_p90_ms", &served.step_ms, 0.9)?,
        "ms",
        Some(served.step_ms.len()),
    );
    let timed: Vec<_> = cell.log.lock().expect("sink log poisoned").slots.clone();
    let e2e = e2e_ms(&served.step_started, &timed);
    report.metric(
        "e2e_p50_ms",
        percentile("e2e_p50_ms", &e2e, 0.5)?,
        "ms",
        Some(e2e.len()),
    );
    report.metric(
        "e2e_tail_ms",
        percentile("e2e_tail_ms", &e2e, E2E_TAIL)?,
        "ms",
        Some(e2e.len()),
    );
    report.info("e2e_tail_percentile", E2E_TAIL * 100.0, "%", None);
    let (cost_per_slot, hit_ratio, requests_per_slot) =
        check_stream(cell, served.step_ms.len(), &mut report)?;
    traffic_guard(shape, requests_per_slot, hit_ratio)?;
    report.metric(
        "cost_per_slot",
        cost_per_slot,
        "cost",
        Some(DETERMINISTIC_SLOTS),
    );
    report.metric("hit_ratio", hit_ratio, "share", Some(DETERMINISTIC_SLOTS));
    report.metric("peak_rss_mib", rss, "MiB", None);
    report.info(
        "requests_per_slot",
        requests_per_slot,
        "count",
        Some(DETERMINISTIC_SLOTS),
    );
    report.info("host.nproc", crate::report::nproc() as f64, "count", None);
    check_replay(shape, args.seed, &timed, &mut report)?;
    Ok(report)
}

/// Per-decision latency of a closed loop: from the start of the step
/// that ingests slot `t + w − 1` (the last slot decision `t` reads)
/// until slot `t` reaches the sink. The next slot's demand exists only
/// once the loop asks for it, so this is the step up to its commit.
fn e2e_ms(step_started: &[Instant], committed: &[probe::SlotRecord]) -> Vec<f64> {
    step_started
        .iter()
        .zip(committed)
        .map(|(start, rec)| rec.at.saturating_duration_since(*start).as_secs_f64() * 1e3)
        .collect()
}

/// A run that carries no traffic times only bookkeeping: refuse it.
fn traffic_guard(shape: Shape, requests_per_slot: f64, hit_ratio: f64) -> Result<(), String> {
    if requests_per_slot <= 0.0 || hit_ratio <= 0.0 {
        return Err(format!(
            "traffic guard: {} carried {requests_per_slot} requests per slot at hit ratio \
             {hit_ratio} over its first {DETERMINISTIC_SLOTS} slots",
            shape.name
        ));
    }
    Ok(())
}

/// The traced run: an untraced baseline for half the budget, then the
/// same slots again with the program's span tracer on and every layer
/// wrapped, for the full budget.
fn run_traced(shape: Shape, args: &Args, mut report: Report) -> Result<Report, String> {
    let mut base = setup(shape, args.seed, &Telemetry::disabled(), None)?;
    let baseline = serve(
        &mut base,
        args.budget() / 2,
        (2 * MIN_BEYOND, usize::MAX),
        None,
        &mut |_| {},
    );
    drop(base);
    let base_p50 = median("trace.baseline_slot_p50_ms", &baseline.step_ms)?;

    let telemetry = Telemetry::with_event_capacity_and_tracer(1024, Tracer::with_capacity(1 << 24));
    let probe = Probe::new();
    let mut cell = setup(shape, args.seed, &telemetry, Some(&probe))?;
    let policy = cell.policy.name().to_string();
    let served = serve(
        &mut cell,
        args.budget(),
        (MIN_SLOTS, usize::MAX),
        Some(&probe),
        &mut |_| {},
    );
    report.attempted = served.step_ms.len() as u64 + served.errors;
    report.failed += served.errors;
    let traced_p50 = median("trace.slot_p50_ms", &served.step_ms)?;

    // The gateway owns its demand source, so `sim.next_slot_us` is
    // measured on the serve workloads only: a table line, not a result
    // metric (the result line carries only what every workload measures).
    let next_slot_us = probe.durations(probe::NEXT_SLOT, 1e3);
    report.info(
        "sim.next_slot_us",
        median("sim.next_slot_us", &next_slot_us)?,
        "us",
        Some(next_slot_us.len()),
    );
    report.metric(
        "serve.step_self_us",
        median("serve.step_self_us", &served.step_self_us)?,
        "us",
        Some(served.step_self_us.len()),
    );
    layers::add_program_layers(&mut report, &telemetry, &policy, &probe)?;
    report.metric(
        "trace.slot_p50_ms",
        traced_p50,
        "ms",
        Some(served.step_ms.len()),
    );
    let (e2e, ratio_blocks) = {
        let log = cell.log.lock().expect("sink log poisoned");
        (e2e_ms(&served.step_started, &log.slots), log.ratios.len())
    };
    report.metric(
        "trace.e2e_p50_ms",
        median("trace.e2e_p50_ms", &e2e)?,
        "ms",
        Some(e2e.len()),
    );
    // The serve workloads' sink keeps each record in memory and writes
    // nothing.
    report.metric("serve.sink_bytes_per_slot", 0.0, "bytes", Some(e2e.len()));
    report.metric("online.ratio_blocks", ratio_blocks as f64, "count", None);
    // Overhead over the same slots: early slots cost less than later
    // ones, so the baseline's slots are compared with their traced twins.
    let same = baseline.step_ms.len().min(served.step_ms.len());
    report.metric(
        "trace.overhead_ms",
        median("trace.slot_p50_ms", &served.step_ms[..same])? - base_p50,
        "ms",
        Some(same),
    );
    let (_, hit_ratio, requests_per_slot) = check_stream(cell, served.step_ms.len(), &mut report)?;
    traffic_guard(shape, requests_per_slot, hit_ratio)?;
    layers::write_traces(
        &args.trace_dir(),
        &format!("{}-seed{}", shape.name, args.seed),
        &telemetry,
        &probe,
    )?;
    Ok(report)
}
