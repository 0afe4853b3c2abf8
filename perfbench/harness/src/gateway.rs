//! The `gateway-observed` workload: two lean cells behind an
//! in-process `Gateway`, fed open-loop over one keep-alive HTTP
//! connection, with the ledger, ratio tracker, flight recorder,
//! JSON-lines sinks and telemetry all on.

use crate::layers;
use crate::probe::{self, CountingWriter, HarnessSink, Probe, SinkLog, SlotRecord, TimedPolicy};
use crate::report::{median, peak_rss_mib, percentile, share, Report};
use crate::serve::{pinned_options, SHAPE_SEED};
use crate::Args;
use jocal_cluster::ClusterConfig;
use jocal_core::{CacheState, CostModel, Parallelism};
use jocal_flightrec::{CaptureHeader, FlightRecorder, H64};
use jocal_gateway::{CellSpec, Gateway, GatewayConfig, GatewayStats, HttpClient};
use jocal_online::chc::ChcPolicy;
use jocal_online::policy::OnlinePolicy;
use jocal_online::ratio::RatioOptions;
use jocal_online::rounding::{optimal_rho, RoundingPolicy};
use jocal_serve::engine::{ServeConfig, ServeEngine};
use jocal_serve::metrics::JsonLinesSink;
use jocal_serve::source::TraceSource;
use jocal_sim::demand::DemandTrace;
use jocal_sim::popularity::ZipfMandelbrot;
use jocal_sim::predictor::NoiseModel;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::stream::StreamingDemand;
use jocal_sim::topology::Network;
use jocal_sim::trace::{read_trace, write_trace};
use jocal_telemetry::{Telemetry, Tracer};
use std::collections::HashMap;
use std::fs;
use std::io::BufWriter;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CELLS: usize = 2;
const WINDOW: usize = 4;
const COMMITMENT: usize = 3;
const RATIO_BLOCK: usize = 50;
const DENSITY_SCALE: f64 = 5.0;
/// Slots per second sent to each cell. One round of both cells costs
/// about 22 ms of serving-thread time on a 2-vCPU host with every
/// observability feature on, so this keeps the serving thread near 40%
/// busy and below saturation even when the host slows by 1.9×.
const RATE_PER_CELL: f64 = 18.0;
/// A run whose load generator sent its 99th-percentile request later
/// than this behind schedule is invalid: its latencies would measure
/// the client, not the gateway.
const LATE_LIMIT_MS: f64 = 50.0;
const QUEUE_CAPACITY: usize = 256;
const FLIGHTREC_CAPACITY: usize = 4096;
/// Gateway start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// `e2e_tail_ms` is the highest percentile a run's 1080 decisions
/// support with ten beyond it. It is the top of the backlog the ratio
/// tracker's block solves leave on the serving thread, and moves in
/// proportion to them; a p90 falls midway down that backlog, where it
/// also moves with the drain rate and so amplifies host-speed drift.
const E2E_TAIL: f64 = 0.99;
/// How long the harness waits for the cells to commit their last slot
/// after the last request before draining the gateway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// 4 SBSs × 10 contents × 4 classes under CHC with w = 4. Class
/// densities are scaled ×DENSITY_SCALE: at the paper's densities a
/// w = 4 window never amortizes the replacement cost, nothing is ever
/// cached and the hit ratio is 0.
fn lean_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_default().with_prediction_window(WINDOW);
    config.num_sbs = 4;
    config.num_contents = 10;
    config.classes_per_sbs = 4;
    config.density_range = (
        config.density_range.0 * DENSITY_SCALE,
        config.density_range.1 * DENSITY_SCALE,
    );
    config
}

fn cell_policy() -> Box<dyn OnlinePolicy + Send> {
    Box::new(ChcPolicy::new(
        WINDOW,
        COMMITMENT,
        RoundingPolicy::new(optimal_rho()),
        pinned_options(),
    ))
}

fn cell_config(config: &ScenarioConfig, seed: u64, cell: usize, observed: bool) -> ServeConfig {
    let mut serve = ServeConfig::new(WINDOW, ScenarioConfig::cell_seed(seed, cell));
    serve.noise = NoiseModel::new(
        config.eta,
        ScenarioConfig::cell_seed(seed.wrapping_add(1_000_003), cell),
    );
    if observed {
        serve.ledger = true;
        serve.ratio = Some(RatioOptions {
            block: RATIO_BLOCK,
            ..RatioOptions::default()
        });
    }
    serve
}

/// The generated inputs: per cell, its network and one trace-CSV body
/// per slot.
struct Inputs {
    config: ScenarioConfig,
    networks: Vec<Network>,
    bodies: Vec<Vec<Vec<u8>>>,
}

fn inputs(slots: usize) -> Result<Inputs, String> {
    let config = lean_config();
    let mut networks = Vec::with_capacity(CELLS);
    let mut bodies = Vec::with_capacity(CELLS);
    for cell in 0..CELLS {
        let network = config
            .build_network(ScenarioConfig::cell_seed(SHAPE_SEED, cell))
            .map_err(|e| format!("network: {e}"))?;
        let popularity = ZipfMandelbrot::new(config.num_contents, config.zipf_alpha, config.zipf_q)
            .map_err(|e| format!("popularity: {e}"))?;
        let generator = StreamingDemand::new(
            popularity,
            config.temporal.clone(),
            ScenarioConfig::demand_seed(ScenarioConfig::cell_seed(SHAPE_SEED, cell)),
        )
        .map_err(|e| format!("demand: {e}"))?;
        let mut cell_bodies = Vec::with_capacity(slots);
        for t in 0..slots {
            let slot = generator
                .slot(&network, t)
                .map_err(|e| format!("demand slot {t}: {e}"))?;
            let mut body = Vec::new();
            write_trace(&slot, &mut body).map_err(|e| format!("trace body: {e}"))?;
            cell_bodies.push(body);
        }
        networks.push(network);
        bodies.push(cell_bodies);
    }
    Ok(Inputs {
        config,
        networks,
        bodies,
    })
}

/// One started gateway with its client and the harness's views of
/// each cell's sink.
struct Running {
    gateway: Gateway,
    client: HttpClient,
    logs: Vec<Arc<Mutex<SinkLog>>>,
    sink_bytes: Arc<AtomicU64>,
    /// The cells' policy name (it labels the window counters).
    policy: String,
}

/// Builds the cell specs (sinks, flight recorders) under `dir`, then
/// times `Gateway::start` until the client has connected. Each cell's
/// policy records its `decide` calls in `probe`, which dates the start
/// of each slot's service; with `trace_sinks` the sinks record their
/// calls there too.
fn start(
    inputs: &Inputs,
    seed: u64,
    slots: usize,
    dir: &Path,
    telemetry: &Telemetry,
    probe: &Probe,
    trace_sinks: bool,
) -> Result<(Running, f64), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    fs::create_dir_all(dir).map_err(io)?;
    let sink_bytes = Arc::new(AtomicU64::new(0));
    let mut specs = Vec::with_capacity(CELLS);
    let mut logs = Vec::with_capacity(CELLS);
    let mut policy_name = String::new();
    for (cell, network) in inputs.networks.iter().enumerate() {
        let file = fs::File::create(dir.join(format!("cell{cell}.jsonl"))).map_err(io)?;
        let json = JsonLinesSink::new(CountingWriter::new(
            BufWriter::new(file),
            Arc::clone(&sink_bytes),
        ));
        let (sink, log) = HarnessSink::new(
            Some(Box::new(json)),
            trace_sinks.then(|| probe.clone()),
            cell,
        );
        let policy = Box::new(TimedPolicy::new(cell_policy(), probe.clone(), cell));
        let serve = cell_config(&inputs.config, seed, cell, true);
        policy_name = policy.name().to_string();
        let mut header = CaptureHeader::new(policy.name(), "chc");
        header.commitment = COMMITMENT as u64;
        header.cell = cell as u64;
        header.seed = H64(serve.seed);
        header.window = WINDOW as u64;
        header.horizon = Some(slots as u64);
        header.ledger = true;
        header.ratio_block = Some(RATIO_BLOCK as u64);
        let recorder = FlightRecorder::to_dir(
            dir.join(format!("flightrec/cell{cell}")),
            header,
            FLIGHTREC_CAPACITY,
            telemetry,
        )
        .map_err(io)?;
        specs.push(
            CellSpec::new(network.clone(), CostModel::paper(), serve, policy)
                .with_sink(Box::new(sink))
                .with_expected_slots(slots)
                .with_recorder(recorder),
        );
        logs.push(log);
    }
    let config = GatewayConfig {
        http_workers: 1,
        queue_capacity: QUEUE_CAPACITY,
        ..GatewayConfig::default()
    };
    let cluster = ClusterConfig::new(1).with_parallelism(Parallelism::Threads(1));
    let t0 = Instant::now();
    let gateway = Gateway::start(&config, cluster, specs, telemetry)
        .map_err(|e| format!("Gateway::start: {e}"))?;
    let client = HttpClient::connect(&gateway.local_addr().to_string(), Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Running {
            gateway,
            client,
            logs,
            sink_bytes,
            policy: policy_name,
        },
        setup_s,
    ))
}

/// What the open-loop client saw.
struct Load {
    /// When cell 0's slot 0 was due; see [`Load::due`].
    t0: Instant,
    late_ms: Vec<f64>,
    admit_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Slots each cell accepted (202), in order.
    accepted: Vec<usize>,
}

impl Load {
    /// Cell `c`'s slot `k` is due at `t0 + (k + c / CELLS) / rate`: the
    /// cells' schedules are staggered evenly. Sent in lockstep, cell 1's
    /// slot would always queue behind cell 0's step on the serving
    /// thread, splitting the latencies into two modes with the median
    /// between them.
    fn due(&self, cell: usize, slot: usize) -> Instant {
        let ticks = slot as f64 + cell as f64 / CELLS as f64;
        self.t0 + Duration::from_secs_f64(ticks / RATE_PER_CELL)
    }
}

/// Sends every cell's slot `k` when it is due, whatever the gateway's
/// progress (open loop). A cell whose slot is refused gets no later
/// slots: its stream must stay contiguous.
fn drive(running: &mut Running, inputs: &Inputs, slots: usize) -> Load {
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut load = Load {
        t0,
        late_ms: Vec::with_capacity(CELLS * slots),
        admit_ms: Vec::with_capacity(CELLS * slots),
        attempted: 0,
        failed: 0,
        accepted: vec![0; CELLS],
    };
    let addr = running.gateway.local_addr().to_string();
    let targets: Vec<String> = (0..CELLS).map(|c| format!("/v1/demand?cell={c}")).collect();
    for k in 0..slots {
        for (cell, target) in targets.iter().enumerate() {
            if load.accepted[cell] != k {
                continue;
            }
            let due = load.due(cell, k);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            load.late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            load.attempted += 1;
            match running
                .client
                .request("POST", target, &inputs.bodies[cell][k])
            {
                Ok(resp) if resp.status == 202 => {
                    load.admit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    load.accepted[cell] += 1;
                }
                Ok(resp) => {
                    eprintln!("cell {cell} slot {k}: status {}", resp.status);
                    load.failed += 1;
                }
                Err(e) => {
                    eprintln!("cell {cell} slot {k}: transport error: {e}");
                    load.failed += 1;
                    if let Ok(client) = HttpClient::connect(&addr, Duration::from_secs(10)) {
                        running.client = client;
                    }
                }
            }
        }
    }
    load
}

/// What a finished gateway run left behind.
struct Finished {
    stats: GatewayStats,
    logs: Vec<SinkLog>,
    sink_bytes: u64,
}

/// Waits for every cell to commit its last slot (draining the gateway
/// if that takes too long), then joins it.
fn finish(running: Running) -> Result<Finished, String> {
    let Running {
        gateway,
        client,
        logs,
        sink_bytes,
        ..
    } = running;
    drop(client);
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while !gateway.serve_finished() {
        if Instant::now() >= deadline {
            eprintln!("cells did not commit every slot in time; draining");
            gateway.drain();
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (_, stats) = gateway
        .join()
        .map_err(|e| format!("gateway run failed: {e}"))?;
    Ok(Finished {
        stats,
        logs: logs
            .iter()
            .map(|l| std::mem::take(&mut *l.lock().expect("sink log poisoned")))
            .collect(),
        sink_bytes: sink_bytes.load(Ordering::Relaxed),
    })
}

/// Per-decision latency, per cell, from the scheduled send of the last
/// slot the decision reads, `min(t + w − 1, T − 1)`, to its commit at
/// the sink.
fn e2e_ms(load: &Load, logs: &[SinkLog], slots: usize) -> Vec<Vec<f64>> {
    logs.iter()
        .enumerate()
        .map(|(cell, log)| {
            log.slots
                .iter()
                .map(|rec| {
                    let carrier = (rec.slot + WINDOW - 1).min(slots - 1);
                    let due = load.due(cell, carrier);
                    rec.at.saturating_duration_since(due).as_secs_f64() * 1e3
                })
                .collect()
        })
        .collect()
}

/// Per commit: the slot's service time, from the cell's `decide` call
/// to the slot record reaching the sink, and the `decide` call's own
/// time, both in ms. The gateway steps its cells on its own thread and
/// owns their demand sources, so the service starts at `decide`: before
/// it the step waits for ingest.
fn service_ms(probe: &Probe, logs: &[SinkLog]) -> Result<Vec<(f64, f64)>, String> {
    let decides: HashMap<(usize, u64), (Instant, u64)> = probe
        .spans()
        .iter()
        .filter(|s| s.name == probe::DECIDE)
        .map(|s| ((s.cell, s.slot), (probe.started(s), s.dur_ns)))
        .collect();
    let mut out = Vec::new();
    for (cell, log) in logs.iter().enumerate() {
        for rec in &log.slots {
            let (start, decide_ns) = decides
                .get(&(cell, rec.slot as u64))
                .ok_or_else(|| format!("cell {cell} committed slot {} without deciding it", rec.slot))?;
            out.push((
                rec.at.saturating_duration_since(*start).as_secs_f64() * 1e3,
                *decide_ns as f64 / 1e6,
            ));
        }
    }
    Ok(out)
}

/// Checks that every accepted slot was committed exactly once and in
/// order, and that each committed slot's costs equal, bit for bit, an
/// in-process `ServeEngine` over a `TraceSource` of the same slot
/// bodies. Each bad slot counts as one failure.
fn check(
    inputs: &Inputs,
    seed: u64,
    load: &Load,
    logs: &[SinkLog],
    slots: usize,
    report: &mut Report,
) -> Result<(), String> {
    for (cell, log) in logs.iter().map(|l| &l.slots).enumerate() {
        let accepted = load.accepted[cell];
        if log.len() != accepted || log.iter().enumerate().any(|(i, r)| r.slot != i) {
            report.fail(format!(
                "cell {cell}: {accepted} slots accepted but the commit stream is {:?}…",
                log.iter().take(8).map(|r| r.slot).collect::<Vec<_>>()
            ));
            continue;
        }
        let network = &inputs.networks[cell];
        let mut trace = DemandTrace::zeros(network, slots);
        for (t, body) in inputs.bodies[cell].iter().enumerate().take(slots) {
            let parsed = read_trace(body.as_slice()).map_err(|e| format!("body {t}: {e}"))?;
            trace
                .copy_slot_from(t, &parsed, 0)
                .map_err(|e| format!("body {t}: {e}"))?;
        }
        let reference_cfg = cell_config(&inputs.config, seed, cell, false);
        let model = CostModel::paper();
        let engine = ServeEngine::new(network, &model, reference_cfg);
        let (mut sink, reference) = HarnessSink::new(None, None, cell);
        let mut policy = cell_policy();
        engine
            .run(
                &mut TraceSource::new(trace),
                policy.as_mut(),
                CacheState::empty(network),
                &mut sink,
            )
            .map_err(|e| format!("reference run: {e}"))?;
        let reference = reference.lock().expect("sink log poisoned");
        let mut mismatches = 0;
        for (a, b) in log.iter().zip(&reference.slots) {
            if a.decision() != b.decision() {
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            report.failed += mismatches - 1;
            report.fail(format!(
                "cell {cell}: {mismatches} slots differ from the in-process run"
            ));
        }
    }
    Ok(())
}

/// Times throwaway gateway start-ups (each drained and joined at once).
fn time_setups(
    inputs: &Inputs,
    seed: u64,
    slots: usize,
    work: &Path,
    reps: std::ops::Range<usize>,
    telemetry: &Telemetry,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(reps.len());
    for rep in reps {
        let dir = work.join(format!("setup{rep}"));
        let (running, s) = start(inputs, seed, slots, &dir, telemetry, &Probe::new(), false)?;
        out.push(s);
        drop(running.client);
        running.gateway.drain();
        running
            .gateway
            .join()
            .map_err(|e| format!("set-up gateway: {e}"))?;
        let _ = fs::remove_dir_all(&dir);
    }
    Ok(out)
}

fn slots_for(budget: Duration) -> usize {
    (RATE_PER_CELL * budget.as_secs_f64()).round().max(1.0) as usize
}

fn lateness_guard(load: &Load) -> Result<f64, String> {
    let late_p99 = percentile("loadgen.late_p99_ms", &load.late_ms, 0.99)?;
    if late_p99 > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator's p99 lateness was {late_p99:.1} ms, \
             above the {LATE_LIMIT_MS} ms limit"
        ));
    }
    Ok(late_p99)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.trace {
        return run_traced(args, report);
    }
    let slots = slots_for(args.budget());
    let inputs = inputs(slots)?;
    let telemetry = Telemetry::enabled();
    let work = args.work_dir();

    // Half the start-ups before the timed window and half after it, so
    // `setup_s` spans the run's host-speed regimes.
    let mut setup_s = time_setups(
        &inputs,
        args.seed,
        slots,
        &work,
        0..SETUP_REPS / 2,
        &telemetry,
    )?;
    let stamps = Probe::new();
    let (mut running, s) = start(
        &inputs,
        args.seed,
        slots,
        &work.join("run"),
        &telemetry,
        &stamps,
        false,
    )?;
    setup_s.push(s);

    let load = drive(&mut running, &inputs, slots);
    let Finished { stats, logs, .. } = finish(running)?;
    let rss = peak_rss_mib()?;
    setup_s.extend(time_setups(
        &inputs,
        args.seed,
        slots,
        &work,
        SETUP_REPS / 2 + 1..SETUP_REPS,
        &telemetry,
    )?);
    report.attempted = load.attempted;
    report.failed += load.failed;
    if stats.worker_panics > 0 || stats.malformed > 0 {
        report.fail(format!("gateway stats report errors: {stats:?}"));
    }
    let late_p99 = lateness_guard(&load)?;

    let e2e = e2e_ms(&load, &logs, slots).concat();
    let commits: Vec<&SlotRecord> = logs.iter().flat_map(|l| &l.slots).collect();
    let last_commit = commits
        .iter()
        .map(|r| r.at)
        .max()
        .ok_or("no slot was committed")?;
    let wall = last_commit.saturating_duration_since(load.t0).as_secs_f64();
    let requests: u64 = commits.iter().map(|r| r.requests).sum();
    let hits: f64 = commits.iter().map(|r| r.sbs_served).sum();
    let cost: f64 = commits.iter().map(|r| r.cost_total).sum();
    if requests == 0 || hits <= 0.0 {
        return Err(format!(
            "traffic guard: the cells served {requests} requests with {hits} cache hits"
        ));
    }

    report.metric(
        "setup_s",
        median("setup_s", &setup_s)?,
        "s",
        Some(setup_s.len()),
    );
    report.metric(
        "slots_per_s",
        commits.len() as f64 / wall,
        "1/s",
        Some(commits.len()),
    );
    let slot_ms: Vec<f64> = service_ms(&stamps, &logs)?
        .into_iter()
        .map(|(service, _)| service)
        .collect();
    report.metric(
        "slot_p50_ms",
        percentile("slot_p50_ms", &slot_ms, 0.5)?,
        "ms",
        Some(slot_ms.len()),
    );
    report.metric(
        "slot_p90_ms",
        percentile("slot_p90_ms", &slot_ms, 0.9)?,
        "ms",
        Some(slot_ms.len()),
    );
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
    report.metric(
        "cost_per_slot",
        share(cost, commits.len() as f64),
        "cost",
        Some(commits.len()),
    );
    report.metric(
        "hit_ratio",
        share(hits, requests as f64),
        "share",
        Some(commits.len()),
    );
    report.metric("peak_rss_mib", rss, "MiB", None);
    report.info(
        "e2e_p90_ms",
        percentile("e2e_p90_ms", &e2e, 0.9)?,
        "ms",
        Some(e2e.len()),
    );
    report.info(
        "loadgen.late_p99_ms",
        late_p99,
        "ms",
        Some(load.late_ms.len()),
    );
    report.info(
        "gateway.admit_p50_ms",
        percentile("gateway.admit_p50_ms", &load.admit_ms, 0.5)?,
        "ms",
        Some(load.admit_ms.len()),
    );
    report.info(
        "gateway.queue_highwater",
        stats.queue_depth_highwater as f64,
        "count",
        None,
    );
    report.info("host.nproc", crate::report::nproc() as f64, "count", None);
    report.info(
        "offered_slots_per_s",
        RATE_PER_CELL * CELLS as f64,
        "1/s",
        None,
    );

    check(&inputs, args.seed, &load, &logs, slots, &mut report)?;
    Ok(report)
}

/// The traced run: an untraced gateway for half the budget as the
/// baseline, then a traced one for the full budget with every layer
/// wrapped.
fn run_traced(args: &Args, mut report: Report) -> Result<Report, String> {
    let slots = slots_for(args.budget());
    let inputs = inputs(slots)?;
    let work = args.work_dir();

    let base_slots = slots_for(args.budget() / 2);
    let (mut base, _) = start(
        &inputs,
        args.seed,
        base_slots,
        &work.join("baseline"),
        &Telemetry::enabled(),
        &Probe::new(),
        false,
    )?;
    let base_load = drive(&mut base, &inputs, base_slots);
    let base_e2e = e2e_ms(&base_load, &finish(base)?.logs, base_slots).concat();
    let base_p50 = median("trace.baseline_e2e_p50_ms", &base_e2e)?;

    let telemetry = Telemetry::with_event_capacity_and_tracer(1024, Tracer::with_capacity(1 << 24));
    let probe = Probe::new();
    let (mut running, _) = start(
        &inputs,
        args.seed,
        slots,
        &work.join("run"),
        &telemetry,
        &probe,
        true,
    )?;
    let policy = running.policy.clone();
    let load = drive(&mut running, &inputs, slots);
    let Finished {
        stats,
        logs,
        sink_bytes,
    } = finish(running)?;
    report.attempted = load.attempted;
    report.failed += load.failed;
    let late_p99 = lateness_guard(&load)?;
    let per_cell = e2e_ms(&load, &logs, slots);
    let e2e = per_cell.concat();
    let commits = logs.iter().map(|l| l.slots.len()).sum::<usize>();
    let service = service_ms(&probe, &logs)?;
    let slot_ms: Vec<f64> = service.iter().map(|(s, _)| *s).collect();
    // The part of the slot's service outside `decide`: repair, cost
    // evaluation and dispatch up to the sink.
    let step_self_us: Vec<f64> = service.iter().map(|(s, d)| (s - d) * 1e3).collect();

    report.metric(
        "serve.step_self_us",
        median("serve.step_self_us", &step_self_us)?,
        "us",
        Some(step_self_us.len()),
    );
    layers::add_program_layers(&mut report, &telemetry, &policy, &probe)?;
    report.metric(
        "trace.slot_p50_ms",
        median("trace.slot_p50_ms", &slot_ms)?,
        "ms",
        Some(slot_ms.len()),
    );
    report.metric(
        "trace.e2e_p50_ms",
        median("trace.e2e_p50_ms", &e2e)?,
        "ms",
        Some(e2e.len()),
    );
    report.metric(
        "serve.sink_bytes_per_slot",
        share(sink_bytes as f64, commits as f64),
        "bytes",
        Some(commits),
    );
    let ratio_blocks: usize = logs.iter().map(|l| l.ratios.len()).sum();
    report.metric("online.ratio_blocks", ratio_blocks as f64, "count", None);
    // Overhead over the same slots as the baseline.
    let same: Vec<f64> = per_cell
        .iter()
        .flat_map(|cell| cell.iter().take(base_slots).copied())
        .collect();
    report.metric(
        "trace.overhead_ms",
        median("trace.e2e_p50_ms", &same)? - base_p50,
        "ms",
        Some(base_e2e.len()),
    );

    // The layers only this workload runs: table lines, not result
    // metrics (the result line carries only what every workload
    // measures).
    for (metric, span) in [
        ("serve.sink_ledger_us", probe::SINK_LEDGER),
        ("serve.sink_ratio_us", probe::SINK_RATIO),
    ] {
        let us = probe.durations(span, 1e3);
        report.info(metric, median(metric, &us)?, "us", Some(us.len()));
    }
    report.info(
        "flightrec.bytes_per_frame",
        share(
            telemetry.counter("flightrec_bytes").get() as f64,
            telemetry.counter("flightrec_frames_total").get() as f64,
        ),
        "bytes",
        None,
    );
    report.info(
        "gateway.admit_p50_ms",
        percentile("gateway.admit_p50_ms", &load.admit_ms, 0.5)?,
        "ms",
        Some(load.admit_ms.len()),
    );
    report.info(
        "gateway.admit_p99_ms",
        percentile("gateway.admit_p99_ms", &load.admit_ms, 0.99)?,
        "ms",
        Some(load.admit_ms.len()),
    );
    report.info(
        "gateway.queue_highwater",
        stats.queue_depth_highwater as f64,
        "count",
        None,
    );
    // The gap between the two cells' commits of one slot, net of the
    // offset between their send schedules.
    let skew_ms: Vec<f64> = per_cell[0]
        .iter()
        .zip(&per_cell[1])
        .map(|(a, b)| (a - b).abs())
        .collect();
    report.info(
        "cluster.commit_skew_p90_ms",
        percentile("cluster.commit_skew_p90_ms", &skew_ms, 0.9)?,
        "ms",
        Some(skew_ms.len()),
    );
    report.info(
        "loadgen.late_p99_ms",
        late_p99,
        "ms",
        Some(load.late_ms.len()),
    );

    check(&inputs, args.seed, &load, &logs, slots, &mut report)?;
    layers::write_traces(
        &args.trace_dir(),
        &format!("gateway-observed-seed{}", args.seed),
        &telemetry,
        &probe,
    )?;
    Ok(report)
}
