//! The per-cell slot-step core.
//!
//! [`CellCore`] packages everything one serving cell owns — the network
//! topology, cost model, sliding window, request RNG, running totals and
//! resolved telemetry handles — behind a reusable `start → step* →
//! finish` lifecycle. [`crate::engine::ServeEngine`] drives exactly one
//! core to serve the single-cell case; `jocal-cluster` drives `M` of
//! them over shared slots from a worker pool. Both paths execute the
//! same code, which is what makes a 1-cell cluster bit-identical to the
//! single-cell engine.
//!
//! The core deliberately does **not** own the demand source, policy or
//! metrics sink: callers pass them into each call so a borrowing driver
//! (the engine) and an owning driver (a cluster cell) share one
//! implementation without trait-object gymnastics.

use crate::engine::{dispatch_requests, ServeConfig, ServeReport};
use crate::error::ServeError;
use crate::metrics::{
    LatencyHistogram, MetricsSink, RatioRecord, RunHeader, ServeSummary, SlotMetrics,
};
use crate::source::DemandSource;
use crate::window::SlidingWindow;
use jocal_core::accounting::{evaluate_slot_sparse, CostBreakdown};
use jocal_core::ledger::ledger_slot_sparse;
use jocal_core::plan::{CacheState, LoadPlan};
use jocal_core::{CostModel, ShutdownFlag, SlotNonzeros};
use jocal_flightrec::{fold_bits, DemandEntry, FlightRecorder, Frame, RatioFrame, B64};
use jocal_online::observe::RepairMetrics;
use jocal_online::policy::{OnlinePolicy, PolicyContext};
use jocal_online::ratio::{slot_constraint_violations, DualBoundTracker};
use jocal_online::repair::repair_slot;
use jocal_sim::predictor::PredictionWindow as _;
use jocal_sim::requests::sample_slot_rng;
use jocal_sim::topology::Network;
use jocal_sim::{ClassId, ContentId, SbsId};
use jocal_telemetry::{Counter, FieldValue, Gauge, Histogram, Telemetry, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Add;
use std::time::Instant;

/// Telemetry handles a cell resolves once at start: all per-slot
/// recording below is lock-free (pure no-op branches when telemetry is
/// disabled).
#[derive(Debug, Default)]
struct CellObs {
    decide_us: Histogram,
    slots_total: Counter,
    requests_total: Counter,
    /// Nonzero `(class, content)` demand coordinates in each served
    /// slot — the size of the sparse cost/ledger sweeps.
    slot_nonzeros: Histogram,
    repair_metrics: RepairMetrics,
    tracer: Tracer,
    watchdog_ratio: Counter,
    watchdog_constraint: Counter,
    /// Latest certified empirical competitive ratio — the level an
    /// SLO like `ratio < 2.618` watches.
    empirical_ratio: Gauge,
}

impl CellObs {
    fn resolve(telemetry: &Telemetry, policy: &str) -> Self {
        CellObs {
            decide_us: telemetry.histogram_with("serve_decide_us", "policy", policy),
            slots_total: telemetry.counter("serve_slots_total"),
            requests_total: telemetry.counter("serve_requests_total"),
            slot_nonzeros: telemetry.histogram("serve_slot_nonzeros"),
            repair_metrics: RepairMetrics::resolve(telemetry),
            tracer: telemetry.tracer(),
            watchdog_ratio: telemetry.counter("serve_watchdog_ratio_total"),
            watchdog_constraint: telemetry.counter("serve_watchdog_constraint_total"),
            empirical_ratio: telemetry.gauge("serve_empirical_ratio"),
        }
    }
}

/// Running per-run aggregates folded from each slot's metrics.
#[derive(Debug, Default)]
struct Totals {
    slots: usize,
    requests: u64,
    sbs_served: f64,
    spilled: f64,
    bs_served: f64,
    cost: CostBreakdown,
    repair_activations: usize,
}

impl Totals {
    fn fold(&mut self, m: &SlotMetrics) {
        self.slots += 1;
        self.requests += m.requests;
        self.sbs_served += m.sbs_served;
        self.spilled += m.spilled;
        self.bs_served += m.bs_served;
        self.cost = self.cost.add(m.cost);
        self.repair_activations += usize::from(m.repair_scaled_sbs > 0);
    }
}

/// One serving cell's complete loop state.
///
/// Owns the network, cost model, sliding window, request RNG, optional
/// optimality-gap tracker and running totals — everything a cell needs
/// between slots. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct CellCore {
    network: Network,
    cost_model: CostModel,
    config: ServeConfig,
    telemetry: Telemetry,
    obs: CellObs,
    header: RunHeader,
    horizon: usize,
    tracker: Option<DualBoundTracker>,
    last_ratio: Option<RatioRecord>,
    shutdown: ShutdownFlag,
    recorder: FlightRecorder,
    window: SlidingWindow,
    rng: StdRng,
    prev_cache: CacheState,
    slot_load: LoadPlan,
    /// Reusable nonzero index over the realized slot, rebuilt in place
    /// each step (`O(nnz)` cost/ledger sweeps instead of `O(N·M·K)`).
    truth_nonzeros: SlotNonzeros,
    histogram: LatencyHistogram,
    totals: Totals,
}

impl CellCore {
    /// Starts a cell run: validates the source/config pairing, emits the
    /// [`RunHeader`] to `sink`, instruments `policy` and initializes all
    /// loop state.
    ///
    /// # Errors
    ///
    /// Rejects an unbounded source without
    /// [`ServeConfig::max_slots`]; propagates sink failures.
    ///
    /// # Panics
    ///
    /// Panics if the configured window is zero.
    #[allow(clippy::too_many_arguments)] // one parameter per engine collaborator
    pub fn start(
        network: &Network,
        cost_model: &CostModel,
        config: ServeConfig,
        telemetry: &Telemetry,
        source: &mut dyn DemandSource,
        policy: &mut dyn OnlinePolicy,
        initial: CacheState,
        sink: &mut dyn MetricsSink,
    ) -> Result<Self, ServeError> {
        assert!(config.window >= 1, "serve window must be at least 1 slot");
        let total_hint = source.len_hint();
        if total_hint.is_none() && config.max_slots.is_none() {
            return Err(ServeError::config(
                "max_slots",
                "an unbounded source needs an explicit slot limit",
            ));
        }
        // The policies' planning horizon `T`: for a finite source this
        // is the true stream length — matching what the batch runner
        // derives from `truth.horizon()`, which is what makes the two
        // paths decide identically. A slot cap does not shrink it (the
        // batch runner evaluated prefixes the same way).
        let horizon = total_hint.unwrap_or(usize::MAX);

        let header = RunHeader {
            policy: policy.name().to_string(),
            seed: config.seed,
            noise_seed: config.noise.seed(),
            eta: config.noise.eta(),
            window: config.window,
            horizon: total_hint,
        };
        sink.header(&header)?;

        // Instrument before the loop: the policy resolves its handles
        // once, and all per-slot recording is lock-free.
        policy.instrument(telemetry);
        let obs = CellObs::resolve(telemetry, policy.name());
        let tracker = config
            .ratio
            .map(|opts| DualBoundTracker::new(network, cost_model, opts));

        Ok(CellCore {
            network: network.clone(),
            cost_model: *cost_model,
            config,
            telemetry: telemetry.clone(),
            obs,
            header,
            horizon,
            tracker,
            last_ratio: None,
            shutdown: ShutdownFlag::default(),
            recorder: FlightRecorder::disabled(),
            window: SlidingWindow::new(network),
            rng: StdRng::seed_from_u64(config.seed),
            prev_cache: initial,
            slot_load: LoadPlan::zeros(network, 1),
            truth_nonzeros: SlotNonzeros::default(),
            histogram: LatencyHistogram::default(),
            totals: Totals::default(),
        })
    }

    /// Slots served so far.
    #[inline]
    #[must_use]
    pub fn slots(&self) -> usize {
        self.totals.slots
    }

    /// Attaches a cooperative stop flag, checked once per
    /// [`CellCore::step`]: when raised the step reports end-of-run
    /// (`Ok(false)`) so the driver reaches [`CellCore::finish`] and the
    /// sink's summary/flush path runs — an interrupted run still leaves
    /// durable, well-formed output.
    pub fn set_shutdown(&mut self, shutdown: ShutdownFlag) {
        self.shutdown = shutdown;
    }

    /// Attaches a flight recorder. Each subsequent [`CellCore::step`]
    /// emits one capture [`Frame`] (and trigger records when a
    /// watchdog fires); the default disabled recorder costs one
    /// `None` branch per slot and allocates nothing.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = recorder;
    }

    /// Serves one slot: tops up the window, decides, repairs, charges
    /// costs, dispatches realized requests and emits one
    /// [`SlotMetrics`] (plus optional ledger/ratio records) to `sink`.
    ///
    /// Returns `Ok(false)` when the run is over — the slot cap was
    /// reached or the source is exhausted — without touching `sink`.
    ///
    /// # Errors
    ///
    /// Propagates source, policy and sink failures.
    pub fn step(
        &mut self,
        source: &mut dyn DemandSource,
        policy: &mut dyn OnlinePolicy,
        sink: &mut dyn MetricsSink,
    ) -> Result<bool, ServeError> {
        if self.shutdown.is_requested() {
            return Ok(false);
        }
        let t = self.window.start();
        if self.config.max_slots.is_some_and(|cap| t >= cap) {
            return Ok(false);
        }
        self.window.fill(self.config.window, source)?;
        if self.window.front().is_none() {
            return Ok(false);
        }

        // --- Decide -------------------------------------------------
        let slot_trace = self.obs.tracer.start_with("slot", "t", t as u64);
        let started = Instant::now();
        let decide_trace = self.obs.tracer.start("decide");
        let action = {
            let predictor = self.window.predictor(self.config.noise);
            let ctx = PolicyContext {
                network: &self.network,
                cost_model: &self.cost_model,
                predictor: &predictor,
                current_cache: &self.prev_cache,
                horizon: self.horizon,
            };
            policy.decide(t, &ctx)?
        };
        self.obs.tracer.finish(decide_trace);
        let solve_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

        // --- Repair against the realized slot ------------------------
        let truth = self.window.front().expect("checked non-empty above");
        for (n, _) in self.network.iter_sbs() {
            self.slot_load
                .tensor_mut()
                .sbs_slot_slice_mut(0, n)
                .copy_from_slice(action.load.tensor().sbs_slot_slice(0, n));
        }
        let repair_trace = self.obs.tracer.start("repair");
        let repair = repair_slot(
            &self.network,
            truth,
            0,
            &action.cache,
            &mut self.slot_load,
            0,
            policy.name(),
            t,
        )?;
        self.obs.tracer.finish(repair_trace);

        // --- Charge realized costs -----------------------------------
        // Sparse sweep over the realized slot's nonzero coordinates;
        // bit-identical to the dense evaluation (see jocal_core::sparse).
        self.truth_nonzeros.rebuild_from(truth);
        self.obs
            .slot_nonzeros
            .observe(self.truth_nonzeros.total_nonzeros() as u64);
        let cost = evaluate_slot_sparse(
            &self.network,
            &self.cost_model,
            &self.truth_nonzeros,
            &self.prev_cache,
            &action.cache,
            &self.slot_load,
            0,
        );

        // --- Dispatch realized requests ------------------------------
        let counts = sample_slot_rng(&mut self.rng, truth, 0);
        let dispatch = dispatch_requests(&self.network, &counts, &self.slot_load);

        let metrics = SlotMetrics {
            slot: t,
            requests: dispatch.requests,
            sbs_served: dispatch.sbs_served,
            spilled: dispatch.spilled,
            bs_served: dispatch.bs_served,
            hit_ratio: dispatch.hit_ratio(),
            cost,
            repair_scaled_sbs: repair.bandwidth_scaled,
            solve_us,
            buffered_slots: self.window.buffered(),
        };
        sink.slot(&metrics)?;

        // --- Attribute (ledger) and certify (ratio tracker) ----------
        // Both read executed state only; neither can perturb a
        // decision bit.
        if self.config.ledger {
            let ledger = ledger_slot_sparse(
                &self.network,
                &self.cost_model,
                &self.truth_nonzeros,
                &self.prev_cache,
                &action.cache,
                &self.slot_load,
                0,
                t,
            );
            debug_assert_eq!(
                ledger.breakdown(),
                cost,
                "ledger must reconcile bitwise with the evaluated slot"
            );
            sink.ledger(&ledger)?;
        }
        let mut slot_ratio: Option<RatioRecord> = None;
        if let Some(tracker) = self.tracker.as_mut() {
            let violations = slot_constraint_violations(
                &self.network,
                truth,
                0,
                &action.cache,
                &self.slot_load,
                0,
            );
            if !violations.is_empty() {
                self.obs.watchdog_constraint.incr();
                self.telemetry.event(
                    "serve_watchdog_constraint",
                    &[
                        ("slot", FieldValue::U64(t as u64)),
                        ("families", FieldValue::U64(violations.len() as u64)),
                    ],
                );
                self.recorder.trigger(
                    "constraint_violation",
                    Some(t as u64),
                    format_args!("{} constraint families violated", violations.len()),
                );
            }
            let block_trace = self.obs.tracer.start("ratio_block");
            let sample = tracker.observe_slot(truth, 0, cost.total())?;
            self.obs.tracer.finish(block_trace);
            if let Some(sample) = sample {
                let record = RatioRecord {
                    slot: t,
                    blocks: sample.blocks,
                    covered_slots: sample.slots,
                    realized_cost: sample.realized_cost,
                    lower_bound: sample.lower_bound,
                    ratio: sample.ratio,
                    bound: tracker.options().bound,
                    exceeds_bound: tracker.exceeds_bound(),
                };
                if record.exceeds_bound {
                    self.obs.watchdog_ratio.incr();
                    self.telemetry.event(
                        "serve_watchdog_ratio",
                        &[
                            ("slot", FieldValue::U64(t as u64)),
                            (
                                "ratio",
                                FieldValue::F64(record.ratio.unwrap_or(f64::INFINITY)),
                            ),
                            ("bound", FieldValue::F64(record.bound)),
                        ],
                    );
                    self.recorder.trigger(
                        "ratio_watchdog",
                        Some(t as u64),
                        format_args!(
                            "empirical ratio {} exceeds bound {}",
                            record.ratio.unwrap_or(f64::INFINITY),
                            record.bound
                        ),
                    );
                }
                if let Some(ratio) = record.ratio {
                    self.obs.empirical_ratio.set(ratio);
                }
                sink.ratio(&record)?;
                self.last_ratio = Some(record);
                slot_ratio = Some(record);
            }
        }

        self.histogram.observe(solve_us);
        self.totals.fold(&metrics);
        self.obs.decide_us.observe(solve_us);
        self.obs.slots_total.incr();
        self.obs.requests_total.add(dispatch.requests);
        self.obs.repair_metrics.record(&repair);

        // Disabled recorders skip the closure entirely; frames only
        // read executed state, so recording cannot perturb a decision.
        self.recorder
            .record_with(|| self.build_frame(&metrics, &action.cache, slot_ratio.as_ref()));

        self.prev_cache = action.cache;
        self.window.advance();
        self.obs.tracer.finish(slot_trace);
        Ok(true)
    }

    /// Assembles the capture frame for the slot just served, reading
    /// only post-decision state (the realized nonzeros, repaired load,
    /// cache vector, cost and dispatch results).
    fn build_frame(
        &self,
        metrics: &SlotMetrics,
        cache: &CacheState,
        ratio: Option<&RatioRecord>,
    ) -> Frame {
        let num_sbs = self.network.num_sbs();
        let num_contents = self.network.num_contents();
        let mut demand = Vec::with_capacity(num_sbs);
        let mut load = Vec::with_capacity(num_sbs);
        let mut cache_ids = Vec::with_capacity(num_sbs);
        for n in 0..num_sbs {
            let id = SbsId(n);
            let entries = self.truth_nonzeros.slot(0, id);
            demand.push(
                entries
                    .iter()
                    .map(|e| DemandEntry {
                        idx: e.idx,
                        lambda: B64(e.lambda),
                    })
                    .collect::<Vec<_>>(),
            );
            load.push(
                entries
                    .iter()
                    .map(|e| {
                        let m = ClassId(e.idx as usize / num_contents);
                        let k = ContentId(e.idx as usize % num_contents);
                        B64(self.slot_load.y(0, id, m, k))
                    })
                    .collect::<Vec<_>>(),
            );
            cache_ids.push(
                cache
                    .cached_items(id)
                    .iter()
                    .map(|c| c.0 as u32)
                    .collect::<Vec<_>>(),
            );
        }
        // Digest the canonical window-length prediction at this slot.
        // The noise model is a stateless hash of (seed, slot, coords),
        // so replay recomputes the identical digest from the rebuilt
        // demand stream — any predictor-input drift shows up here.
        let pred = self
            .window
            .predictor(self.config.noise)
            .predict(metrics.slot, self.config.window);
        let mut digest = jocal_flightrec::DIGEST_SEED;
        for t_local in 0..pred.horizon() {
            for n in 0..num_sbs {
                for &v in pred.sbs_slot_slice(t_local, SbsId(n)) {
                    digest = fold_bits(digest, v.to_bits());
                }
            }
        }
        Frame {
            slot: metrics.slot as u64,
            tag: None,
            demand,
            pred_digest: format!("{digest:016x}"),
            cache: cache_ids,
            load,
            cost: jocal_flightrec::CostFrame {
                bs_operating: B64(metrics.cost.bs_operating),
                sbs_operating: B64(metrics.cost.sbs_operating),
                replacement: B64(metrics.cost.replacement),
                replacement_count: metrics.cost.replacement_count as u64,
            },
            requests: metrics.requests,
            sbs_served: B64(metrics.sbs_served),
            spilled: B64(metrics.spilled),
            bs_served: B64(metrics.bs_served),
            repair_scaled_sbs: metrics.repair_scaled_sbs as u64,
            solve_us: metrics.solve_us,
            ratio: ratio.map(|r| RatioFrame {
                blocks: r.blocks as u64,
                covered_slots: r.covered_slots as u64,
                realized_cost: B64(r.realized_cost),
                lower_bound: B64(r.lower_bound),
                ratio: r.ratio.map(B64),
                exceeds_bound: r.exceeds_bound,
            }),
        }
    }

    /// Finishes the run: emits the [`ServeSummary`] to `sink` and
    /// returns the report (with the final optimality-gap reading when
    /// the tracker was on).
    ///
    /// # Errors
    ///
    /// Propagates sink failures.
    pub fn finish(self, sink: &mut dyn MetricsSink) -> Result<ServeReport, ServeError> {
        let totals = &self.totals;
        let summary = ServeSummary {
            header: self.header.clone(),
            slots: totals.slots,
            requests: totals.requests,
            sbs_served: totals.sbs_served,
            spilled: totals.spilled,
            bs_served: totals.bs_served,
            hit_ratio: if totals.requests == 0 {
                0.0
            } else {
                totals.sbs_served / totals.requests as f64
            },
            cost: totals.cost,
            repair_activations: totals.repair_activations,
            peak_buffered_slots: self.window.peak_buffered(),
            solve_latency: self.histogram.summarize(),
        };
        sink.summary(&summary)?;
        // With the tracker on but no block completed yet, report a
        // zero-block reading rather than nothing.
        let ratio = self.tracker.map(|tr| {
            self.last_ratio.unwrap_or_else(|| {
                let sample = tr.sample();
                RatioRecord {
                    slot: summary.slots.saturating_sub(1),
                    blocks: sample.blocks,
                    covered_slots: sample.slots,
                    realized_cost: sample.realized_cost,
                    lower_bound: sample.lower_bound,
                    ratio: sample.ratio,
                    bound: tr.options().bound,
                    exceeds_bound: tr.exceeds_bound(),
                }
            })
        });
        Ok(ServeReport { summary, ratio })
    }
}
