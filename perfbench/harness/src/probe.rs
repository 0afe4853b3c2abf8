//! Harness-side instrumentation: an in-memory span log and wrappers
//! that time each layer's public entry points (`DemandSource`,
//! `OnlinePolicy`, `MetricsSink`) from outside the program.

use jocal_core::{CoreError, SlotLedger};
use jocal_online::policy::{Action, OnlinePolicy, PolicyContext};
use jocal_serve::metrics::{MetricsSink, RatioRecord, RunHeader, ServeSummary, SlotMetrics};
use jocal_serve::source::DemandSource;
use jocal_serve::ServeError;
use jocal_sim::demand::DemandTrace;
use jocal_telemetry::Telemetry;
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names recorded by the harness.
pub const NEXT_SLOT: &str = "sim.next_slot";
pub const DECIDE: &str = "online.decide";
pub const SINK_SLOT: &str = "serve.sink_slot";
pub const SINK_LEDGER: &str = "serve.sink_ledger";
pub const SINK_RATIO: &str = "serve.sink_ratio";
pub const STEP: &str = "serve.step";

/// One closed harness span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub cell: usize,
    pub slot: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A shared, in-memory span log. Spans are written out only when the
/// run ends.
#[derive(Clone)]
pub struct Probe {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe").finish_non_exhaustive()
    }
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::with_capacity(1 << 16))),
        }
    }

    pub fn record(&self, name: &'static str, cell: usize, slot: u64, started: Instant) {
        let end = Instant::now();
        let span = Span {
            name,
            cell,
            slot,
            start_ns: nanos(started.saturating_duration_since(self.epoch)),
            dur_ns: nanos(end.saturating_duration_since(started)),
        };
        self.spans.lock().expect("probe log poisoned").push(span);
    }

    /// When `span` started.
    pub fn started(&self, span: &Span) -> Instant {
        self.epoch + std::time::Duration::from_nanos(span.start_ns)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("probe log poisoned").len()
    }

    /// Spans recorded from index `from` on.
    pub fn since(&self, from: usize) -> Vec<Span> {
        self.spans.lock().expect("probe log poisoned")[from..].to_vec()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.since(0)
    }

    /// Durations of every span named `name`, in units of `ns_per_unit`
    /// nanoseconds.
    pub fn durations(&self, name: &str, ns_per_unit: f64) -> Vec<f64> {
        self.spans
            .lock()
            .expect("probe log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / ns_per_unit)
            .collect()
    }

    /// Writes the log as JSON lines.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cell\":{},\"slot\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.cell, s.slot, s.start_ns, s.dur_ns
            )?;
        }
        Ok(())
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times [`DemandSource::next_slot`].
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    probe: Probe,
    pos: u64,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, probe: Probe) -> Self {
        TimedSource {
            inner,
            probe,
            pos: 0,
        }
    }
}

impl<S: DemandSource> DemandSource for TimedSource<S> {
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_slot(&mut self, out: &mut DemandTrace) -> Result<bool, ServeError> {
        let started = Instant::now();
        let more = self.inner.next_slot(out);
        self.probe.record(NEXT_SLOT, 0, self.pos, started);
        self.pos += 1;
        more
    }
}

/// Times [`OnlinePolicy::decide`]; forwards everything else, including
/// `instrument`, so the policy's own telemetry stays wired.
pub struct TimedPolicy {
    inner: Box<dyn OnlinePolicy + Send>,
    probe: Probe,
    cell: usize,
}

impl fmt::Debug for TimedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedPolicy")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn OnlinePolicy + Send>, probe: Probe, cell: usize) -> Self {
        TimedPolicy { inner, probe, cell }
    }
}

impl OnlinePolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, t: usize, ctx: &PolicyContext<'_>) -> Result<Action, CoreError> {
        let started = Instant::now();
        let action = self.inner.decide(t, ctx);
        self.probe.record(DECIDE, self.cell, t as u64, started);
        action
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn instrument(&mut self, telemetry: &Telemetry) {
        self.inner.instrument(telemetry);
    }
}

/// Counts the bytes a sink writes.
#[derive(Debug)]
pub struct CountingWriter<W> {
    inner: W,
    bytes: Arc<AtomicU64>,
}

impl<W> CountingWriter<W> {
    pub fn new(inner: W, bytes: Arc<AtomicU64>) -> Self {
        CountingWriter { inner, bytes }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What the harness keeps of each committed slot: enough to check the
/// stream and to compare costs bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotRecord {
    pub slot: usize,
    pub requests: u64,
    pub sbs_served: f64,
    pub cost_bits: [u64; 3],
    pub replacements: usize,
    pub cost_total: f64,
    /// When the record reached the harness sink.
    pub at: Instant,
}

impl SlotRecord {
    fn of(m: &SlotMetrics, at: Instant) -> Self {
        SlotRecord {
            slot: m.slot,
            requests: m.requests,
            sbs_served: m.sbs_served,
            cost_bits: [
                m.cost.bs_operating.to_bits(),
                m.cost.sbs_operating.to_bits(),
                m.cost.replacement.to_bits(),
            ],
            replacements: m.cost.replacement_count,
            cost_total: m.cost.total(),
            at,
        }
    }

    /// The decision-relevant part, without the arrival time.
    pub fn decision(&self) -> (usize, u64, u64, [u64; 3], usize) {
        (
            self.slot,
            self.requests,
            self.sbs_served.to_bits(),
            self.cost_bits,
            self.replacements,
        )
    }
}

/// Everything a [`HarnessSink`] observed.
#[derive(Debug, Default)]
pub struct SinkLog {
    pub slots: Vec<SlotRecord>,
    pub ratios: Vec<RatioRecord>,
    pub summary: Option<ServeSummary>,
}

/// The harness's metrics sink: records each slot's arrival time and
/// decision fields, forwards every record to an optional inner sink
/// (the JSON-lines file of the gateway workload) and, with a probe,
/// times each forwarded call.
pub struct HarnessSink {
    inner: Option<Box<dyn MetricsSink + Send>>,
    log: Arc<Mutex<SinkLog>>,
    probe: Option<Probe>,
    cell: usize,
}

impl fmt::Debug for HarnessSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarnessSink")
            .field("cell", &self.cell)
            .finish_non_exhaustive()
    }
}

impl HarnessSink {
    pub fn new(
        inner: Option<Box<dyn MetricsSink + Send>>,
        probe: Option<Probe>,
        cell: usize,
    ) -> (Self, Arc<Mutex<SinkLog>>) {
        let log = Arc::new(Mutex::new(SinkLog::default()));
        let sink = HarnessSink {
            inner,
            log: Arc::clone(&log),
            probe,
            cell,
        };
        (sink, log)
    }

    fn forward(
        &mut self,
        span: &'static str,
        slot: u64,
        call: impl FnOnce(&mut dyn MetricsSink) -> Result<(), ServeError>,
    ) -> Result<(), ServeError> {
        let Some(inner) = self.inner.as_mut() else {
            return Ok(());
        };
        let started = Instant::now();
        let result = call(inner.as_mut());
        if let Some(probe) = &self.probe {
            probe.record(span, self.cell, slot, started);
        }
        result
    }
}

impl MetricsSink for HarnessSink {
    fn header(&mut self, header: &RunHeader) -> Result<(), ServeError> {
        match self.inner.as_mut() {
            Some(inner) => inner.header(header),
            None => Ok(()),
        }
    }

    fn slot(&mut self, metrics: &SlotMetrics) -> Result<(), ServeError> {
        let at = Instant::now();
        self.log
            .lock()
            .expect("sink log poisoned")
            .slots
            .push(SlotRecord::of(metrics, at));
        if self.inner.is_none() {
            if let Some(probe) = &self.probe {
                probe.record(SINK_SLOT, self.cell, metrics.slot as u64, at);
            }
            return Ok(());
        }
        self.forward(SINK_SLOT, metrics.slot as u64, |s| s.slot(metrics))
    }

    fn ledger(&mut self, ledger: &SlotLedger) -> Result<(), ServeError> {
        self.forward(SINK_LEDGER, ledger.slot as u64, |s| s.ledger(ledger))
    }

    fn ratio(&mut self, record: &RatioRecord) -> Result<(), ServeError> {
        self.log
            .lock()
            .expect("sink log poisoned")
            .ratios
            .push(*record);
        self.forward(SINK_RATIO, record.slot as u64, |s| s.ratio(record))
    }

    fn summary(&mut self, summary: &ServeSummary) -> Result<(), ServeError> {
        self.log.lock().expect("sink log poisoned").summary = Some(summary.clone());
        match self.inner.as_mut() {
            Some(inner) => inner.summary(summary),
            None => Ok(()),
        }
    }

    fn flush(&mut self) -> Result<(), ServeError> {
        match self.inner.as_mut() {
            Some(inner) => inner.flush(),
            None => Ok(()),
        }
    }
}
