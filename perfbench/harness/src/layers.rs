//! Per-layer figures read from the program's own span tracer and
//! registry counters (nothing here adds spans or counters to it).

use crate::probe::{self, Probe};
use crate::report::{median, share, Report};
use jocal_telemetry::Telemetry;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Self time per span name from the program's tracer.
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub self_us: BTreeMap<&'static str, u64>,
    /// Total duration of the root `slot` spans: the denominator of
    /// every share.
    pub slot_us: u64,
    pub dropped: u64,
}

impl SelfTimes {
    pub fn of(telemetry: &Telemetry) -> Self {
        let tracer = telemetry.tracer();
        let spans = tracer.spans();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                *child_us.entry(parent).or_default() += s.dur_us;
            }
        }
        let mut out = SelfTimes {
            dropped: tracer.spans_dropped(),
            ..SelfTimes::default()
        };
        for s in &spans {
            let own = s
                .dur_us
                .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
            *out.self_us.entry(s.name).or_default() += own;
            if s.name == "slot" {
                out.slot_us += s.dur_us;
            }
        }
        out
    }

    pub fn share(&self, names: &[&str]) -> f64 {
        let sum: u64 = names
            .iter()
            .map(|n| self.self_us.get(n).copied().unwrap_or(0))
            .sum();
        share(sum as f64, self.slot_us as f64)
    }

    /// The span name with the largest self time.
    pub fn largest(&self) -> Option<(&'static str, u64)> {
        self.self_us
            .iter()
            .max_by_key(|(_, us)| **us)
            .map(|(n, us)| (*n, *us))
    }
}

fn counter(telemetry: &Telemetry, name: &str) -> f64 {
    telemetry.counter(name).get() as f64
}

/// Adds the span- and counter-derived layer metrics shared by every
/// workload, plus the harness sink share.
pub fn add_program_layers(
    report: &mut Report,
    telemetry: &Telemetry,
    policy: &str,
    probe: &Probe,
) -> Result<(), String> {
    let st = SelfTimes::of(telemetry);
    if st.dropped > 0 {
        return Err(format!(
            "span tracer dropped {} spans; raise its capacity",
            st.dropped
        ));
    }
    if st.slot_us == 0 {
        return Err("the traced run recorded no slot spans".into());
    }
    let incr = telemetry
        .counter_with("window_incremental_builds_total", "policy", policy)
        .get() as f64;
    let full = telemetry
        .counter_with("window_full_builds_total", "policy", policy)
        .get() as f64;
    let pd_solves = counter(telemetry, "pd_solves_total");
    let p2_slot_solves = counter(telemetry, "p2_slot_solves_total");

    report.metric(
        "online.window_self_share",
        st.share(&["decide", "window_solve"]),
        "share",
        None,
    );
    report.metric(
        "online.window_incremental_share",
        share(incr, incr + full),
        "share",
        None,
    );
    report.metric(
        "online.ratio_block_self_share",
        st.share(&["ratio_block"]),
        "share",
        None,
    );
    report.metric("core.p2_self_share", st.share(&["p2"]), "share", None);
    report.metric("core.p1_self_share", st.share(&["p1"]), "share", None);
    report.metric(
        "core.p2_pgd_iters_per_solve",
        share(
            counter(telemetry, "p2_pgd_iterations_total"),
            p2_slot_solves,
        ),
        "count",
        None,
    );
    report.metric(
        "core.pd_iters_per_window",
        share(counter(telemetry, "pd_iterations_total"), pd_solves),
        "count",
        None,
    );
    report.metric(
        "core.pd_converged_share",
        share(counter(telemetry, "pd_converged_total"), pd_solves),
        "share",
        None,
    );
    report.metric(
        "core.p2_fastpath_share",
        share(counter(telemetry, "p2_fastpath_hits_total"), p2_slot_solves),
        "share",
        None,
    );

    let sink_ns: u64 = probe
        .spans()
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                probe::SINK_SLOT | probe::SINK_LEDGER | probe::SINK_RATIO
            )
        })
        .map(|s| s.dur_ns)
        .sum();
    report.metric(
        "serve.sink_self_share",
        share(sink_ns as f64 / 1e3, st.slot_us as f64),
        "share",
        None,
    );
    let sink_slot_us = probe.durations(probe::SINK_SLOT, 1e3);
    report.metric(
        "serve.sink_slot_us",
        median("serve.sink_slot_us", &sink_slot_us)?,
        "us",
        Some(sink_slot_us.len()),
    );
    let decide_ms = probe.durations(probe::DECIDE, 1e6);
    report.metric(
        "online.decide_ms",
        median("online.decide_ms", &decide_ms)?,
        "ms",
        Some(decide_ms.len()),
    );

    // Every span's share of slot time, largest first, for the table.
    let mut by_size: Vec<_> = st.self_us.iter().collect();
    by_size.sort_by(|a, b| b.1.cmp(a.1));
    for (name, us) in by_size {
        report.info(
            &format!("self_share.{name}"),
            share(*us as f64, st.slot_us as f64),
            "share",
            None,
        );
    }
    if let Some((name, _)) = st.largest() {
        report
            .notes
            .push(format!("largest program self time: {name}"));
    }
    report.info("host.nproc", crate::report::nproc() as f64, "count", None);
    Ok(())
}

/// Writes the harness spans and the program's folded stacks under
/// `dir`, named after the workload and seed.
pub fn write_traces(
    dir: &Path,
    stem: &str,
    telemetry: &Telemetry,
    probe: &Probe,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot write traces under {}: {e}", dir.display());
    fs::create_dir_all(dir).map_err(io)?;
    let mut spans =
        BufWriter::new(fs::File::create(dir.join(format!("{stem}.spans.jsonl"))).map_err(io)?);
    probe.write_jsonl(&mut spans).map_err(io)?;
    spans.flush().map_err(io)?;
    let mut folded =
        BufWriter::new(fs::File::create(dir.join(format!("{stem}.folded"))).map_err(io)?);
    telemetry
        .tracer()
        .write_collapsed(&mut folded)
        .map_err(io)?;
    folded.flush().map_err(io)?;
    Ok(())
}
