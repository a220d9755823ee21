//! Trace export: one-event-per-line JSONL and a flat CSV projection.
//!
//! Both formats are hand-rolled (the offline toolchain carries no JSON
//! dependency) and stable: columns and key order are part of the tooling
//! contract so downstream scripts can depend on them.

use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::recorder::TraceLog;

/// Formats an `f64` compactly but round-trippably (Rust's shortest
/// representation that parses back to the same value).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN literals; encode as a string marker.
        format!("\"{v}\"")
    }
}

fn json_event(e: &TraceEvent, out: &mut String) {
    let _ = write!(
        out,
        "{{\"t_ns\":{},\"event\":\"{}\"",
        e.at().as_nanos(),
        e.kind()
    );
    match *e {
        TraceEvent::EpochTick { epoch, .. } => {
            let _ = write!(out, ",\"epoch\":{epoch}");
        }
        TraceEvent::Decision {
            app,
            target,
            score,
            ref logits,
            ..
        } => {
            match app {
                Some(a) => {
                    let _ = write!(out, ",\"app\":{}", a.value());
                }
                None => out.push_str(",\"app\":null"),
            }
            match target {
                Some(c) => {
                    let _ = write!(out, ",\"target\":{}", c.index());
                }
                None => out.push_str(",\"target\":null"),
            }
            let _ = write!(out, ",\"score\":{}", num(score));
            out.push_str(",\"logits\":[");
            for (i, l) in logits.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", num(f64::from(*l)));
            }
            out.push(']');
        }
        TraceEvent::Migration { app, from, to, .. } => {
            let _ = write!(
                out,
                ",\"app\":{},\"from\":{},\"to\":{}",
                app.value(),
                from.index(),
                to.index()
            );
        }
        TraceEvent::DvfsTransition {
            cluster,
            from_level,
            to_level,
            ..
        } => {
            let _ = write!(
                out,
                ",\"cluster\":{},\"from_level\":{from_level},\"to_level\":{to_level}",
                cluster.index()
            );
        }
        TraceEvent::QosSample {
            app,
            current,
            target,
            ..
        } => {
            let _ = write!(
                out,
                ",\"app\":{},\"current_ips\":{},\"target_ips\":{}",
                app.value(),
                num(current.value()),
                num(target.value())
            );
        }
        TraceEvent::ThermalSample {
            sensor, throttling, ..
        } => {
            let _ = write!(
                out,
                ",\"sensor_c\":{},\"throttling\":{throttling}",
                num(sensor.value())
            );
        }
        TraceEvent::NpuJob {
            batch,
            latency,
            backend,
            ok,
            ..
        } => {
            let _ = write!(
                out,
                ",\"batch\":{batch},\"latency_ns\":{},\"backend\":\"{backend}\",\"ok\":{ok}",
                latency.as_nanos()
            );
        }
        TraceEvent::Fault { kind, .. } => {
            let _ = write!(out, ",\"kind\":\"{kind}\"");
        }
        TraceEvent::AppAdmitted { app, core, .. } => {
            let _ = write!(out, ",\"app\":{},\"core\":{}", app.value(), core.index());
        }
        TraceEvent::AppCompleted {
            app,
            finished,
            violation_time,
            energy,
            migrations,
            ..
        } => {
            let _ = write!(
                out,
                ",\"app\":{},\"finished\":{finished},\"violation_ns\":{},\"energy_j\":{},\"migrations\":{migrations}",
                app.value(),
                violation_time.as_nanos(),
                num(energy.value())
            );
        }
        TraceEvent::RunEnd {
            energy,
            violation_time,
            migrations,
            ..
        } => {
            let _ = write!(
                out,
                ",\"energy_j\":{},\"violation_ns\":{},\"migrations\":{migrations}",
                num(energy.value()),
                violation_time.as_nanos(),
            );
        }
        TraceEvent::CheckpointSaved {
            scope, seq, bytes, ..
        } => {
            let _ = write!(
                out,
                ",\"scope\":\"{scope}\",\"seq\":{seq},\"bytes\":{bytes}"
            );
        }
        TraceEvent::CheckpointRestored {
            scope,
            seq,
            skipped,
            ..
        } => {
            let _ = write!(
                out,
                ",\"scope\":\"{scope}\",\"seq\":{seq},\"skipped\":{skipped}"
            );
        }
    }
    out.push('}');
}

/// Renders a trace as JSON Lines: a header object (hash and stream
/// counters), then one object per retained event.
///
/// # Examples
///
/// ```
/// use hmc_types::SimTime;
/// use trace::{to_jsonl, TraceConfig, TraceEvent};
///
/// let mut r = TraceConfig::decisions().recorder().unwrap();
/// r.record(TraceEvent::EpochTick { at: SimTime::ZERO, epoch: 0 });
/// let jsonl = to_jsonl(&r.finish());
/// assert!(jsonl.lines().next().unwrap().contains("\"trace_hash\""));
/// assert!(jsonl.contains("\"event\":\"epoch_tick\""));
/// ```
pub fn to_jsonl(log: &TraceLog) -> String {
    let mut out = String::with_capacity(64 * (log.events.len() + 1));
    let _ = writeln!(
        out,
        "{{\"trace_hash\":\"{}\",\"emitted\":{},\"dropped\":{}}}",
        log.hash, log.emitted, log.dropped
    );
    for e in &log.events {
        json_event(e, &mut out);
        out.push('\n');
    }
    out
}

/// CSV header for [`to_csv`].
pub const CSV_HEADER: &str =
    "t_ns,event,app,core_from,core_to,cluster,level_from,level_to,value_a,value_b,flag,detail";

fn csv_row(e: &TraceEvent, out: &mut String) {
    struct Row<'a> {
        app: String,
        from: String,
        to: String,
        cluster: String,
        lf: String,
        lt: String,
        a: String,
        b: String,
        flag: String,
        detail: &'a str,
    }
    let empty = || String::new();
    let mut row = Row {
        app: empty(),
        from: empty(),
        to: empty(),
        cluster: empty(),
        lf: empty(),
        lt: empty(),
        a: empty(),
        b: empty(),
        flag: empty(),
        detail: "",
    };
    match *e {
        TraceEvent::EpochTick { epoch, .. } => row.a = epoch.to_string(),
        TraceEvent::Decision {
            app,
            target,
            score,
            ref logits,
            ..
        } => {
            row.app = app.map(|a| a.value().to_string()).unwrap_or_default();
            row.to = target.map(|c| c.index().to_string()).unwrap_or_default();
            row.a = format!("{score}");
            row.b = logits.len().to_string();
        }
        TraceEvent::Migration { app, from, to, .. } => {
            row.app = app.value().to_string();
            row.from = from.index().to_string();
            row.to = to.index().to_string();
        }
        TraceEvent::DvfsTransition {
            cluster,
            from_level,
            to_level,
            ..
        } => {
            row.cluster = cluster.index().to_string();
            row.lf = from_level.to_string();
            row.lt = to_level.to_string();
        }
        TraceEvent::QosSample {
            app,
            current,
            target,
            ..
        } => {
            row.app = app.value().to_string();
            row.a = format!("{}", current.value());
            row.b = format!("{}", target.value());
        }
        TraceEvent::ThermalSample {
            sensor, throttling, ..
        } => {
            row.a = format!("{}", sensor.value());
            row.flag = throttling.to_string();
        }
        TraceEvent::NpuJob {
            batch,
            latency,
            backend,
            ok,
            ..
        } => {
            row.a = batch.to_string();
            row.b = latency.as_nanos().to_string();
            row.flag = ok.to_string();
            row.detail = match backend {
                crate::event::TraceBackend::Npu => "npu",
                crate::event::TraceBackend::Cpu => "cpu",
            };
        }
        TraceEvent::Fault { kind, .. } => row.detail = kind.name(),
        TraceEvent::AppAdmitted { app, core, .. } => {
            row.app = app.value().to_string();
            row.to = core.index().to_string();
        }
        TraceEvent::AppCompleted {
            app,
            finished,
            violation_time,
            energy,
            migrations,
            ..
        } => {
            row.app = app.value().to_string();
            row.flag = finished.to_string();
            row.a = violation_time.as_nanos().to_string();
            row.b = format!("{}", energy.value());
            row.lf = migrations.to_string();
        }
        TraceEvent::RunEnd {
            energy,
            violation_time,
            migrations,
            ..
        } => {
            row.a = energy.value().to_string();
            row.b = violation_time.as_nanos().to_string();
            row.lf = migrations.to_string();
        }
        TraceEvent::CheckpointSaved {
            scope, seq, bytes, ..
        } => {
            row.a = seq.to_string();
            row.b = bytes.to_string();
            row.detail = scope.name();
        }
        TraceEvent::CheckpointRestored {
            scope,
            seq,
            skipped,
            ..
        } => {
            row.a = seq.to_string();
            row.b = skipped.to_string();
            row.detail = scope.name();
        }
    }
    let _ = write!(
        out,
        "{},{},{},{},{},{},{},{},{},{},{},{}",
        e.at().as_nanos(),
        e.kind(),
        row.app,
        row.from,
        row.to,
        row.cluster,
        row.lf,
        row.lt,
        row.a,
        row.b,
        row.flag,
        row.detail
    );
}

/// Renders a trace as CSV with the fixed [`CSV_HEADER`] schema. Sparse
/// columns are left empty for event kinds they do not apply to.
///
/// # Examples
///
/// ```
/// use hmc_types::SimTime;
/// use trace::{to_csv, TraceConfig, TraceEvent};
///
/// let mut r = TraceConfig::decisions().recorder().unwrap();
/// r.record(TraceEvent::EpochTick { at: SimTime::ZERO, epoch: 7 });
/// let csv = to_csv(&r.finish());
/// let mut lines = csv.lines();
/// assert!(lines.next().unwrap().starts_with("t_ns,event"));
/// assert_eq!(lines.next().unwrap(), "0,epoch_tick,,,,,,,7,,,");
/// ```
pub fn to_csv(log: &TraceLog) -> String {
    let mut out = String::with_capacity(48 * (log.events.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for e in &log.events {
        csv_row(e, &mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceConfig;
    use hmc_types::{AppId, CoreId, SimTime};

    fn sample_log() -> TraceLog {
        let mut r = TraceConfig::decisions().recorder().unwrap();
        r.record(TraceEvent::EpochTick {
            at: SimTime::ZERO,
            epoch: 0,
        });
        r.record(TraceEvent::Decision {
            at: SimTime::ZERO,
            app: Some(AppId::new(3)),
            target: Some(CoreId::new(4)),
            score: 1.5,
            logits: vec![0.25, -0.5],
        });
        r.record(TraceEvent::Migration {
            at: SimTime::ZERO,
            app: AppId::new(3),
            from: CoreId::new(0),
            to: CoreId::new(4),
        });
        r.finish()
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let log = sample_log();
        let jsonl = to_jsonl(&log);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + log.events.len());
        assert!(lines[0].contains(&format!("\"trace_hash\":\"{}\"", log.hash)));
        assert!(lines[1].contains("\"event\":\"epoch_tick\""));
        assert!(lines[2].contains("\"logits\":[0.25,-0.5]"));
        assert!(lines[3].contains("\"from\":0"));
        // Every line is a braced object.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line: {l}");
        }
    }

    #[test]
    fn csv_has_fixed_width_rows() {
        let csv = to_csv(&sample_log());
        let commas = CSV_HEADER.matches(',').count();
        for line in csv.lines() {
            assert_eq!(line.matches(',').count(), commas, "ragged row: {line}");
        }
    }

    #[test]
    fn non_finite_scores_stay_valid_json() {
        let mut r = TraceConfig::decisions().recorder().unwrap();
        r.record(TraceEvent::Decision {
            at: SimTime::ZERO,
            app: None,
            target: None,
            score: f64::NEG_INFINITY,
            logits: vec![],
        });
        let jsonl = to_jsonl(&r.finish());
        assert!(jsonl.contains("\"score\":\"-inf\""), "{jsonl}");
    }
}
