//! CSV serialization of the data-bearing reports, for external plotting.

use std::fmt::Write as _;

use hmc_types::Cluster;

use crate::fig10::Fig10Report;
use crate::fig11::Fig11Report;
use crate::fig8::Fig8Report;
use crate::fig9::Fig9Report;
use crate::fleet::FleetReport;
use crate::overload::OverloadReport;
use crate::sensitivity::SensitivityReport;
use edge_sim::{EdgeReport, StormPreset};

/// Escapes one CSV field (quotes fields containing separators).
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Fig. 8 rows: `cooling,interarrival_s,policy,avg_temp_c,avg_temp_std,violations,violations_std`.
pub fn fig8_csv(report: &Fig8Report) -> String {
    let mut out = String::from(
        "cooling,mean_interarrival_s,policy,avg_temp_c,avg_temp_std,violations,violations_std\n",
    );
    for rate in &report.rates {
        for (policy, temp, viol) in rate.summary() {
            let _ = writeln!(
                out,
                "{},{},{},{:.3},{:.3},{:.3},{:.3}",
                report.cooling,
                rate.mean_interarrival.as_secs_f64(),
                field(&policy),
                temp.mean,
                temp.std,
                viol.mean,
                viol.std
            );
        }
    }
    out
}

/// Fig. 9 rows: `policy,cluster,level,busy_seconds`.
pub fn fig9_csv(report: &Fig9Report) -> String {
    let mut out = String::from("policy,cluster,level,busy_seconds\n");
    for (policy, profile) in &report.profiles {
        for (cluster, levels) in [
            (Cluster::Little, &profile.little),
            (Cluster::Big, &profile.big),
        ] {
            for (level, secs) in levels.iter().enumerate() {
                let _ = writeln!(out, "{},{cluster},{level},{secs:.3}", field(policy));
            }
        }
    }
    out
}

/// Fig. 10 rows: `policy,avg_temp_c,violating,executions,violating_apps`.
pub fn fig10_csv(report: &Fig10Report) -> String {
    let mut out =
        String::from("policy,avg_temp_c,avg_temp_std,violating,executions,violating_apps\n");
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{},{},{}",
            field(&row.policy),
            row.avg_temperature.mean,
            row.avg_temperature.std,
            row.violating_executions,
            row.executions,
            field(&row.violating_benchmarks.join(";"))
        );
    }
    out
}

/// Fig. 11 rows: `apps,dvfs_ms_per_s,migration_npu_ms_per_s,migration_cpu_ms_per_s`.
pub fn fig11_csv(report: &Fig11Report) -> String {
    let mut out =
        String::from("apps,dvfs_ms_per_s,migration_npu_ms_per_s,migration_cpu_ms_per_s\n");
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4}",
            row.apps, row.dvfs_ms_per_s, row.migration_npu_ms_per_s, row.migration_cpu_ms_per_s
        );
    }
    out
}

/// Sensitivity rows: `perturbation,policy,avg_temp_c,violations,conclusions_hold`.
pub fn sensitivity_csv(report: &SensitivityReport) -> String {
    let mut out = String::from("perturbation,policy,avg_temp_c,violations,conclusions_hold\n");
    for row in &report.rows {
        for (policy, temp, violations) in &row.outcomes {
            let _ = writeln!(
                out,
                "{},{},{temp:.3},{violations},{}",
                field(&row.label),
                field(policy),
                row.conclusions_hold()
            );
        }
    }
    out
}

/// Fleet rows, long format: `section,index,metric,value`.
///
/// Three sections: `summary` (aggregate service metrics, index empty),
/// `hist` (index = requests per batch, value = batch count) and `board`
/// (index = board number, one row per per-board metric). The output is
/// byte-deterministic for a given [`crate::fleet::FleetConfig`] — the CI
/// smoke gate hashes it across two runs.
pub fn fleet_csv(report: &FleetReport) -> String {
    let mut out = String::from("section,index,metric,value\n");
    let mut summary = |metric: &str, value: String| {
        let _ = writeln!(out, "summary,,{metric},{value}");
    };
    summary("boards", report.config.boards.to_string());
    summary("epochs", report.config.epochs.to_string());
    summary("devices", report.config.devices.to_string());
    summary("max_batch", report.config.max_batch.to_string());
    summary("submitted", report.submitted.to_string());
    summary(
        "rejected_submissions",
        report.rejected_submissions.to_string(),
    );
    summary("served", report.served.to_string());
    summary("dropped", report.dropped.to_string());
    summary("batches", report.batches.to_string());
    summary("mean_batch_size", format!("{:.4}", report.mean_batch_size));
    summary("p50_ms", format!("{:.6}", report.p50.as_secs_f64() * 1e3));
    summary("p95_ms", format!("{:.6}", report.p95.as_secs_f64() * 1e3));
    summary("p99_ms", format!("{:.6}", report.p99.as_secs_f64() * 1e3));
    summary(
        "serial_device_s",
        format!("{:.6}", report.serial_device_time.as_secs_f64()),
    );
    summary(
        "pool_device_s",
        format!("{:.6}", report.pool_device_time.as_secs_f64()),
    );
    summary(
        "speedup_vs_serial",
        format!("{:.4}", report.speedup_vs_serial),
    );
    summary("throughput_rps", format!("{:.4}", report.throughput_rps));
    summary("mismatches", report.mismatches.to_string());
    // Every queue-full rejection is a saturation; the row name predates
    // the counter and stays for CSV compatibility.
    summary("saturation_events", report.rejected_submissions.to_string());
    summary("cache_hits", report.cache_hits.to_string());
    summary("cache_misses", report.cache_misses.to_string());
    summary("churn_events", report.churn_events.to_string());
    summary(
        "reassigned_inflight",
        report.reassigned_inflight.to_string(),
    );
    summary(
        "checkpoint_restores",
        report.checkpoint_restores.to_string(),
    );
    summary("availability", format!("{:.6}", report.availability));
    for (n, &count) in report.batch_histogram.iter().enumerate() {
        if count > 0 {
            let _ = writeln!(out, "hist,{n},batches,{count}");
        }
    }
    for b in &report.boards {
        let i = b.board;
        let _ = writeln!(out, "board,{i},avg_temp_c,{:.3}", b.avg_temp_c);
        let _ = writeln!(out, "board,{i},peak_temp_c,{:.3}", b.peak_temp_c);
        let _ = writeln!(out, "board,{i},violations,{}", b.violations);
        let _ = writeln!(out, "board,{i},executions,{}", b.executions);
        let _ = writeln!(out, "board,{i},migrations,{}", b.migrations);
        let _ = writeln!(out, "board,{i},degraded_epochs,{}", b.degraded_epochs);
        let _ = writeln!(out, "board,{i},fallback_epochs,{}", b.fallback_epochs);
        let _ = writeln!(out, "board,{i},crashes,{}", b.crashes);
        let _ = writeln!(out, "board,{i},down_epochs,{}", b.down_epochs);
        let _ = writeln!(out, "board,{i},reassigned,{}", b.reassigned);
        let _ = writeln!(out, "board,{i},adopted_arrivals,{}", b.adopted_arrivals);
    }
    out
}

/// Overload rows, long format: `section,index,metric,value`.
///
/// Two sections: `summary` (whole-run metrics, index empty) and `epoch`
/// (index = metric epoch, one row per per-epoch metric). The output is
/// byte-deterministic for a given [`crate::overload::OverloadConfig`] —
/// the CI overload gate greps the invariants and diffs it across thread
/// budgets.
pub fn overload_csv(report: &OverloadReport) -> String {
    let mut out = String::from("section,index,metric,value\n");
    let mut summary = |metric: &str, value: String| {
        let _ = writeln!(out, "summary,,{metric},{value}");
    };
    summary("overload", format!("{:.2}", report.config.overload));
    summary("clients", report.config.clients.to_string());
    summary("loris_clients", report.config.loris_clients.to_string());
    summary("epochs", report.config.epochs.to_string());
    summary("devices", report.config.devices.to_string());
    summary(
        "fault_storm",
        u8::from(report.config.fault_storm).to_string(),
    );
    summary("attempts", report.attempts.to_string());
    summary("admitted", report.admitted.to_string());
    summary("served", report.served.to_string());
    summary("expired", report.expired.to_string());
    summary("shed", report.shed.to_string());
    summary("rate_limited", report.rate_limited.to_string());
    summary("degraded", report.degraded.to_string());
    summary("retries", report.retries.to_string());
    summary("deadline_misses", report.deadline_misses.to_string());
    summary("dropped", report.dropped.to_string());
    summary("shed_rate", format!("{:.6}", report.shed_rate));
    summary(
        "p99_queue_wait_ms",
        format!("{:.6}", report.p99_queue_wait.as_secs_f64() * 1e3),
    );
    summary("utilization", format!("{:.6}", report.utilization));
    summary("breaker_opens", report.breaker_opens.to_string());
    for (i, epoch) in report.epochs.iter().enumerate() {
        let _ = writeln!(out, "epoch,{i},queue_depth,{}", epoch.queue_depth);
        let _ = writeln!(out, "epoch,{i},utilization,{:.6}", epoch.utilization);
        let _ = writeln!(out, "epoch,{i},shed_rate,{:.6}", epoch.shed_rate);
        let p99 = epoch.p99_queue_wait.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let _ = writeln!(out, "epoch,{i},p99_queue_wait_ms,{p99:.6}");
        let _ = writeln!(out, "epoch,{i},admitted,{}", epoch.admitted);
        let _ = writeln!(out, "epoch,{i},served,{}", epoch.served);
        let _ = writeln!(out, "epoch,{i},shed,{}", epoch.shed);
        let _ = writeln!(out, "epoch,{i},expired,{}", epoch.expired);
    }
    out
}

/// Edge-fleet rows, long format: `section,index,metric,value`.
///
/// Three sections: `summary` (fleet-wide metrics, index empty), `region`
/// (index = region number, one row per per-region metric, regions in
/// ascending order) and `violation` (index = violation number, absent on
/// a clean run). `storm` is the run's [`edge_sim::EdgeConfig::storm`];
/// its `summary,,storm` row reads `none` without one. The edge and chaos
/// CI gates grep `summary,,invariant_violations,0` and diff the full
/// output across thread budgets, so every value must be byte-deterministic
/// for a given [`edge_sim::EdgeConfig`]. Wall-clock quantities
/// (boards/second) deliberately never appear here — they go to stderr
/// and the BENCH json.
pub fn edge_csv(report: &EdgeReport, storm: Option<StormPreset>) -> String {
    let mut out = String::from("section,index,metric,value\n");
    let mut summary = |metric: &str, value: String| {
        let _ = writeln!(out, "summary,,{metric},{value}");
    };
    summary("boards", report.boards.to_string());
    summary("users", report.users.to_string());
    summary("active_users", report.active_users.to_string());
    summary("regions", report.regions.len().to_string());
    summary("epochs", report.epochs.to_string());
    summary("seed", report.seed.to_string());
    summary("generated", report.generated.to_string());
    summary("truncated", report.truncated.to_string());
    summary("submitted", report.submitted.to_string());
    summary("replies", report.replies.to_string());
    summary("failed", report.failed.to_string());
    summary("rack_served", report.rack_served.to_string());
    summary("regional_served", report.regional_served.to_string());
    summary("cpu_served", report.cpu_served.to_string());
    summary("failovers", report.failovers.to_string());
    summary("hedges", report.hedges.to_string());
    summary("hedges_infeasible", report.hedges_infeasible.to_string());
    summary(
        "breaker_transitions",
        report.breaker_transitions.to_string(),
    );
    summary("storm_events", report.storm_events.to_string());
    summary("outage_epochs", report.outage_epochs.to_string());
    summary("shed_rate", format!("{:.6}", report.shed_rate));
    summary("hedge_rate", format!("{:.6}", report.hedge_rate));
    summary(
        "qos_p50_ms",
        format!("{:.6}", report.qos_p50.as_secs_f64() * 1e3),
    );
    summary(
        "qos_p99_ms",
        format!("{:.6}", report.qos_p99.as_secs_f64() * 1e3),
    );
    summary("thermal_violations", report.thermal_violations.to_string());
    summary(
        "thermal_violation_rate",
        format!("{:.6}", report.thermal_violation_rate),
    );
    summary("peak_temp_c", format!("{:.3}", report.peak_temp));
    summary("invariant_violations", report.violations.len().to_string());
    summary("suspects", report.suspects.to_string());
    summary("recoveries", report.recoveries.to_string());
    summary(
        "detection_max_ms",
        format!("{:.6}", report.detection_latency_max.as_secs_f64() * 1e3),
    );
    summary("availability", format!("{:.6}", report.availability));
    summary("storm", storm.map_or("none", |s| s.name()).to_string());
    for r in &report.regions {
        let i = r.region;
        let _ = writeln!(out, "region,{i},boards,{}", r.boards);
        let _ = writeln!(out, "region,{i},users,{}", r.users);
        let _ = writeln!(out, "region,{i},active_users,{}", r.active_users);
        let _ = writeln!(out, "region,{i},generated,{}", r.generated);
        let _ = writeln!(out, "region,{i},truncated,{}", r.truncated);
        let _ = writeln!(out, "region,{i},submitted,{}", r.submitted);
        let _ = writeln!(out, "region,{i},replies,{}", r.replies);
        let _ = writeln!(out, "region,{i},failed,{}", r.failed);
        let _ = writeln!(out, "region,{i},rack_served,{}", r.rack_served);
        let _ = writeln!(out, "region,{i},regional_served,{}", r.regional_served);
        let _ = writeln!(out, "region,{i},cpu_served,{}", r.cpu_served);
        let _ = writeln!(out, "region,{i},failovers,{}", r.failovers);
        let _ = writeln!(out, "region,{i},hedges,{}", r.hedges);
        let _ = writeln!(out, "region,{i},hedges_infeasible,{}", r.hedges_infeasible);
        let _ = writeln!(
            out,
            "region,{i},breaker_transitions,{}",
            r.breaker_transitions
        );
        let _ = writeln!(out, "region,{i},storm_events,{}", r.storm_events);
        let _ = writeln!(out, "region,{i},outage_epochs,{}", r.outage_epochs);
        let _ = writeln!(
            out,
            "region,{i},qos_p50_ms,{:.6}",
            r.qos_p50.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            out,
            "region,{i},qos_p99_ms,{:.6}",
            r.qos_p99.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            out,
            "region,{i},thermal_violations,{}",
            r.thermal_violations
        );
        let _ = writeln!(out, "region,{i},peak_temp_c,{:.3}", r.peak_temp);
        let _ = writeln!(out, "region,{i},suspects,{}", r.suspects);
        let _ = writeln!(out, "region,{i},recoveries,{}", r.recoveries);
        let _ = writeln!(
            out,
            "region,{i},detection_max_ms,{:.6}",
            r.detection_latency_max.as_secs_f64() * 1e3
        );
        let _ = writeln!(out, "region,{i},availability,{:.6}", r.availability);
    }
    for (i, violation) in report.violations.iter().enumerate() {
        let _ = writeln!(out, "violation,{i},text,{}", field(violation));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(field("two\nlines"), "\"two\nlines\"");
        assert_eq!(field(""), "");
    }

    /// The headers are a contract with external plotting scripts: any
    /// rename or reorder must be deliberate (and versioned), not a
    /// side effect of a refactor.
    #[test]
    fn long_format_headers_are_stable() {
        let edge = edge_csv(&edge_sim::run(&small_edge()), None);
        let chaos = edge_csv(&edge_sim::run(&small_chaos()), Some(StormPreset::All));
        for csv in [&edge, &chaos] {
            assert_eq!(csv.lines().next().unwrap(), "section,index,metric,value");
        }
    }

    fn small_edge() -> edge_sim::EdgeConfig {
        edge_sim::EdgeConfig {
            boards: 16,
            users: 1_000,
            regions: 2,
            racks_per_region: 2,
            epochs: 8,
            ..edge_sim::EdgeConfig::default()
        }
    }

    fn small_chaos() -> edge_sim::EdgeConfig {
        edge_sim::EdgeConfig {
            boards: 6,
            racks_per_region: 2,
            epochs: 10,
            seed: 3,
            ..edge_sim::EdgeConfig::chaos(StormPreset::All)
        }
    }

    #[test]
    fn edge_csv_carries_the_gate_row() {
        let csv = edge_csv(&edge_sim::run(&small_edge()), None);
        assert!(csv.starts_with("section,index,metric,value\n"));
        assert!(csv.contains("\nsummary,,invariant_violations,0\n"));
        assert!(csv.contains("\nsummary,,boards,16\n"));
        assert!(csv.contains("\nsummary,,storm,none\n"));
        assert!(csv.contains("\nsummary,,availability,1.000000\n"));
        assert!(!csv.contains("\nviolation,"));
        // Wall-clock metrics must never leak into the deterministic CSV.
        assert!(!csv.contains("boards_per_sec"));
    }

    #[test]
    fn edge_csv_rows_are_deterministically_ordered_across_budgets() {
        let config = small_edge();
        let serial = edge_csv(&edge_sim::run(&config), None);
        let threaded = edge_csv(
            &edge_sim::run(&edge_sim::EdgeConfig {
                budget: par::Budget::with_threads(4),
                ..config
            }),
            None,
        );
        assert_eq!(
            serial, threaded,
            "edge CSV must be byte-identical at every thread budget"
        );
        // Region sections appear in ascending region order.
        let first = serial.find("\nregion,0,").expect("region 0 rows");
        let second = serial.find("\nregion,1,").expect("region 1 rows");
        assert!(first < second, "region rows out of order");
    }

    #[test]
    fn fig10_csv_shape() {
        use crate::harness::Stat;
        let report = Fig10Report {
            rows: vec![crate::fig10::PolicyRow {
                policy: "TOP-IL".to_string(),
                avg_temperature: Stat {
                    mean: 28.4,
                    std: 0.2,
                },
                violating_executions: 0,
                executions: 27,
                violating_benchmarks: vec![],
            }],
        };
        let csv = fig10_csv(&report);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("TOP-IL,28.400,0.200,0,27,"));
    }

    #[test]
    fn sensitivity_csv_shape() {
        let report = SensitivityReport {
            rows: vec![crate::sensitivity::SensitivityRow {
                label: "lateral x2.0".to_string(),
                outcomes: vec![
                    ("TOP-IL".to_string(), 32.0, 1),
                    ("GTS/ondemand".to_string(), 40.0, 0),
                    ("GTS/powersave".to_string(), 31.0, 9),
                ],
            }],
        };
        let csv = sensitivity_csv(&report);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("lateral x2.0,TOP-IL,32.000,1,true"));
    }

    #[test]
    fn storm_preset_csv_carries_the_gate_rows() {
        let config = small_chaos();
        let csv = edge_csv(&edge_sim::run(&config), config.storm);
        assert!(csv.starts_with("section,index,metric,value\n"));
        assert!(csv.contains("\nsummary,,invariant_violations,0\n"));
        assert!(csv.contains("\nsummary,,storm,all\n"));
        assert!(csv.contains("\nregion,0,availability,"));
        assert!(!csv.contains("\nsummary,,availability,1.000000\n"));
        assert!(!csv.contains("\nviolation,"));
    }

    #[test]
    fn fig11_csv_shape() {
        let report = Fig11Report {
            rows: vec![crate::fig11::OverheadRow {
                apps: 4,
                dvfs_ms_per_s: 2.5,
                migration_npu_ms_per_s: 8.1,
                migration_cpu_ms_per_s: 2.7,
            }],
        };
        let csv = fig11_csv(&report);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("apps,"));
        assert_eq!(lines.next().unwrap(), "4,2.5000,8.1000,2.7000");
        assert!(lines.next().is_none());
    }
}
