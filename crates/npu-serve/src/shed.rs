//! Load-shedding policy: depth/latency watermarks with a backlog-derived
//! retry-after and a CPU-degrade rung before dropping.

use hmc_types::SimDuration;

use crate::{ServeConfig, ShedReason};

/// A snapshot of the service's backlog, taken at one admission decision.
#[derive(Debug, Clone, Copy)]
pub struct Backlog {
    /// Requests waiting in the submission queue.
    pub depth: usize,
    /// Devices whose breaker is not open.
    pub healthy_devices: usize,
    /// How long until the earliest healthy device frees up (zero when one
    /// is idle, or when every breaker is open and the CPU serves).
    pub earliest_free: SimDuration,
    /// Cost model's latency for one full `max_batch` batch on the pool
    /// (the CPU fallback latency when every breaker is open).
    pub batch_latency: SimDuration,
}

/// What the shed layer decided for one submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ShedDecision {
    /// Under every watermark: queue normally.
    Admit,
    /// Estimated service latency crossed the degrade watermark: admit,
    /// but route to the CPU fallback to spare pool capacity.
    DegradeCpu,
    /// A shed watermark crossed: turn the submission away.
    Shed {
        /// Which watermark fired.
        reason: ShedReason,
        /// Backlog-derived resubmission hint.
        retry_after: SimDuration,
    },
}

/// Estimated service latency for the *next* admitted request: wait for a
/// device, then drain the batches queued ahead of it (its own included).
pub(crate) fn estimated_latency(config: &ServeConfig, backlog: &Backlog) -> SimDuration {
    let batches_ahead = backlog.depth / config.max_batch + 1;
    backlog.earliest_free + scale(backlog.batch_latency, batches_ahead as f64)
}

/// Resubmission hint derived from the current backlog: the time the pool
/// needs to drain what is already queued, spread across healthy devices,
/// floored at the static configuration hint. Deeper backlog ⇒ longer
/// hint, so retry storms spread out instead of synchronizing.
pub(crate) fn retry_after(config: &ServeConfig, backlog: &Backlog) -> SimDuration {
    let queued_batches = backlog.depth.div_ceil(config.max_batch);
    let lanes = backlog.healthy_devices.max(1);
    let drain = scale(backlog.batch_latency, queued_batches as f64 / lanes as f64);
    config.retry_after.max(backlog.earliest_free + drain)
}

/// Whether any watermark is configured; without one, [`evaluate`]
/// admits every submission.
pub(crate) fn enabled(config: &ServeConfig) -> bool {
    config.shed_depth_watermark.is_some()
        || config.shed_latency_watermark.is_some()
        || config.cpu_degrade_watermark.is_some()
}

/// Applies the configured watermarks to one admission decision.
///
/// Order: depth watermark (cheapest signal), then estimated-latency shed
/// watermark, then the CPU-degrade rung — so under rising load the
/// service degrades to the CPU *before* it starts dropping, and sheds
/// outright only past the hard watermarks.
pub(crate) fn evaluate(config: &ServeConfig, backlog: &Backlog) -> ShedDecision {
    let hint = retry_after(config, backlog);
    if let Some(depth_mark) = config.shed_depth_watermark {
        if backlog.depth >= depth_mark {
            return ShedDecision::Shed {
                reason: ShedReason::DepthWatermark,
                retry_after: hint,
            };
        }
    }
    let est = estimated_latency(config, backlog);
    if let Some(latency_mark) = config.shed_latency_watermark {
        if est >= latency_mark {
            return ShedDecision::Shed {
                reason: ShedReason::LatencyWatermark,
                retry_after: hint,
            };
        }
    }
    if let Some(degrade_mark) = config.cpu_degrade_watermark {
        if est >= degrade_mark {
            return ShedDecision::DegradeCpu;
        }
    }
    ShedDecision::Admit
}

fn scale(d: SimDuration, factor: f64) -> SimDuration {
    SimDuration::from_secs_f64(d.as_secs_f64() * factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backlog(depth: usize) -> Backlog {
        Backlog {
            depth,
            healthy_devices: 2,
            earliest_free: SimDuration::ZERO,
            batch_latency: SimDuration::from_millis(4),
        }
    }

    fn config() -> ServeConfig {
        ServeConfig {
            shed_depth_watermark: Some(32),
            shed_latency_watermark: Some(SimDuration::from_millis(40)),
            cpu_degrade_watermark: Some(SimDuration::from_millis(20)),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn under_watermarks_admits() {
        assert_eq!(evaluate(&config(), &backlog(0)), ShedDecision::Admit);
    }

    #[test]
    fn depth_watermark_sheds_with_backlog_scaled_hint() {
        let shallow = evaluate(&config(), &backlog(32));
        let deep = evaluate(&config(), &backlog(64));
        let (
            ShedDecision::Shed {
                reason: r1,
                retry_after: h1,
            },
            ShedDecision::Shed {
                reason: r2,
                retry_after: h2,
            },
        ) = (shallow, deep)
        else {
            panic!("watermark crossings must shed: {shallow:?} / {deep:?}");
        };
        assert_eq!(r1, ShedReason::DepthWatermark);
        assert_eq!(r2, ShedReason::DepthWatermark);
        assert!(h2 > h1, "deeper backlog must advertise a longer hint");
        assert!(h1 >= ServeConfig::default().retry_after);
    }

    #[test]
    fn latency_watermark_sheds_before_depth_watermark() {
        // A somewhat busy pool at depth 24: 18 ms wait + (24/16 + 1) * 4
        // ms of batches = 26 ms — past the degrade rung, under the shed
        // watermark.
        let warm = Backlog {
            earliest_free: SimDuration::from_millis(18),
            ..backlog(24)
        };
        assert_eq!(evaluate(&config(), &warm), ShedDecision::DegradeCpu);
        // A busier pool pushes the estimate past 40 ms at the same depth.
        let busy = Backlog {
            earliest_free: SimDuration::from_millis(35),
            ..backlog(24)
        };
        let decision = evaluate(&config(), &busy);
        assert!(matches!(
            decision,
            ShedDecision::Shed {
                reason: ShedReason::LatencyWatermark,
                ..
            }
        ));
    }

    #[test]
    fn neutral_config_never_sheds() {
        let neutral = ServeConfig::default();
        assert_eq!(evaluate(&neutral, &backlog(10_000)), ShedDecision::Admit);
    }
}
