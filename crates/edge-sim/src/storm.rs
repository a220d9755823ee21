//! Seeded fault-storm presets: the chaos scenarios as edge-fleet
//! storms.
//!
//! A preset is a recipe for a [`StormBuilder`]: crash waves, rack
//! partitions, heartbeat silence and regional slowdowns at epoch
//! anchors that scale with the run length, so every preset stays
//! meaningful at any `epochs`. [`crate::run()`] applies the recipe in
//! every region with that region's board count and rack count, and the
//! tier's own invariant checker watches the result.

use std::fmt;

use faults::StormBuilder;

/// The seeded fault storm an edge run injects in every region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormPreset {
    /// Two crash waves take boards out and bring them back.
    CrashWave,
    /// A rack is partitioned from the regional tier, then heals.
    Partition,
    /// A rack goes heartbeat-silent; the failure detector must notice.
    Heartbeat,
    /// The regional tier slows down, then recovers.
    SlowTier,
    /// All of the above, overlapped, plus steady board churn.
    All,
}

impl StormPreset {
    /// Every preset, in CLI/reporting order.
    pub const ALL: [StormPreset; 5] = [
        StormPreset::CrashWave,
        StormPreset::Partition,
        StormPreset::Heartbeat,
        StormPreset::SlowTier,
        StormPreset::All,
    ];

    /// The CLI name of this preset.
    pub fn name(&self) -> &'static str {
        match self {
            StormPreset::CrashWave => "crash-wave",
            StormPreset::Partition => "partition",
            StormPreset::Heartbeat => "heartbeat",
            StormPreset::SlowTier => "slow-tier",
            StormPreset::All => "all",
        }
    }

    /// Parses a CLI name; `None` for unknown values (the caller prints
    /// usage and exits 2 — never panics).
    pub fn parse(name: &str) -> Option<StormPreset> {
        StormPreset::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Adds this preset's events to `builder`, for a region of `boards`
    /// boards in `racks` racks over `epochs` epochs. Anchors sit at
    /// quarters of the run.
    pub(crate) fn apply(
        self,
        builder: StormBuilder,
        boards: usize,
        racks: usize,
        epochs: u64,
    ) -> StormBuilder {
        let quarter = (epochs / 4).max(1);
        match self {
            StormPreset::CrashWave => builder
                .crash_wave(quarter, (boards / 3).max(1), quarter)
                .crash_wave(3 * quarter, (boards / 4).max(1), quarter),
            StormPreset::Partition => builder.rack_partition(0, quarter, quarter),
            StormPreset::Heartbeat => builder.heartbeat_loss(0, quarter, quarter),
            StormPreset::SlowTier => builder.slow_tier(3.0, quarter, 2 * quarter),
            StormPreset::All => builder
                .crash_wave(quarter, (boards / 3).max(1), quarter)
                .rack_partition(0, quarter, quarter)
                .heartbeat_loss(racks.saturating_sub(1), 2 * quarter, quarter)
                .slow_tier(3.0, 2 * quarter, quarter)
                .churn(5, 3),
        }
    }
}

impl fmt::Display for StormPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}
