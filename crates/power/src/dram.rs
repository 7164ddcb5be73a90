//! Off-chip GDDR5 device power (paper §III-C5).
//!
//! "The power consumed by typical DDR or GDDR chips can be divided into
//! background, activate, read/write, termination, and refresh power" —
//! the Micron power-calculation methodology (paper refs. \[26\], \[27\])
//! applied to the command counts the simulator reports.

use gpusimpow_sim::{ActivityVector, EventKind, EventKind as Ev, GpuConfig};
use gpusimpow_tech::units::{Energy, Power, Time};

use crate::empirical;

/// Decomposed DRAM power for one kernel window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramPowerBreakdown {
    /// Standby power of all devices.
    pub background: Power,
    /// Row activate/precharge power.
    pub activate: Power,
    /// Read burst power.
    pub read: Power,
    /// Write burst power.
    pub write: Power,
    /// On-die termination power while the bus is driven.
    pub termination: Power,
    /// Refresh power.
    pub refresh: Power,
}

impl DramPowerBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Power {
        self.background + self.activate + self.read + self.write + self.termination + self.refresh
    }
}

/// The GDDR5 memory-system power model.
#[derive(Debug, Clone)]
pub struct DramPower {
    channels: f64,
    background_per_channel: Power,
    activate_energy: Energy,
    read_energy: Energy,
    write_energy: Energy,
    refresh_energy: Energy,
    termination_active: Power,
}

impl DramPower {
    /// Builds the model for the configured channel count.
    pub fn new(cfg: &GpuConfig) -> Self {
        DramPower {
            channels: cfg.mem_channels as f64,
            background_per_channel: empirical::DRAM_BACKGROUND_PER_CHANNEL,
            activate_energy: empirical::DRAM_ACTIVATE_ENERGY,
            read_energy: empirical::DRAM_READ_BURST_ENERGY,
            write_energy: empirical::DRAM_WRITE_BURST_ENERGY,
            refresh_energy: empirical::DRAM_REFRESH_ENERGY,
            termination_active: empirical::DRAM_TERMINATION_ACTIVE,
        }
    }

    /// Registry events this model consumes (command counts priced per
    /// event plus the two cycle counters behind the bus-busy fraction).
    /// Feeds the registry-coverage test alongside the [`crate::registry::EnergyMap`]s.
    pub const EVENTS: &'static [EventKind] = &[
        Ev::DramActivates,
        Ev::DramReadBursts,
        Ev::DramWriteBursts,
        Ev::DramRefreshes,
        Ev::DramDataBusBusyCycles,
        Ev::DramCycles,
    ];

    /// Evaluates the Micron-style decomposition over a kernel of length
    /// `time` with the given command counts.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not positive.
    pub fn evaluate(&self, activity: &ActivityVector, time: Time) -> DramPowerBreakdown {
        assert!(time > Time::ZERO, "kernel window must have a duration");
        let per = |e: Energy, n: u64| -> Power { e * n as f64 / time };
        // Fraction of wall time any channel drives its data bus.
        let bus_busy = if activity[Ev::DramCycles] == 0 {
            0.0
        } else {
            (activity[Ev::DramDataBusBusyCycles] as f64
                / (activity[Ev::DramCycles] as f64 * self.channels))
                .min(1.0)
        };
        DramPowerBreakdown {
            background: self.background_per_channel * self.channels,
            activate: per(self.activate_energy, activity[Ev::DramActivates]),
            read: per(self.read_energy, activity[Ev::DramReadBursts]),
            write: per(self.write_energy, activity[Ev::DramWriteBursts]),
            termination: self.termination_active * (bus_busy * self.channels),
            refresh: per(self.refresh_energy, activity[Ev::DramRefreshes]),
        }
    }

    /// Background power alone (the static share of the DRAM).
    pub fn background(&self) -> Power {
        self.background_per_channel * self.channels
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;
    use gpusimpow_sim::GpuConfig;

    fn model() -> DramPower {
        DramPower::new(&GpuConfig::gt240())
    }

    #[test]
    fn idle_dram_burns_background_only() {
        let d = model();
        let b = d.evaluate(&ActivityVector::new(), Time::from_millis(1.0));
        assert_eq!(b.activate.watts(), 0.0);
        assert_eq!(b.read.watts(), 0.0);
        assert!((b.total() / d.background() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_traffic_more_power() {
        let d = model();
        let mut light = ActivityVector::new();
        light[Ev::DramActivates] = 100;
        light[Ev::DramReadBursts] = 1000;
        light[Ev::DramCycles] = 1_000_000;
        light[Ev::DramDataBusBusyCycles] = 2000;
        let mut heavy = light.clone();
        heavy[Ev::DramActivates] = 1000;
        heavy[Ev::DramReadBursts] = 10000;
        heavy[Ev::DramDataBusBusyCycles] = 20000;
        let t = Time::from_millis(1.0);
        assert!(d.evaluate(&heavy, t).total() > d.evaluate(&light, t).total());
    }

    #[test]
    fn streaming_workload_lands_in_watt_range() {
        // A fully-streaming GT240 kernel: 2 channels at ~full bus
        // utilization. Paper quotes 4.3 W for blackscholes-class traffic,
        // streaming kernels go higher.
        let d = model();
        let mut s = ActivityVector::new();
        s[Ev::DramCycles] = 850_000; // 1 ms at 850 MHz
        s[Ev::DramDataBusBusyCycles] = 2 * 700_000;
        s[Ev::DramReadBursts] = 350_000;
        s[Ev::DramActivates] = 22_000;
        s[Ev::DramRefreshes] = 400;
        let total = d.evaluate(&s, Time::from_millis(1.0)).total().watts();
        assert!(total > 2.0 && total < 15.0, "streaming DRAM {total} W");
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_window_panics() {
        let _ = model().evaluate(&ActivityVector::new(), Time::ZERO);
    }
}
