//! Power traces: the time-resolved counterpart of a
//! [`gpusimpow_power::PowerReport`].

use std::fmt;

use gpusimpow_tech::clockdomain::OperatingPoint;
use gpusimpow_tech::units::{Energy, Power, Time};

/// Per-component dynamic power of one window (chip components only;
/// DRAM is off-chip and reported separately, as in Table V).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentPowers {
    /// All SIMT cores together (incl. scheduler/cluster overheads).
    pub cores: Power,
    /// Network-on-chip.
    pub noc: Power,
    /// Memory controllers.
    pub mc: Power,
    /// PCIe controller.
    pub pcie: Power,
    /// L2 cache (zero when absent).
    pub l2: Power,
}

impl ComponentPowers {
    /// Sum over all chip components.
    pub fn total(&self) -> Power {
        self.cores + self.noc + self.mc + self.pcie + self.l2
    }
}

/// One window of a power trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Zero-based window index.
    pub index: u64,
    /// Wall-clock start of the window relative to launch start,
    /// accounting for any DVFS-stretched earlier windows.
    pub start: Time,
    /// Wall-clock duration of the window at its operating point.
    pub duration: Time,
    /// Index into the tracer's DVFS table used for this window.
    pub op_index: usize,
    /// The operating point itself (voltage + shader clock).
    pub op: OperatingPoint,
    /// Core-busy fraction of the window in `[0, 1]`
    /// (`core_busy_cycles / (cycles × total_cores)`).
    pub utilization: f64,
    /// Per-component dynamic power.
    pub dynamic: ComponentPowers,
    /// Chip static power (after voltage scaling and idle-cluster gating).
    pub static_power: Power,
    /// Off-chip DRAM power over the window (not part of chip totals).
    pub dram_power: Power,
}

impl PowerSample {
    /// Chip dynamic power of the window.
    pub fn dynamic_power(&self) -> Power {
        self.dynamic.total()
    }

    /// Chip total (static + dynamic) power of the window.
    pub fn total_power(&self) -> Power {
        self.static_power + self.dynamic_power()
    }

    /// Chip energy of the window.
    pub fn energy(&self) -> Energy {
        self.total_power() * self.duration
    }
}

/// A streaming power trace of one kernel launch: one [`PowerSample`]
/// per activity window, in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// Kernel name.
    pub kernel: String,
    /// Name of the governor that produced the trace.
    pub governor: String,
    /// The samples, in window order.
    pub samples: Vec<PowerSample>,
}

impl PowerTrace {
    /// An empty trace.
    pub fn new(kernel: impl Into<String>, governor: impl Into<String>) -> Self {
        PowerTrace {
            kernel: kernel.into(),
            governor: governor.into(),
            samples: Vec::new(),
        }
    }

    /// Total wall-clock duration (sum of window durations; equals the
    /// launch time only when no governor stretched any window).
    pub fn duration(&self) -> Time {
        self.samples
            .iter()
            .map(|s| s.duration)
            .fold(Time::ZERO, |a, b| a + b)
    }

    /// Chip energy integrated over the trace.
    pub fn chip_energy(&self) -> Energy {
        self.samples
            .iter()
            .map(PowerSample::energy)
            .fold(Energy::ZERO, |a, b| a + b)
    }

    /// Time-weighted average chip power.
    pub fn avg_power(&self) -> Power {
        let t = self.duration();
        if t.seconds() == 0.0 {
            Power::ZERO
        } else {
            self.chip_energy() / t
        }
    }

    /// Highest windowed chip power.
    pub fn peak_power(&self) -> Power {
        self.samples
            .iter()
            .map(PowerSample::total_power)
            .fold(Power::ZERO, Power::max)
    }

    /// Energy-delay product in J·s (chip energy × duration).
    pub fn edp(&self) -> f64 {
        self.chip_energy().joules() * self.duration().seconds()
    }

    /// Renders the trace as CSV (header + one row per window).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,start_s,duration_s,op,freq_mhz,voltage_v,utilization,\
             cores_w,noc_w,mc_w,pcie_w,l2_w,static_w,dynamic_w,total_w,dram_w\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{},{:.9},{:.9},{},{:.1},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
                s.index,
                s.start.seconds(),
                s.duration.seconds(),
                s.op_index,
                s.op.shader_freq.mhz(),
                s.op.voltage.volts(),
                s.utilization,
                s.dynamic.cores.watts(),
                s.dynamic.noc.watts(),
                s.dynamic.mc.watts(),
                s.dynamic.pcie.watts(),
                s.dynamic.l2.watts(),
                s.static_power.watts(),
                s.dynamic_power().watts(),
                s.total_power().watts(),
                s.dram_power.watts(),
            ));
        }
        out
    }

    /// Renders the trace in Chrome trace-event JSON (counter events,
    /// loadable in `chrome://tracing` / Perfetto). Timestamps are in
    /// microseconds; each chip component becomes one series of the
    /// "power (W)" counter so the stacked view shows the breakdown.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::with_capacity(self.samples.len() + 1);
        let pname = format!("{} [{}]", self.kernel, self.governor);
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":1,"args":{{"name":"{pname}"}}}}"#
        ));
        for s in &self.samples {
            let ts_us = s.start.seconds() * 1e6;
            events.push(format!(
                concat!(
                    r#"{{"name":"power (W)","ph":"C","pid":1,"ts":{:.3},"args":{{"#,
                    r#""cores":{:.4},"noc":{:.4},"mc":{:.4},"pcie":{:.4},"l2":{:.4},"static":{:.4},"dram":{:.4}}}}}"#
                ),
                ts_us,
                s.dynamic.cores.watts(),
                s.dynamic.noc.watts(),
                s.dynamic.mc.watts(),
                s.dynamic.pcie.watts(),
                s.dynamic.l2.watts(),
                s.static_power.watts(),
                s.dram_power.watts(),
            ));
            events.push(format!(
                r#"{{"name":"shader clock (MHz)","ph":"C","pid":1,"ts":{:.3},"args":{{"freq":{:.1}}}}}"#,
                ts_us,
                s.op.shader_freq.mhz(),
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

impl fmt::Display for PowerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace `{}` [{}]: {} windows, {:.3} ms, {:.3} W avg / {:.3} W peak, {:.3} mJ",
            self.kernel,
            self.governor,
            self.samples.len(),
            self.duration().millis(),
            self.avg_power().watts(),
            self.peak_power().watts(),
            self.chip_energy().joules() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusimpow_tech::units::{Freq, Voltage};

    fn sample(index: u64, start: f64, dur: f64, watts: f64) -> PowerSample {
        PowerSample {
            index,
            start: Time::new(start),
            duration: Time::new(dur),
            op_index: 0,
            op: OperatingPoint::new(Voltage::new(1.0), Freq::from_mhz(1000.0)),
            utilization: 0.5,
            dynamic: ComponentPowers {
                cores: Power::new(watts),
                ..Default::default()
            },
            static_power: Power::new(1.0),
            dram_power: Power::new(2.0),
        }
    }

    fn trace() -> PowerTrace {
        let mut t = PowerTrace::new("k", "baseline");
        t.samples.push(sample(0, 0.0, 1e-3, 10.0));
        t.samples.push(sample(1, 1e-3, 1e-3, 20.0));
        t
    }

    #[test]
    fn integrals_and_peaks() {
        let t = trace();
        assert!((t.duration().seconds() - 2e-3).abs() < 1e-12);
        // (10+1)·1ms + (20+1)·1ms = 32 mJ.
        assert!((t.chip_energy().joules() - 32e-3).abs() < 1e-9);
        assert!((t.avg_power().watts() - 16.0).abs() < 1e-9);
        assert!((t.peak_power().watts() - 21.0).abs() < 1e-9);
        assert!((t.edp() - 32e-3 * 2e-3).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = trace();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,start_s"));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[2].starts_with("1,"));
    }

    #[test]
    fn chrome_trace_is_counter_events() {
        let t = trace();
        let json = t.to_chrome_trace();
        assert!(json.contains(r#""ph":"C""#));
        assert!(json.contains(r#""traceEvents""#));
        assert!(json.contains("power (W)"));
        assert_eq!(json.matches(r#""ph":"C""#).count(), 4);
    }

    #[test]
    fn empty_trace_is_well_defined() {
        let t = PowerTrace::new("k", "g");
        assert_eq!(t.avg_power(), Power::ZERO);
        assert_eq!(t.peak_power(), Power::ZERO);
        assert_eq!(t.edp(), 0.0);
    }
}
