//! Clock-domain bookkeeping.
//!
//! GPUs of the GT200/Fermi era run the shader cores in a fast clock domain
//! and everything else ("uncore": NoC, L2, memory controllers) in a slower
//! one. Table II of the paper quotes the uncore clock and the
//! shader-to-uncore ratio (2.47× for GT240, 2× for GTX580); the DRAM
//! command clock is yet another domain.

use std::fmt;

use crate::scaling::{voltage_dynamic_energy_factor, voltage_leakage_factor};
use crate::units::{Cycles, Freq, Time, Voltage};

/// The set of clock domains of a GPU chip plus its memory interface.
///
/// # Examples
///
/// ```
/// use gpusimpow_tech::clockdomain::ClockDomains;
/// use gpusimpow_tech::units::Freq;
///
/// // GT240: 550 MHz uncore, 2.47x shader ratio, 1700 MT/s GDDR5.
/// let clocks = ClockDomains::new(Freq::from_mhz(550.0), 2.47, Freq::from_mhz(850.0));
/// assert!((clocks.shader().mhz() - 1358.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomains {
    uncore: Freq,
    shader_ratio: f64,
    dram_command: Freq,
}

impl ClockDomains {
    /// Creates a clock-domain description.
    ///
    /// `shader_ratio` is the shader-to-uncore frequency multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `uncore` or `dram_command` are non-positive, or if
    /// `shader_ratio < 1.0` (the shader domain is never slower than the
    /// uncore on the modelled architectures).
    pub fn new(uncore: Freq, shader_ratio: f64, dram_command: Freq) -> Self {
        assert!(uncore.hertz() > 0.0, "uncore clock must be positive");
        assert!(
            dram_command.hertz() > 0.0,
            "dram command clock must be positive"
        );
        assert!(shader_ratio >= 1.0, "shader ratio must be >= 1");
        ClockDomains {
            uncore,
            shader_ratio,
            dram_command,
        }
    }

    /// Uncore (NoC / L2 / MC) clock.
    pub fn uncore(&self) -> Freq {
        self.uncore
    }

    /// Shader (core) clock: `uncore × ratio`.
    pub fn shader(&self) -> Freq {
        Freq::new(self.uncore.hertz() * self.shader_ratio)
    }

    /// Shader-to-uncore ratio.
    pub fn shader_ratio(&self) -> f64 {
        self.shader_ratio
    }

    /// GDDR command clock (the data rate is 4× this for GDDR5).
    pub fn dram_command(&self) -> Freq {
        self.dram_command
    }

    /// Returns a copy with every on-chip clock scaled by `factor`
    /// (the DRAM clock is left untouched). Used by the §IV-B static-power
    /// estimation experiment, which re-runs a kernel at 80 % clock.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 2]`.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 2.0,
            "clock scale factor must be in (0, 2]"
        );
        ClockDomains {
            uncore: self.uncore * factor,
            shader_ratio: self.shader_ratio,
            dram_command: self.dram_command,
        }
    }

    /// Converts a shader-cycle count to wall-clock time.
    pub fn shader_cycles_to_time(&self, cycles: Cycles) -> Time {
        Time::new(cycles.as_f64() / self.shader().hertz())
    }
}

/// One voltage/frequency pair a chip can run its on-chip clocks at.
///
/// Frequencies are expressed for the shader domain; the uncore follows
/// via the fixed [`ClockDomains::shader_ratio`] (on-chip domains scale
/// together, the DRAM clock does not participate in DVFS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core supply voltage at this point.
    pub voltage: Voltage,
    /// Shader-domain clock at this point.
    pub shader_freq: Freq,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if voltage or frequency is non-positive.
    pub fn new(voltage: Voltage, shader_freq: Freq) -> Self {
        assert!(voltage.volts() > 0.0, "supply voltage must be positive");
        assert!(shader_freq.hertz() > 0.0, "clock must be positive");
        OperatingPoint {
            voltage,
            shader_freq,
        }
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} MHz @ {:.3} V",
            self.shader_freq.mhz(),
            self.voltage.volts()
        )
    }
}

/// An ordered table of DVFS operating points with first-order power
/// scaling laws relative to one *nominal* point.
///
/// Scaling model (the standard CMOS first-order approximation, matching
/// [`crate::scaling`]):
///
/// * per-event **dynamic energy** scales as `(V/V₀)²` — capacitance is
///   fixed on the same silicon;
/// * **dynamic power** additionally scales with frequency: `(V/V₀)²·(f/f₀)`;
/// * **leakage power** scales as `(V/V₀)³` (linear `Vdd` × DIBL-driven
///   `Ioff` growth);
/// * **time** for a fixed cycle count scales as `f₀/f`.
///
/// # Examples
///
/// ```
/// use gpusimpow_tech::clockdomain::{DvfsTable, OperatingPoint};
/// use gpusimpow_tech::units::{Freq, Voltage};
///
/// let nominal = OperatingPoint::new(Voltage::new(1.0), Freq::from_mhz(1340.0));
/// let table = DvfsTable::linear(nominal, 0.5, 0.8, 5);
/// assert_eq!(table.len(), 5);
/// assert_eq!(table.nominal_index(), 4);
/// // The lowest point halves the clock and runs at 0.8 V:
/// assert!(table.dynamic_power_factor(0) < 0.33);
/// assert!(table.leakage_factor(0) < 0.52);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    points: Vec<OperatingPoint>,
    nominal: usize,
}

impl DvfsTable {
    /// Builds a table from explicit points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, `nominal` is out of range, or the
    /// points are not strictly ascending in frequency with
    /// non-decreasing voltage (faster clocks never need *less* supply).
    pub fn new(points: Vec<OperatingPoint>, nominal: usize) -> Self {
        assert!(!points.is_empty(), "a DVFS table needs at least one point");
        assert!(nominal < points.len(), "nominal index out of range");
        for pair in points.windows(2) {
            assert!(
                pair[1].shader_freq.hertz() > pair[0].shader_freq.hertz(),
                "operating points must be strictly ascending in frequency"
            );
            assert!(
                pair[1].voltage.volts() >= pair[0].voltage.volts(),
                "voltage must not decrease with frequency"
            );
        }
        DvfsTable { points, nominal }
    }

    /// Builds an evenly spaced table below (and including) `nominal`:
    /// `steps` points whose frequency scale runs linearly from
    /// `min_freq_scale` to 1 and whose voltage scale runs linearly from
    /// `min_voltage_scale` to 1. The last point is `nominal` itself.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or either scale is outside `(0, 1]`.
    pub fn linear(
        nominal: OperatingPoint,
        min_freq_scale: f64,
        min_voltage_scale: f64,
        steps: usize,
    ) -> Self {
        assert!(steps > 0, "a DVFS table needs at least one point");
        assert!(
            min_freq_scale > 0.0 && min_freq_scale <= 1.0,
            "min frequency scale must be in (0, 1]"
        );
        assert!(
            min_voltage_scale > 0.0 && min_voltage_scale <= 1.0,
            "min voltage scale must be in (0, 1]"
        );
        let points = (0..steps)
            .map(|i| {
                let t = if steps == 1 {
                    1.0
                } else {
                    i as f64 / (steps - 1) as f64
                };
                let fs = min_freq_scale + t * (1.0 - min_freq_scale);
                let vs = min_voltage_scale + t * (1.0 - min_voltage_scale);
                OperatingPoint::new(nominal.voltage * vs, nominal.shader_freq * fs)
            })
            .collect();
        DvfsTable::new(points, steps - 1)
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the table has no points (never — construction forbids
    /// it — but clippy insists `len` has an `is_empty` sibling).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points, slowest first.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Index of the nominal point.
    pub fn nominal_index(&self) -> usize {
        self.nominal
    }

    /// The nominal operating point.
    pub fn nominal(&self) -> OperatingPoint {
        self.points[self.nominal]
    }

    /// The point at `index` (slowest first).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn point(&self, index: usize) -> OperatingPoint {
        self.points[index]
    }

    /// `f/f₀`: clock scale of `index` relative to nominal.
    pub fn freq_scale(&self, index: usize) -> f64 {
        self.points[index].shader_freq.hertz() / self.nominal().shader_freq.hertz()
    }

    /// `(V/V₀)²`: factor on per-event dynamic energy at `index`.
    pub fn dynamic_energy_factor(&self, index: usize) -> f64 {
        voltage_dynamic_energy_factor(self.points[index].voltage, self.nominal().voltage)
    }

    /// `(V/V₀)²·(f/f₀)`: factor on dynamic power at `index`.
    pub fn dynamic_power_factor(&self, index: usize) -> f64 {
        self.dynamic_energy_factor(index) * self.freq_scale(index)
    }

    /// `(V/V₀)³`: factor on leakage power at `index`.
    pub fn leakage_factor(&self, index: usize) -> f64 {
        voltage_leakage_factor(self.points[index].voltage, self.nominal().voltage)
    }
}

impl fmt::Display for ClockDomains {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "uncore {:.0} MHz, shader {:.0} MHz ({}x), dram {:.0} MHz cmd",
            self.uncore.mhz(),
            self.shader().mhz(),
            self.shader_ratio,
            self.dram_command.mhz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt240() -> ClockDomains {
        ClockDomains::new(Freq::from_mhz(550.0), 2.47, Freq::from_mhz(850.0))
    }

    #[test]
    fn shader_clock_is_ratio_times_uncore() {
        let c = gt240();
        assert!((c.shader().mhz() - 550.0 * 2.47).abs() < 1e-9);
    }

    #[test]
    fn scaling_preserves_ratio_and_dram() {
        let c = gt240().scaled(0.8);
        assert!((c.uncore().mhz() - 440.0).abs() < 1e-9);
        assert!((c.shader_ratio() - 2.47).abs() < 1e-12);
        assert!((c.dram_command().mhz() - 850.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_to_time_roundtrip() {
        let c = gt240();
        let t = c.shader_cycles_to_time(Cycles::new(1_358_500));
        assert!((t.millis() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shader ratio")]
    fn sub_unity_ratio_panics() {
        let _ = ClockDomains::new(Freq::from_mhz(550.0), 0.5, Freq::from_mhz(850.0));
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn bad_scale_factor_panics() {
        let _ = gt240().scaled(0.0);
    }

    fn table() -> DvfsTable {
        let nominal = OperatingPoint::new(Voltage::new(1.0), Freq::from_mhz(1340.0));
        DvfsTable::linear(nominal, 0.5, 0.8, 5)
    }

    #[test]
    fn linear_table_ends_at_nominal() {
        let t = table();
        assert_eq!(t.nominal_index(), 4);
        assert!((t.freq_scale(4) - 1.0).abs() < 1e-12);
        assert!((t.dynamic_power_factor(4) - 1.0).abs() < 1e-12);
        assert!((t.leakage_factor(4) - 1.0).abs() < 1e-12);
        assert!((t.point(0).shader_freq.mhz() - 670.0).abs() < 1e-9);
        assert!((t.point(0).voltage.volts() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn factors_follow_v2f_and_v3() {
        let t = table();
        // Lowest point: 0.5 f, 0.8 V.
        assert!((t.dynamic_energy_factor(0) - 0.64).abs() < 1e-12);
        assert!((t.dynamic_power_factor(0) - 0.32).abs() < 1e-12);
        assert!((t.leakage_factor(0) - 0.512).abs() < 1e-12);
        // Factors are monotone in the table index.
        for i in 1..t.len() {
            assert!(t.dynamic_power_factor(i) > t.dynamic_power_factor(i - 1));
            assert!(t.leakage_factor(i) >= t.leakage_factor(i - 1));
        }
    }

    #[test]
    #[should_panic(expected = "ascending in frequency")]
    fn unsorted_table_panics() {
        let _ = DvfsTable::new(
            vec![
                OperatingPoint::new(Voltage::new(1.0), Freq::from_mhz(1000.0)),
                OperatingPoint::new(Voltage::new(1.0), Freq::from_mhz(900.0)),
            ],
            1,
        );
    }

    #[test]
    #[should_panic(expected = "voltage must not decrease")]
    fn voltage_inversion_panics() {
        let _ = DvfsTable::new(
            vec![
                OperatingPoint::new(Voltage::new(1.0), Freq::from_mhz(900.0)),
                OperatingPoint::new(Voltage::new(0.9), Freq::from_mhz(1000.0)),
            ],
            1,
        );
    }
}
