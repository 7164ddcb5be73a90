//! Strongly-typed physical quantities used throughout the power model.
//!
//! Every quantity wraps an `f64` in SI base units (joules, watts, seconds,
//! hertz, volts, amperes, farads) except [`Area`], which is kept in mm²
//! because die areas are universally quoted that way.
//!
//! Only physically meaningful arithmetic is provided: e.g. dividing an
//! [`Energy`] by a [`Time`] yields a [`Power`], multiplying a [`Power`] by a
//! [`Time`] yields an [`Energy`], and a [`Capacitance`] charged through a
//! [`Voltage`] swing yields an [`Energy`] via [`Capacitance::switching_energy`].
//!
//! # Examples
//!
//! ```
//! use gpusimpow_tech::units::{Energy, Power, Time};
//!
//! let e = Energy::from_picojoules(40.0);
//! let t = Time::from_nanos(1.0);
//! let p: Power = e / t;
//! assert!((p.watts() - 0.04).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Alias for [`Energy`]: the SI unit name, for call sites that read
/// better as a unit ("the map prices 40 pJ per op in `Joules`").
pub type Joules = Energy;
/// Alias for [`Power`].
pub type Watts = Power;
/// Alias for [`Time`].
pub type Seconds = Time;
/// Alias for [`Voltage`].
pub type Volts = Voltage;
/// Alias for [`Freq`].
pub type Hertz = Freq;

/// Implements the shared boilerplate for a scalar physical quantity.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $base:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a value directly from the SI base unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// Returns the raw value in the SI base unit.
            #[inline]
            pub const fn $base(self) -> f64 {
                self.0
            }

            /// Returns the maximum of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// Returns the minimum of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// The ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, Add::add)
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, |acc, x| acc + *x)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let (scaled, prefix) = si_prefix(self.0);
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}{}", prec, scaled, prefix, $unit)
                } else {
                    write!(f, "{:.3} {}{}", scaled, prefix, $unit)
                }
            }
        }
    };
}

quantity!(
    /// An energy in joules.
    Energy, "J", joules
);
quantity!(
    /// A power in watts.
    Power, "W", watts
);
quantity!(
    /// A time span in seconds.
    Time, "s", seconds
);
quantity!(
    /// A frequency in hertz.
    Freq, "Hz", hertz
);
quantity!(
    /// An electric potential in volts.
    Voltage, "V", volts
);
quantity!(
    /// An electric current in amperes.
    Current, "A", amperes
);
quantity!(
    /// A capacitance in farads.
    Capacitance, "F", farads
);

/// An exact clock-cycle count in some clock domain.
///
/// Unlike the `f64`-backed quantities above, cycles are *counted*, not
/// measured: the simulator's determinism contract (bit-identical output
/// for any thread count) requires cycle bookkeeping to stay in exact
/// integer arithmetic until the single conversion to wall-clock time at
/// a domain's frequency
/// ([`ClockDomains::shader_cycles_to_time`](crate::clockdomain::ClockDomains::shader_cycles_to_time)).
/// The newtype keeps raw cycle counts from being mistaken for seconds
/// or mixed across clock domains without an explicit conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(count: u64) -> Self {
        Cycles(count)
    }

    /// The raw count.
    #[inline]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// The count as an `f64`, for the final conversion into a measured
    /// quantity (time, average power). Prefer the typed conversions on
    /// `ClockDomains` where one fits.
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns the maximum of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Cycles(self.0.max(other.0))
    }

    /// Returns the minimum of `self` and `other`.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Cycles(self.0.min(other.0))
    }

    /// Checked subtraction; `None` when `rhs > self`.
    #[inline]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.0.checked_sub(rhs.0).map(Cycles)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    /// Panics on underflow in debug builds, like the underlying `u64`.
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl Div<Freq> for Cycles {
    /// Cycles at a clock frequency elapse in `count / f` seconds.
    type Output = Time;
    #[inline]
    fn div(self, rhs: Freq) -> Time {
        Time(self.0 as f64 / rhs.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A silicon area in square millimetres.
///
/// Unlike the other quantities this one is *not* stored in the SI base unit
/// (m²) because die areas are universally reported in mm².
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Area(f64);

impl Area {
    /// The zero area.
    pub const ZERO: Area = Area(0.0);

    /// Creates an area from square millimetres.
    #[inline]
    pub const fn from_mm2(mm2: f64) -> Self {
        Area(mm2)
    }

    /// Creates an area from square micrometres.
    #[inline]
    pub const fn from_um2(um2: f64) -> Self {
        Area(um2 * 1e-6)
    }

    /// The area in square millimetres.
    #[inline]
    pub const fn mm2(self) -> f64 {
        self.0
    }

    /// The area in square micrometres.
    #[inline]
    pub const fn um2(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the maximum of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Area(self.0.max(other.0))
    }
}

impl Add for Area {
    type Output = Area;
    #[inline]
    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl AddAssign for Area {
    #[inline]
    fn add_assign(&mut self, rhs: Area) {
        self.0 += rhs.0;
    }
}

impl Sub for Area {
    type Output = Area;
    #[inline]
    fn sub(self, rhs: Area) -> Area {
        Area(self.0 - rhs.0)
    }
}

impl Mul<f64> for Area {
    type Output = Area;
    #[inline]
    fn mul(self, rhs: f64) -> Area {
        Area(self.0 * rhs)
    }
}

impl Mul<Area> for f64 {
    type Output = Area;
    #[inline]
    fn mul(self, rhs: Area) -> Area {
        Area(self * rhs.0)
    }
}

impl Div<f64> for Area {
    type Output = Area;
    #[inline]
    fn div(self, rhs: f64) -> Area {
        Area(self.0 / rhs)
    }
}

impl Div<Area> for Area {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Area) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        iter.fold(Area::ZERO, Add::add)
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} mm²", prec, self.0)
        } else {
            write!(f, "{:.3} mm²", self.0)
        }
    }
}

impl Energy {
    /// Creates an energy from picojoules.
    #[inline]
    pub const fn from_picojoules(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// Creates an energy from nanojoules.
    #[inline]
    pub const fn from_nanojoules(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// The energy in picojoules.
    #[inline]
    pub const fn picojoules(self) -> f64 {
        self.0 * 1e12
    }
}

impl Power {
    /// Creates a power from milliwatts.
    #[inline]
    pub const fn from_milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// The power in milliwatts.
    #[inline]
    pub const fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Time {
    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: f64) -> Self {
        Time(ns * 1e-9)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: f64) -> Self {
        Time(ms * 1e-3)
    }

    /// The time in nanoseconds.
    #[inline]
    pub const fn nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// The time in milliseconds.
    #[inline]
    pub const fn millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl Freq {
    /// Creates a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Freq(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Freq(ghz * 1e9)
    }

    /// The frequency in megahertz.
    #[inline]
    pub const fn mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// The clock period of this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period(self) -> Time {
        assert!(self.0 > 0.0, "period of zero frequency");
        Time(1.0 / self.0)
    }
}

impl Voltage {
    /// `V²` relative to a 1 V² reference — the dimensionless `C·V²`
    /// scaling factor empirical energy models apply to per-op energies
    /// that were characterised at 1 V. Keeping the square inside the
    /// newtype lets callers scale energies without unwrapping volts
    /// into raw `f64` arithmetic.
    #[inline]
    pub fn squared(self) -> f64 {
        self.0 * self.0
    }
}

impl Capacitance {
    /// Creates a capacitance from femtofarads.
    #[inline]
    pub const fn from_femtofarads(ff: f64) -> Self {
        Capacitance(ff * 1e-15)
    }

    /// The capacitance in femtofarads.
    #[inline]
    pub const fn femtofarads(self) -> f64 {
        self.0 * 1e15
    }

    /// The energy drawn from the supply when this capacitance is charged
    /// from 0 to `vdd` and later discharged: `E = C · Vdd · ΔV`.
    ///
    /// For a full-swing transition `ΔV = Vdd`, giving the familiar `C·V²`.
    /// Low-swing structures (read bitlines with sense amplifiers) pass a
    /// smaller `swing`.
    #[inline]
    pub fn switching_energy(self, vdd: Voltage, swing: Voltage) -> Energy {
        Energy(self.0 * vdd.volts() * swing.volts())
    }
}

// ---- cross-quantity arithmetic -------------------------------------------

impl Div<Time> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: Time) -> Power {
        Power(self.0 / rhs.0)
    }
}

impl Div<Power> for Energy {
    type Output = Time;
    #[inline]
    fn div(self, rhs: Power) -> Time {
        Time(self.0 / rhs.0)
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Time) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Power> for Time {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Freq> for Energy {
    /// Energy per event times events per second is a power.
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Freq) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Mul<Energy> for Freq {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Energy) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Current) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Mul<Voltage> for Current {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Voltage) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Div<Voltage> for Power {
    type Output = Current;
    #[inline]
    fn div(self, rhs: Voltage) -> Current {
        Current(self.0 / rhs.0)
    }
}

impl Mul<Freq> for Time {
    /// Cycles elapsed in a time span (dimensionless).
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Freq) -> f64 {
        self.0 * rhs.0
    }
}

/// Picks an engineering SI prefix so the mantissa lands in `[1, 1000)`.
fn si_prefix(value: f64) -> (f64, &'static str) {
    const PREFIXES: &[(f64, &str)] = &[
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
        (1e-15, "f"),
    ];
    if value == 0.0 || !value.is_finite() {
        return (value, "");
    }
    let mag = value.abs();
    for &(scale, prefix) in PREFIXES {
        if mag >= scale {
            return (value / scale, prefix);
        }
    }
    (value / 1e-15, "f")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_picojoules(75.0) / Time::from_nanos(1.0);
        assert!((p.watts() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::new(20.0) * Time::from_millis(5.0);
        assert!((e.joules() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn energy_times_freq_is_power() {
        // 40 pJ per op at 1.34 GHz, one op per cycle -> 53.6 mW.
        let p = Energy::from_picojoules(40.0) * Freq::from_ghz(1.34);
        assert!((p.milliwatts() - 53.6).abs() < 1e-9);
    }

    #[test]
    fn switching_energy_full_swing() {
        let c = Capacitance::from_femtofarads(1000.0);
        let e = c.switching_energy(Voltage::new(1.0), Voltage::new(1.0));
        assert!((e.picojoules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn switching_energy_low_swing_is_smaller() {
        let c = Capacitance::from_femtofarads(2000.0);
        let full = c.switching_energy(Voltage::new(1.0), Voltage::new(1.0));
        let low = c.switching_energy(Voltage::new(1.0), Voltage::new(0.2));
        assert!(low < full);
        assert!((low.joules() * 5.0 - full.joules()).abs() < 1e-18);
    }

    #[test]
    fn volt_ampere_is_watt() {
        let p = Voltage::new(12.0) * Current::new(2.0);
        assert!((p.watts() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn area_units_roundtrip() {
        let a = Area::from_um2(1_000_000.0);
        assert!((a.mm2() - 1.0).abs() < 1e-12);
        assert!((a.um2() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn period_of_frequency() {
        let t = Freq::from_mhz(550.0).period();
        assert!((t.nanos() - 1.0 / 0.55).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "period of zero frequency")]
    fn period_of_zero_frequency_panics() {
        let _ = Freq::new(0.0).period();
    }

    #[test]
    fn sums_of_quantities() {
        let parts = [Power::new(1.0), Power::new(2.5), Power::new(0.5)];
        let total: Power = parts.iter().sum();
        assert!((total.watts() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let ratio = Power::new(15.0) / Power::new(60.0);
        assert!((ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_uses_si_prefixes() {
        assert_eq!(format!("{}", Energy::from_picojoules(40.0)), "40.000 pJ");
        assert_eq!(format!("{}", Power::new(17.9)), "17.900 W");
        assert_eq!(format!("{}", Power::from_milliwatts(692.0)), "692.000 mW");
        assert_eq!(format!("{:.1}", Freq::from_mhz(550.0)), "550.0 MHz");
    }

    #[test]
    fn display_zero_is_not_empty() {
        assert_eq!(format!("{}", Power::ZERO), "0.000 W");
    }

    #[test]
    fn cycles_in_time_span() {
        let cycles = Time::from_nanos(1000.0) * Freq::from_mhz(550.0);
        assert!((cycles - 550.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_counts_are_exact_integers() {
        let a = Cycles::new(3) + Cycles::new(4);
        assert_eq!(a, Cycles::new(7));
        assert_eq!(a - Cycles::new(2), Cycles::new(5));
        assert_eq!(a * 3, Cycles::new(21));
        assert_eq!(a.count(), 7);
        assert_eq!(Cycles::new(9).checked_sub(Cycles::new(10)), None);
        let total: Cycles = [Cycles::new(1), Cycles::new(2)].into_iter().sum();
        assert_eq!(total, Cycles::new(3));
        assert_eq!(format!("{}", total), "3 cycles");
    }

    #[test]
    fn cycles_over_freq_is_time() {
        let t = Cycles::new(550) / Freq::from_mhz(550.0);
        assert!((t.nanos() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_squared_matches_raw_product() {
        let v = Voltage::new(1.05);
        assert_eq!(v.squared(), 1.05 * 1.05);
    }

    #[test]
    fn unit_aliases_are_the_newtypes() {
        let e: Joules = Energy::from_picojoules(1.0);
        let p: Watts = Power::new(2.0);
        let t: Seconds = Time::from_nanos(3.0);
        let v: Volts = Voltage::new(1.0);
        let f: Hertz = Freq::from_mhz(550.0);
        assert!((e / t).watts() > 0.0);
        assert!((p * t).joules() > 0.0);
        assert_eq!(v.squared(), 1.0);
        assert!((Cycles::new(550_000_000) / f).seconds() > 0.9);
    }
}
