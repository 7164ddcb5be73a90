//! Common cost bundle shared by every circuit model.

use std::iter::Sum;
use std::ops::Add;

use gpusimpow_tech::units::{Area, Energy, Power};

/// Area, per-access energies and leakage of one circuit block.
///
/// Every model in this crate evaluates to one of these; the architecture
/// tier (the `gpusimpow-power` crate) aggregates them per component.
///
/// # Examples
///
/// ```
/// use gpusimpow_circuit::costs::CircuitCosts;
/// use gpusimpow_tech::units::{Area, Energy, Power};
///
/// let a = CircuitCosts::new(
///     Area::from_mm2(0.1),
///     Energy::from_picojoules(2.0),
///     Energy::from_picojoules(3.0),
///     Power::from_milliwatts(5.0),
/// );
/// let total = a + a;
/// assert!((total.area.mm2() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CircuitCosts {
    /// Silicon area of the block.
    pub area: Area,
    /// Energy of one read (or generic operation for logic blocks).
    pub read_energy: Energy,
    /// Energy of one write (equal to `read_energy` for symmetric blocks).
    pub write_energy: Energy,
    /// Static (subthreshold + gate) leakage power.
    pub leakage: Power,
}

impl CircuitCosts {
    /// A block with zero cost.
    pub const ZERO: CircuitCosts = CircuitCosts {
        area: Area::ZERO,
        read_energy: Energy::ZERO,
        write_energy: Energy::ZERO,
        leakage: Power::ZERO,
    };

    /// Creates a cost bundle.
    pub const fn new(
        area: Area,
        read_energy: Energy,
        write_energy: Energy,
        leakage: Power,
    ) -> Self {
        CircuitCosts {
            area,
            read_energy,
            write_energy,
            leakage,
        }
    }

    /// Creates a cost bundle for a block with a single operation energy
    /// (read and write identical).
    pub const fn uniform(area: Area, op_energy: Energy, leakage: Power) -> Self {
        CircuitCosts {
            area,
            read_energy: op_energy,
            write_energy: op_energy,
            leakage,
        }
    }
}

impl Add for CircuitCosts {
    type Output = CircuitCosts;
    fn add(self, rhs: CircuitCosts) -> CircuitCosts {
        CircuitCosts {
            area: self.area + rhs.area,
            read_energy: self.read_energy + rhs.read_energy,
            write_energy: self.write_energy + rhs.write_energy,
            leakage: self.leakage + rhs.leakage,
        }
    }
}

impl Sum for CircuitCosts {
    fn sum<I: Iterator<Item = CircuitCosts>>(iter: I) -> CircuitCosts {
        iter.fold(CircuitCosts::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CircuitCosts {
        CircuitCosts::new(
            Area::from_mm2(0.5),
            Energy::from_picojoules(1.0),
            Energy::from_picojoules(2.0),
            Power::from_milliwatts(3.0),
        )
    }

    #[test]
    fn addition_is_elementwise() {
        let s = sample() + sample();
        assert!((s.area.mm2() - 1.0).abs() < 1e-12);
        assert!((s.read_energy.picojoules() - 2.0).abs() < 1e-12);
        assert!((s.write_energy.picojoules() - 4.0).abs() < 1e-12);
        assert!((s.leakage.milliwatts() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: CircuitCosts = (0..3).map(|_| sample()).sum();
        assert!((total.area.mm2() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_sets_both_energies() {
        let u = CircuitCosts::uniform(Area::ZERO, Energy::from_picojoules(5.0), Power::ZERO);
        assert_eq!(u.read_energy, u.write_energy);
    }
}
