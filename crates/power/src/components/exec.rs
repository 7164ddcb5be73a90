//! Execution-unit power model (paper §III-C3, §III-D).
//!
//! The paper models FPUs/IUs *empirically* (40 pJ / 75 pJ per
//! lane-operation measured with the §III-D microbenchmarks) and the SFUs
//! from De Caro et al. \[21\]; areas come from Galal & Horowitz \[20\].

use gpusimpow_sim::{EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::TechNode;
use gpusimpow_tech::units::Area;

use super::Component;
use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// FPU area at 40 nm from the Galal-Horowitz design space (an
/// energy-efficient FMA lands near 0.02 mm² at 45 nm; scaled to 40 nm).
const FPU_AREA_MM2: f64 = 0.016;
/// Integer lane area (simpler than the FPU).
const IU_AREA_MM2: f64 = 0.008;
/// SFU area from De Caro et al. (piecewise-quadratic interpolator),
/// scaled to 40 nm.
const SFU_AREA_MM2: f64 = 0.035;

/// Builds the execution units of one core.
pub fn build(cfg: &GpuConfig, tech: &TechNode) -> Component {
    let lanes = cfg.simd_width;
    let area = Area::from_mm2(
        lanes as f64 * (FPU_AREA_MM2 + IU_AREA_MM2) + cfg.sfu_count as f64 * SFU_AREA_MM2,
    ) * ((tech.feature_nm() as f64 / 40.0).powi(2));
    let total_lanes = lanes * 2 + cfg.sfu_count;
    let leakage =
        empirical::scaled_leakage(empirical::EXEC_LEAKAGE_PER_LANE, tech) * total_lanes as f64;
    let map = EnergyMap::new(vec![
        EnergyTerm::new(
            "integer lanes",
            empirical::scaled(empirical::INT_OP, tech),
            vec![Ev::IntLaneOps],
        ),
        EnergyTerm::new(
            "fp lanes",
            empirical::scaled(empirical::FP_OP, tech),
            vec![Ev::FpLaneOps],
        ),
        EnergyTerm::new(
            "sfu",
            empirical::scaled(empirical::SFU_OP, tech),
            vec![Ev::SfuLaneOps],
        ),
    ]);
    Component { area, leakage, map }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;
    use gpusimpow_sim::ActivityVector;

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn uses_the_measured_anchor_energies_at_40nm() {
        let e = build(&GpuConfig::gt240(), &t40());
        let mut a = ActivityVector::new();
        a[Ev::IntLaneOps] = 1;
        assert!((e.map.dynamic_energy(&a).picojoules() - 40.0).abs() < 1e-9);
        a[Ev::IntLaneOps] = 0;
        a[Ev::FpLaneOps] = 1;
        assert!((e.map.dynamic_energy(&a).picojoules() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn gtx580_has_four_times_the_lanes() {
        let gt = build(&GpuConfig::gt240(), &t40());
        let gtx = build(&GpuConfig::gtx580(), &t40());
        assert!(gtx.area.mm2() > 3.0 * gt.area.mm2());
        assert!(gtx.leakage > 3.0 * gt.leakage);
    }

    #[test]
    fn energies_shrink_at_28nm() {
        let t28 = TechNode::planar(28).unwrap();
        let e = build(&GpuConfig::gt240(), &t28);
        let mut a = ActivityVector::new();
        a[Ev::FpLaneOps] = 1;
        assert!(e.map.dynamic_energy(&a).picojoules() < 75.0);
    }

    #[test]
    fn table_v_exec_leakage_anchor() {
        // GT240: 8 INT + 8 FP + 2 SFU lanes ~= 9.6 mW (Table V: 0.0096 W).
        let e = build(&GpuConfig::gt240(), &t40());
        assert!((e.leakage.milliwatts() - 9.54).abs() < 1.0);
    }
}
