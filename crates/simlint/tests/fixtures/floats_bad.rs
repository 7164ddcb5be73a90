//! Build-divergent float math — must fire.

#[cfg(target_arch = "x86_64")]
pub fn lane_energy(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for x in xs {
        acc += x;
    }
    acc
}
