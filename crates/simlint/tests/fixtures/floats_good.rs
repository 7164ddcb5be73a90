//! Build-invariant float math — must stay clean.

pub fn lane_energy(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for x in xs {
        acc += x;
    }
    acc
}

#[cfg(test)]
mod tests {
    #[cfg(target_arch = "x86_64")]
    fn probe() -> f32 {
        1.5
    }
}
