//! Quickstart: simulate a benchmark on the GT240 and print its power.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gpusimpow::Simulator;
use gpusimpow_kernels::vectoradd::VectorAdd;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the tool for a Table II preset.
    let mut sim = Simulator::gt240()?;
    println!("simulating on: {}", sim.config());
    println!(
        "chip representation: {:.0} mm², {:.1} W static\n",
        sim.chip().area().mm2(),
        sim.chip().static_power().watts()
    );

    // 2. Run a self-verifying benchmark (vectorAdd from the CUDA SDK
    //    suite). The host side allocates, copies, launches and checks
    //    results against a CPU reference.
    let reports = sim.run_benchmark(&VectorAdd::default())?;

    // 3. Inspect performance and power.
    for r in &reports {
        println!(
            "kernel `{}`: {} cycles ({:.3} ms), IPC {:.2}",
            r.launch.kernel,
            r.launch.stats.shader_cycles,
            r.launch.time_s * 1e3,
            r.launch.stats.ipc()
        );
        println!("{}\n", r.power);
    }
    Ok(())
}
