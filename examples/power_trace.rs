//! Power tracing with a DVFS governor — record windowed activity out
//! of a running kernel and see what an ondemand governor would have
//! done with it.
//!
//! A `WindowRecorder` is an `ActivitySink`: the simulator hands it an
//! activity delta every `window_cycles` shader cycles. The tracer then
//! replays the recording, prices each window with the chip power model,
//! and lets the governor pick the operating point window by window.
//!
//! ```text
//! cargo run --example power_trace
//! ```

use gpusimpow::Simulator;
use gpusimpow_isa::{assemble, LaunchConfig};
use gpusimpow_pm::{Baseline, Ondemand, PowerTracer};
use gpusimpow_sim::WindowRecorder;

const WINDOW_CYCLES: u64 = 512;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = Simulator::gt240()?;
    let n = 8192u32;

    // A SAXPY kernel: memory-bound, so utilization swings as warps
    // stall on DRAM — exactly what a governor reacts to.
    let x = sim.gpu_mut().alloc_f32(n);
    let y = sim.gpu_mut().alloc_f32(n);
    let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
    sim.gpu_mut().h2d_f32(x, &xs);
    sim.gpu_mut().h2d_f32(y, &xs);
    let kernel = assemble(
        "saxpy",
        &format!(
            "
            s2r r0, tid.x
            s2r r1, ctaid.x
            s2r r2, ntid.x
            imad r3, r1, r2, r0
            shl r4, r3, #2
            ld.global r5, [r4+{x}]
            ld.global r6, [r4+{y}]
            ffma r7, r5, #2.5, r6
            st.global [r4+{y}], r7
            exit
        ",
            x = x.addr(),
            y = y.addr()
        ),
    )?;
    let launch = LaunchConfig::linear(n / 256, 256);

    // The tracer owns its own copy of the power model; the default DVFS
    // ladder spans 50–100 % shader clock at 80–100 % Vdd.
    let tracer = PowerTracer::new(sim.chip().clone());

    // Run the same kernel twice, recording both launches (only the
    // first carries the pending host-to-device copies); replay the
    // first ungoverned and the second under ondemand.
    let mut recorder = WindowRecorder::new();
    for _ in 0..2 {
        sim.gpu_mut()
            .launch_with_sink(&kernel, launch, WINDOW_CYCLES, &mut recorder)?;
    }
    let [first, second] = recorder.launches() else {
        unreachable!("two launches were recorded");
    };
    let base = tracer.replay(first, &mut Baseline);
    let governed = tracer.replay(second, &mut Ondemand::default());

    println!("{base}");
    println!("{governed}");

    println!("window  freq[MHz]  util   power[W]");
    for s in &governed.samples {
        println!(
            "{:>6}  {:>9.0}  {:>4.2}  {:>9.3}",
            s.index,
            s.op.shader_freq.mhz(),
            s.utilization,
            s.total_power().watts()
        );
    }

    println!(
        "\nondemand vs baseline: energy {:+.1}%, time {:+.1}%, EDP {:+.1}%",
        100.0 * (governed.chip_energy().joules() / base.chip_energy().joules() - 1.0),
        100.0 * (governed.duration().seconds() / base.duration().seconds() - 1.0),
        100.0 * (governed.edp() / base.edp() - 1.0),
    );
    Ok(())
}
