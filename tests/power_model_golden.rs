//! Bit-exact pins for the power-model paths `EXPERIMENTS.md` does not
//! print at full precision: chip area and static power at two process
//! nodes, every row of `GpuChip::evaluate_scoped` for the small
//! BlackScholes on both Table II presets, the WCU's memory drill-down
//! (`EnergyMap::grouped`), and one windowed `PowerTracer::replay` under
//! the ondemand governor with idle-cluster gating.
//!
//! A refactor of the power model must keep every one of these `f64`
//! bit patterns: the float sums keep their operand order, so any
//! change here is a change of the model, not of its code shape. On a
//! mismatch the test prints the whole actual table, labelled as below.

use gpusimpow_kernels::blackscholes::BlackScholes;
use gpusimpow_kernels::mergesort::MergeSort;
use gpusimpow_kernels::Benchmark;
use gpusimpow_pm::{ClusterGating, Ondemand, PowerTracer};
use gpusimpow_power::components::wcu;
use gpusimpow_power::{EnergyMap, GpuChip, PowerSplit, ScopedPowerReport};
use gpusimpow_sim::{Gpu, GpuConfig, LaunchReport, WindowRecorder};

/// Labelled bit patterns, in the order the test produces them.
type Pins = Vec<(String, u64)>;

fn check(what: &str, actual: &Pins, expected: &[(&str, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((la, a), (le, e))| la == le && a == e);
    if !same {
        let table: String = actual
            .iter()
            .map(|(label, bits)| format!("    (\"{label}\", {bits:#018x}),\n"))
            .collect();
        panic!("{what}: pinned bits changed; actual table:\n{table}");
    }
}

fn split(pins: &mut Pins, label: &str, s: PowerSplit) {
    pins.push((format!("{label}/static"), s.static_power.watts().to_bits()));
    pins.push((
        format!("{label}/dynamic"),
        s.dynamic_power.watts().to_bits(),
    ));
}

fn chip_pins(cfg: &GpuConfig) -> Pins {
    let chip = GpuChip::new(cfg).expect("chip builds");
    vec![
        ("area".into(), chip.area().mm2().to_bits()),
        ("static".into(), chip.static_power().watts().to_bits()),
        ("core_area".into(), chip.core_area().mm2().to_bits()),
        (
            "core_static".into(),
            chip.core_static_power().watts().to_bits(),
        ),
    ]
}

fn at_28nm(mut cfg: GpuConfig) -> GpuConfig {
    cfg.process_nm = 28;
    cfg
}

fn blackscholes(cfg: &GpuConfig, options: u32) -> LaunchReport {
    let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
    BlackScholes { options }
        .run(&mut gpu)
        .expect("verifies")
        .remove(0)
}

fn scoped_pins(r: &ScopedPowerReport) -> Pins {
    let mut pins = Pins::new();
    let p = &r.report;
    pins.push(("time".into(), p.time.seconds().to_bits()));
    let chip = &p.chip;
    for (label, s) in [
        ("chip/cores", chip.cores),
        ("chip/noc", chip.noc),
        ("chip/mc", chip.mc),
        ("chip/pcie", chip.pcie),
        ("chip/l2", chip.l2),
    ] {
        split(&mut pins, label, s);
    }
    let core = &p.core;
    for (label, s) in [
        ("core/base", core.base),
        ("core/wcu", core.wcu),
        ("core/regfile", core.regfile),
        ("core/exec", core.exec),
        ("core/ldstu", core.ldstu),
        ("core/undiff", core.undiff),
    ] {
        split(&mut pins, label, s);
    }
    let d = &p.dram;
    for (label, w) in [
        ("dram/background", d.background),
        ("dram/activate", d.activate),
        ("dram/read", d.read),
        ("dram/write", d.write),
        ("dram/termination", d.termination),
        ("dram/refresh", d.refresh),
    ] {
        pins.push((label.into(), w.watts().to_bits()));
    }
    for row in &r.clusters {
        let c = row.cluster;
        split(&mut pins, &format!("cluster{c}"), row.power);
        pins.push((
            format!("cluster{c}/busy_fraction"),
            row.busy_fraction.to_bits(),
        ));
        pins.push((
            format!("cluster{c}/avg_busy_cores"),
            row.avg_busy_cores.to_bits(),
        ));
    }
    split(&mut pins, "scheduler", r.scheduler);
    split(&mut pins, "uncore", r.uncore);
    pins
}

fn scoped(cfg: &GpuConfig, options: u32) -> Pins {
    let chip = GpuChip::new(cfg).expect("chip builds");
    let launch = blackscholes(cfg, options);
    scoped_pins(&chip.evaluate_scoped(&launch.kernel, &launch.stats, &launch.scoped))
}

/// The WCU's event-priced energy map, built the way `GpuChip` builds it.
fn wcu_map(cfg: &GpuConfig, chip: &GpuChip) -> EnergyMap {
    wcu::build(cfg, chip.tech()).expect("wcu builds").map
}

#[test]
fn chip_area_and_static_power_are_pinned() {
    check("GT240 40 nm", &chip_pins(&GpuConfig::gt240()), GT240_40NM);
    check(
        "GT240 28 nm",
        &chip_pins(&at_28nm(GpuConfig::gt240())),
        GT240_28NM,
    );
    check(
        "GTX580 40 nm",
        &chip_pins(&GpuConfig::gtx580()),
        GTX580_40NM,
    );
    check(
        "GTX580 28 nm",
        &chip_pins(&at_28nm(GpuConfig::gtx580())),
        GTX580_28NM,
    );
}

#[test]
fn gt240_scoped_rows_are_pinned() {
    check(
        "GT240 evaluate_scoped",
        &scoped(&GpuConfig::gt240(), 1024),
        GT240_SCOPED,
    );
}

#[test]
fn gtx580_scoped_rows_are_pinned() {
    check(
        "GTX580 evaluate_scoped",
        &scoped(&GpuConfig::gtx580(), 1024),
        GTX580_SCOPED,
    );
}

/// The small launch keeps one core busy per GT240 cluster, so its
/// rows cannot tell a cluster's busy fraction from its average busy
/// cores; the Table V launch (the `per_cluster` section's workload)
/// keeps all three busy.
#[test]
fn gt240_table5_scoped_rows_are_pinned() {
    check(
        "GT240 Table V evaluate_scoped",
        &scoped(&GpuConfig::gt240(), 8192),
        GT240_TABLE5_SCOPED,
    );
}

#[test]
fn wcu_memory_rows_are_pinned() {
    let cfg = GpuConfig::gt240();
    let chip = GpuChip::new(&cfg).expect("chip builds");
    let activity = blackscholes(&cfg, 1024).stats.to_vector();
    let rows: Pins = wcu_map(&cfg, &chip)
        .grouped(&activity)
        .into_iter()
        .map(|(label, e)| (label.to_string(), e.joules().to_bits()))
        .collect();
    check("GT240 WCU rows", &rows, GT240_WCU_ROWS);
}

#[test]
fn ondemand_gated_replay_is_pinned() {
    let cfg = GpuConfig::gt240();
    let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
    gpu.attach_sink(2048, Box::new(WindowRecorder::new()));
    MergeSort { n: 1024 }.run(&mut gpu).expect("verifies");
    let mut sink = gpu.detach_sink().expect("sink attached");
    let recorder = sink.as_any_mut().and_then(|s| s.downcast_mut());
    let launch = std::mem::take::<WindowRecorder>(recorder.expect("sink is a WindowRecorder"))
        .into_launches()
        .pop()
        .expect("mergeSort launched");
    let tracer = PowerTracer::new(GpuChip::new(&cfg).expect("chip builds"))
        .with_gating(ClusterGating::with_retention(0.1));
    let trace = tracer.replay(&launch, &mut Ondemand::default());

    let mut pins = Pins::new();
    for s in &trace.samples {
        let i = s.index;
        pins.push((format!("{i}/op_index"), s.op_index as u64));
        pins.push((format!("{i}/duration"), s.duration.seconds().to_bits()));
        let d = &s.dynamic;
        for (label, w) in [
            ("cores", d.cores),
            ("noc", d.noc),
            ("mc", d.mc),
            ("pcie", d.pcie),
            ("l2", d.l2),
            ("static", s.static_power),
            ("dram", s.dram_power),
        ] {
            pins.push((format!("{i}/{label}"), w.watts().to_bits()));
        }
    }
    check(
        &format!("`{}` ondemand replay", launch.kernel),
        &pins,
        MERGESORT4_ONDEMAND,
    );
}

const GT240_40NM: &[(&str, u64)] = &[
    ("area", 0x40597f1eb0088122),
    ("static", 0x4031ea5f19c0f8fe),
    ("core_area", 0x40194f5ea4b9496f),
    ("core_static", 0x3ff486f651c74d70),
];
const GT240_28NM: &[(&str, u64)] = &[
    ("area", 0x404b851a04d2834c),
    ("static", 0x4023be2cd207bd2d),
    ("core_area", 0x400b02a31864be11),
    ("core_static", 0x3fe537e6afdc3a1c),
];
const GTX580_40NM: &[(&str, u64)] = &[
    ("area", 0x40764bb55c7738ee),
    ("static", 0x4053fe9e7bf6dfcc),
    ("core_area", 0x4030e1c37082d6c5),
    ("core_static", 0x40125f17e80f17b4),
];
const GTX580_28NM: &[(&str, u64)] = &[
    ("area", 0x40678a11213b3f88),
    ("static", 0x4044c4c1b4be004a),
    ("core_area", 0x40219b4f8de3e2d3),
    ("core_static", 0x40024339c4e1bb3d),
];
const GT240_SCOPED: &[(&str, u64)] = &[
    ("time", 0x3ebf4e884329d63a),
    ("chip/cores/static", 0x402eca717aaaf428),
    ("chip/cores/dynamic", 0x40244edb1fc37640),
    ("chip/noc/static", 0x3ff7c2c67165894c),
    ("chip/noc/dynamic", 0x3fe5ca13c28fd3ca),
    ("chip/mc/static", 0x3fdfbf837a26c45b),
    ("chip/mc/dynamic", 0x3fef9c8355fadf10),
    ("chip/pcie/static", 0x3fe13f7ced916873),
    ("chip/pcie/dynamic", 0x3ff0152d5d1fd7db),
    ("chip/l2/static", 0x0000000000000000),
    ("chip/l2/dynamic", 0x0000000000000000),
    ("core/base/static", 0x0000000000000000),
    ("core/base/dynamic", 0x3fb0592a477f21c6),
    ("core/wcu/static", 0x3fa5530061d5f21c),
    ("core/wcu/dynamic", 0x3fa9cc1d7cdbed11),
    ("core/regfile/static", 0x3fbc8d09b42abc8e),
    ("core/regfile/dynamic", 0x3fb8b1dd06712305),
    ("core/exec/static", 0x3f8389b52007dd45),
    ("core/exec/dynamic", 0x3fd345bd004ed4d7),
    ("core/ldstu/static", 0x3fce0a9cb709a7fd),
    ("core/ldstu/dynamic", 0x3f801763f0da85ca),
    ("core/undiff/static", 0x3fec564d64a95ab7),
    ("core/undiff/dynamic", 0x0000000000000000),
    ("dram/background", 0x4008000000000000),
    ("dram/activate", 0x3f9ccf5213d98f84),
    ("dram/read", 0x3fccf9771e3409c2),
    ("dram/write", 0x3fc512852d3d1e5e),
    ("dram/termination", 0x3fd4ac7f45ef868b),
    ("dram/refresh", 0x0000000000000000),
    ("cluster0/static", 0x400eca717aaaf428),
    ("cluster0/dynamic", 0x3ffb1aec9ddfbeac),
    ("cluster0/busy_fraction", 0x3fedf1418a400677),
    ("cluster0/avg_busy_cores", 0x3fedf1418a400677),
    ("cluster1/static", 0x400eca717aaaf428),
    ("cluster1/dynamic", 0x3ffb6cb0d7485ab9),
    ("cluster1/busy_fraction", 0x3fefc5d4fad98636),
    ("cluster1/avg_busy_cores", 0x3fefc5d4fad98636),
    ("cluster2/static", 0x400eca717aaaf428),
    ("cluster2/dynamic", 0x3ffb320b6230862a),
    ("cluster2/busy_fraction", 0x3fee75bff9897135),
    ("cluster2/avg_busy_cores", 0x3fee75bff9897135),
    ("cluster3/static", 0x400eca717aaaf428),
    ("cluster3/dynamic", 0x3ffb4c8c4fb8d4fe),
    ("cluster3/busy_fraction", 0x3fef0da21535048b),
    ("cluster3/avg_busy_cores", 0x3fef0da21535048b),
    ("scheduler/static", 0x0000000000000000),
    ("scheduler/dynamic", 0x400ab851eb851eb8),
    ("uncore/static", 0x40042932e35bf74e),
    ("uncore/dynamic", 0x4005643c74b298a4),
];
const GT240_TABLE5_SCOPED: &[(&str, u64)] = &[
    ("time", 0x3ee16a2eb0376c79),
    ("chip/cores/static", 0x402eca717aaaf428),
    ("chip/cores/dynamic", 0x402f041ab6d6be35),
    ("chip/noc/static", 0x3ff7c2c67165894c),
    ("chip/noc/dynamic", 0x3ff395e40ec2dcea),
    ("chip/mc/static", 0x3fdfbf837a26c45b),
    ("chip/mc/dynamic", 0x3ffc6a01fffdc00a),
    ("chip/pcie/static", 0x3fe13f7ced916873),
    ("chip/pcie/dynamic", 0x3ff04035c1e13fd5),
    ("chip/l2/static", 0x0000000000000000),
    ("chip/l2/dynamic", 0x0000000000000000),
    ("core/base/static", 0x0000000000000000),
    ("core/base/dynamic", 0x3fc313e1574faa97),
    ("core/wcu/static", 0x3fa5530061d5f21c),
    ("core/wcu/dynamic", 0x3fb73026d9a98519),
    ("core/regfile/static", 0x3fbc8d09b42abc8e),
    ("core/regfile/dynamic", 0x3fc63272a90b4317),
    ("core/exec/static", 0x3f8389b52007dd45),
    ("core/exec/dynamic", 0x3fe152b8ff9e6297),
    ("core/ldstu/static", 0x3fce0a9cb709a7fd),
    ("core/ldstu/dynamic", 0x3f8ced7b45d445c7),
    ("core/undiff/static", 0x3fec564d64a95ab7),
    ("core/undiff/dynamic", 0x0000000000000000),
    ("dram/background", 0x4008000000000000),
    ("dram/activate", 0x3fc0d70db9c4188b),
    ("dram/read", 0x3fda0b3c9e0ab162),
    ("dram/write", 0x3fd2f0e64464de18),
    ("dram/termination", 0x3fe2921963beb65f),
    ("dram/refresh", 0x3f8d9867cadd9b07),
    ("cluster0/static", 0x400eca717aaaf428),
    ("cluster0/dynamic", 0x40083072c32df2e8),
    ("cluster0/busy_fraction", 0x3fefb81bc6b909f6),
    ("cluster0/avg_busy_cores", 0x4000bf2a8108540e),
    ("cluster1/static", 0x400eca717aaaf428),
    ("cluster1/dynamic", 0x400569c735646b86),
    ("cluster1/busy_fraction", 0x3febd029c15265fc),
    ("cluster1/avg_busy_cores", 0x3fffc5e7e666fb1f),
    ("cluster2/static", 0x400eca717aaaf428),
    ("cluster2/dynamic", 0x400860d0877e1310),
    ("cluster2/busy_fraction", 0x3fec297b9be0dd7c),
    ("cluster2/avg_busy_cores", 0x40025dd01e22e6e1),
    ("cluster3/static", 0x400eca717aaaf428),
    ("cluster3/dynamic", 0x400b5d0e6fc568a0),
    ("cluster3/busy_fraction", 0x3fecc36eac832a6a),
    ("cluster3/avg_busy_cores", 0x4004e6a6e26e555f),
    ("scheduler/static", 0x0000000000000000),
    ("scheduler/dynamic", 0x400ab851eb851eb8),
    ("uncore/static", 0x40042932e35bf74e),
    ("uncore/dynamic", 0x40101006f4287732),
];
const GTX580_SCOPED: &[(&str, u64)] = &[
    ("time", 0x3ea6685cba336b22),
    ("chip/cores/static", 0x40525f17e80f17b4),
    ("chip/cores/dynamic", 0x40355a10f12b9cef),
    ("chip/noc/static", 0x400ac5e560cbaf95),
    ("chip/noc/dynamic", 0x400756edb5af6e8d),
    ("chip/mc/static", 0x40017fb777d37c55),
    ("chip/mc/dynamic", 0x4006157af3a395df),
    ("chip/pcie/static", 0x3fe95918978381a6),
    ("chip/pcie/dynamic", 0x3ff075f87850a204),
    ("chip/l2/static", 0x3fc54ef7e78f6937),
    ("chip/l2/dynamic", 0x3fc055a61a38367f),
    ("core/base/static", 0x0000000000000000),
    ("core/base/dynamic", 0x3fa77342fff63563),
    ("core/wcu/static", 0x3fbdaa75cc7b5125),
    ("core/wcu/dynamic", 0x3fc59222663f48de),
    ("core/regfile/static", 0x3fd20a34c054f190),
    ("core/regfile/dynamic", 0x3fcc3c0f26584f9e),
    ("core/exec/static", 0x3fab1e3fcfbf34be),
    ("core/exec/dynamic", 0x3fe431dcc8aae53a),
    ("core/ldstu/static", 0x3fe5708804db3e17),
    ("core/ldstu/dynamic", 0x3f99d3dcc5d2c6ae),
    ("core/undiff/static", 0x400bc6fa8939ea55),
    ("core/undiff/dynamic", 0x0000000000000000),
    ("dram/background", 0x4022000000000000),
    ("dram/activate", 0x3fcd3af432001ab4),
    ("dram/read", 0x3fe43da38e3a27a6),
    ("dram/write", 0x3fdd70ede6260b1e),
    ("dram/termination", 0x3fe87d8340ab6e97),
    ("dram/refresh", 0x0000000000000000),
    ("cluster0/static", 0x40325f17e80f17b4),
    ("cluster0/dynamic", 0x4011fd23c592c783),
    ("cluster0/busy_fraction", 0x3fed17e7a912b076),
    ("cluster0/avg_busy_cores", 0x3fed17e7a912b076),
    ("cluster1/static", 0x40325f17e80f17b4),
    ("cluster1/dynamic", 0x40120e60d1cfd4fe),
    ("cluster1/busy_fraction", 0x3fee350684ff90bc),
    ("cluster1/avg_busy_cores", 0x3fee350684ff90bc),
    ("cluster2/static", 0x40325f17e80f17b4),
    ("cluster2/dynamic", 0x4011fd23c592c783),
    ("cluster2/busy_fraction", 0x3fed17e7a912b076),
    ("cluster2/avg_busy_cores", 0x3fed17e7a912b076),
    ("cluster3/static", 0x40325f17e80f17b4),
    ("cluster3/dynamic", 0x4012037271f6805a),
    ("cluster3/busy_fraction", 0x3fed724f1a834280),
    ("cluster3/avg_busy_cores", 0x3fed724f1a834280),
    ("scheduler/static", 0x0000000000000000),
    ("scheduler/dynamic", 0x400ab851eb851eb8),
    ("uncore/static", 0x4019f8693e7c8174),
    ("uncore/dynamic", 0x401b565fa38f6c6b),
];
const GT240_WCU_ROWS: &[(&str, u64)] = &[
    ("i-cache", 0x3eaa071fb600392d),
    ("decoder", 0x3e17a2e6a75998ff),
    ("instruction buffer", 0x3e83c088d5e39c6b),
    ("scoreboard", 0x3e4cc461722bf825),
    ("reconvergence stacks", 0x3e836fb952221f07),
    ("warp schedulers", 0x3e16aa4bf162496e),
    ("warp status table", 0x3e67e298c9d02a91),
];
const MERGESORT4_ONDEMAND: &[(&str, u64)] = &[
    ("0/op_index", 0x0000000000000003),
    ("0/duration", 0x3ebce7d61dd740bc),
    ("0/cores", 0x4008dfc280a3d5d8),
    ("0/noc", 0x3fde6d24f6b3699c),
    ("0/mc", 0x3fe3e46b588f6119),
    ("0/pcie", 0x3fe9115df6555c53),
    ("0/l2", 0x0000000000000000),
    ("0/static", 0x4019cd60b5f2b3d9),
    ("0/dram", 0x400c4efc7d1dc7fe),
    ("1/op_index", 0x0000000000000002),
    ("1/duration", 0x3ec0dc923c12e5c3),
    ("1/cores", 0x4003172e12164bfa),
    ("1/noc", 0x3fdf4e772b38eaa5),
    ("1/mc", 0x3fe3c2961aa30e68),
    ("1/pcie", 0x3fe348d3ae685db8),
    ("1/l2", 0x0000000000000000),
    ("1/static", 0x4015f05a4ac231fd),
    ("1/dram", 0x400d06748c4448da),
    ("2/op_index", 0x0000000000000001),
    ("2/duration", 0x3ec43be2ae7d13b8),
    ("2/cores", 0x3ffcac9595c0acf3),
    ("2/noc", 0x3fd69e3a872b353c),
    ("2/mc", 0x3fdb4742bcdbc34a),
    ("2/pcie", 0x3fdcab367a0f9098),
    ("2/l2", 0x0000000000000000),
    ("2/static", 0x40127b558b9ec403),
    ("2/dram", 0x400c4e8bf0502467),
    ("3/op_index", 0x0000000000000000),
    ("3/duration", 0x3ec94adb5a1c58a5),
    ("3/cores", 0x3ff401d6aaba4015),
    ("3/noc", 0x3fcc5b97f1fbed55),
    ("3/mc", 0x3fd28c32bdd5ddd3),
    ("3/pcie", 0x3fd450efdc9c4daa),
    ("3/l2", 0x0000000000000000),
    ("3/static", 0x400ed116889d98be),
    ("3/dram", 0x400c27504e512a82),
    ("4/op_index", 0x0000000000000000),
    ("4/duration", 0x3ec94adb5a1c58a5),
    ("4/cores", 0x3ff4348bfa08d0ab),
    ("4/noc", 0x3fcf17e85796aa23),
    ("4/mc", 0x3fd390c11da9b36d),
    ("4/pcie", 0x3fd450efdc9c4daa),
    ("4/l2", 0x0000000000000000),
    ("4/static", 0x400ed116889d98be),
    ("4/dram", 0x400bfc6c7d85bd07),
    ("5/op_index", 0x0000000000000000),
    ("5/duration", 0x3eb350aa8350a5b2),
    ("5/cores", 0x3fefa25af38856dd),
    ("5/noc", 0x3fc8852bca8c1ee1),
    ("5/mc", 0x3fd0657f11d82e26),
    ("5/pcie", 0x3fd450efdc9c4daa),
    ("5/l2", 0x0000000000000000),
    ("5/static", 0x400be0a1961588aa),
    ("5/dram", 0x400b57e6fc159991),
];
