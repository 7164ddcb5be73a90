//! Plain-text configuration files.
//!
//! GPUSimPow takes "the key parameters of the simulated architecture …
//! using a simple XML-based interface" (paper §III-A). This reproduction
//! uses an equally simple `key = value` format (XML adds nothing here and
//! would require a dependency):
//!
//! ```text
//! # my-gpu.cfg — start from a preset, override what differs
//! base = gt240
//! name = MyGpu
//! clusters = 8
//! cores_per_cluster = 2
//! process_nm = 28
//! l2 = 512K,128,8,20      # capacity,line,ways,latency — or "none"
//! ```

use std::fmt;

use gpusimpow_sim::{GpuConfig, L2Config, WarpSchedPolicy};

/// A configuration-file parse error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigFileError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ConfigFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigFileError {}

fn err(line: usize, message: impl Into<String>) -> ConfigFileError {
    ConfigFileError {
        line,
        message: message.into(),
    }
}

/// Parses a configuration file into a [`GpuConfig`].
///
/// The optional `base = gt240|gtx580` line (which must come first if
/// present) selects the preset being overridden; without it the GT240
/// preset is the base.
///
/// # Errors
///
/// Returns a [`ConfigFileError`] locating the first unknown key, bad
/// value or failed validation.
pub fn parse_config(text: &str) -> Result<GpuConfig, ConfigFileError> {
    let mut cfg = GpuConfig::gt240();
    for (idx, raw) in text.lines().enumerate() {
        let lno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lno, "expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        apply(&mut cfg, key, value).map_err(|m| err(lno, m))?;
    }
    cfg.validate().map_err(|e| err(0, e.to_string()))?;
    Ok(cfg)
}

fn parse<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("bad value `{v}` for `{key}`"))
}

/// A byte count with an optional `K` / `M` suffix.
fn bytes(key: &str, v: &str) -> Result<usize, String> {
    let (num, mult) = match v.to_ascii_uppercase() {
        ref s if s.ends_with('K') => (s[..s.len() - 1].to_string(), 1024),
        ref s if s.ends_with('M') => (s[..s.len() - 1].to_string(), 1024 * 1024),
        ref s => (s.clone(), 1),
    };
    Ok(parse::<usize>(key, &num)? * mult)
}

/// One `key = value` line of the format: how [`write_config`] renders
/// the field(s) behind it and how [`parse_config`] reads them back.
/// Both walk [`KEYS`], so a field cannot be written without being
/// readable, or the reverse.
struct Key {
    name: &'static str,
    write: fn(&GpuConfig) -> String,
    set: fn(&mut GpuConfig, &str) -> Result<(), String>,
}

/// A key that maps to one field, written with `Display` and read with
/// `$parser` ([`parse`], or [`bytes`] where a size suffix is accepted).
macro_rules! key {
    ($name:literal, $($field:ident).+, $parser:ident) => {
        Key {
            name: $name,
            write: |c| c.$($field).+.to_string(),
            set: |c, v| {
                c.$($field).+ = $parser($name, v)?;
                Ok(())
            },
        }
    };
}

/// Every key of the format except `base`, in the order [`write_config`]
/// emits them.
const KEYS: &[Key] = &[
    key!("name", name, parse),
    key!("clusters", clusters, parse),
    key!("cores_per_cluster", cores_per_cluster, parse),
    key!("warp_size", warp_size, parse),
    key!("max_threads_per_core", max_threads_per_core, parse),
    key!("max_ctas_per_core", max_ctas_per_core, parse),
    key!("issue_width", issue_width, parse),
    Key {
        name: "warp_scheduler",
        write: |c| match c.warp_scheduler {
            WarpSchedPolicy::RoundRobin => "rr".to_string(),
            WarpSchedPolicy::TwoLevel { active_warps } => format!("two_level:{active_warps}"),
        },
        set: |c, v| {
            c.warp_scheduler = if v == "rr" {
                WarpSchedPolicy::RoundRobin
            } else if let Some(n) = v.strip_prefix("two_level:") {
                WarpSchedPolicy::TwoLevel {
                    active_warps: parse("warp_scheduler", n)?,
                }
            } else {
                return Err(format!(
                    "warp_scheduler expects `rr` or `two_level:N`, got `{v}`"
                ));
            };
            Ok(())
        },
    },
    key!("scoreboard", scoreboard, parse),
    key!("icache", icache_bytes, bytes),
    key!("regfile_regs_per_core", regfile_regs_per_core, parse),
    key!("regfile_banks", regfile_banks, parse),
    key!("operand_collectors", operand_collectors, parse),
    key!("simd_width", simd_width, parse),
    key!("sfu_count", sfu_count, parse),
    key!("int_latency", int_latency, parse),
    key!("fp_latency", fp_latency, parse),
    key!("sfu_latency", sfu_latency, parse),
    key!("smem", smem_bytes, bytes),
    key!("smem_banks", smem_banks, parse),
    key!("smem_latency", smem_latency, parse),
    Key {
        name: "l1",
        write: |c| {
            if c.l1_enabled {
                c.l1_bytes.to_string()
            } else {
                "none".to_string()
            }
        },
        set: |c, v| {
            c.l1_enabled = v != "none";
            c.l1_bytes = if c.l1_enabled { bytes("l1", v)? } else { 0 };
            Ok(())
        },
    },
    key!("l1_line_bytes", l1_line_bytes, parse),
    key!("l1_ways", l1_ways, parse),
    key!("l1_latency", l1_latency, parse),
    Key {
        name: "l2",
        write: |c| match c.l2 {
            None => "none".to_string(),
            Some(l2) => format!(
                "{},{},{},{}",
                l2.capacity_bytes, l2.line_bytes, l2.ways, l2.latency
            ),
        },
        set: |c, v| {
            c.l2 = if v == "none" {
                None
            } else {
                let parts: Vec<&str> = v.split(',').map(str::trim).collect();
                if parts.len() != 4 {
                    return Err("l2 expects `capacity,line,ways,latency` or `none`".to_string());
                }
                Some(L2Config {
                    capacity_bytes: bytes("l2", parts[0])?,
                    line_bytes: parse("l2", parts[1])?,
                    ways: parse("l2", parts[2])?,
                    latency: parse("l2", parts[3])?,
                })
            };
            Ok(())
        },
    },
    key!("const_cache", const_cache_bytes, bytes),
    key!("const_latency", const_latency, parse),
    key!("sagu_count", sagu_count, parse),
    key!("noc_latency", noc_latency, parse),
    key!("noc_flit_bytes", noc_flit_bytes, parse),
    key!("noc_bandwidth_flits", noc_bandwidth_flits, parse),
    key!("mem_channels", mem_channels, parse),
    key!("mc_queue_depth", mc_queue_depth, parse),
    key!("uncore_mhz", uncore_mhz, parse),
    key!("shader_ratio", shader_ratio, parse),
    key!("dram_mhz", dram_mhz, parse),
    key!("dram_banks", dram.banks, parse),
    key!("dram_row_bytes", dram.row_bytes, parse),
    key!("dram_t_rcd", dram.t_rcd, parse),
    key!("dram_t_rp", dram.t_rp, parse),
    key!("dram_t_cas", dram.t_cas, parse),
    key!("dram_t_rc", dram.t_rc, parse),
    key!("dram_burst_cycles", dram.burst_cycles, parse),
    key!("dram_t_refi", dram.t_refi, parse),
    key!("dram_t_rfc", dram.t_rfc, parse),
    key!("process_nm", process_nm, parse),
    key!("junction_temp_k", junction_temp_k, parse),
];

fn apply(cfg: &mut GpuConfig, key: &str, value: &str) -> Result<(), String> {
    if key == "base" {
        *cfg = match value {
            "gt240" => GpuConfig::gt240(),
            "gtx580" => GpuConfig::gtx580(),
            other => return Err(format!("unknown base preset `{other}`")),
        };
        return Ok(());
    }
    match KEYS.iter().find(|k| k.name == key) {
        Some(k) => (k.set)(cfg, value),
        None => Err(format!("unknown configuration key `{key}`")),
    }
}

/// Serializes a configuration to the file format (round-trips through
/// [`parse_config`]).
pub fn write_config(cfg: &GpuConfig) -> String {
    KEYS.iter()
        .map(|k| format!("{} = {}\n", k.name, (k.write)(cfg)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusimpow_sim::DramConfig;

    #[test]
    fn presets_roundtrip() {
        for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
            let text = write_config(&cfg);
            let parsed = parse_config(&text).unwrap();
            assert_eq!(parsed, cfg);
        }
    }

    /// One `Debug` string per field, through exhaustive patterns: a
    /// field added to either struct fails to compile here until it is
    /// listed — and then fails `every_field_has_a_key` until
    /// `odd_config` perturbs it and [`KEYS`] carries it.
    fn fields(cfg: &GpuConfig) -> Vec<String> {
        macro_rules! debug_each {
            ($($f:ident),*; dram: $($d:ident),*) => {{
                let GpuConfig { $($f,)* dram: DramConfig { $($d,)* } } = cfg;
                vec![$(format!("{:?}", $f),)* $(format!("{:?}", $d),)*]
            }};
        }
        debug_each!(
            name, clusters, cores_per_cluster, warp_size, max_threads_per_core,
            max_ctas_per_core, issue_width, warp_scheduler, scoreboard, icache_bytes,
            regfile_regs_per_core, regfile_banks, operand_collectors, simd_width,
            sfu_count, int_latency, fp_latency, sfu_latency, smem_bytes, smem_banks,
            smem_latency, l1_enabled, l1_bytes, l1_line_bytes, l1_ways, l1_latency,
            const_cache_bytes, const_latency, sagu_count, l2, noc_latency,
            noc_flit_bytes, noc_bandwidth_flits, mem_channels, mc_queue_depth,
            uncore_mhz, shader_ratio, dram_mhz, process_nm, junction_temp_k;
            dram: banks, row_bytes, t_rcd, t_rp, t_cas, t_rc, burst_cycles, t_refi, t_rfc
        )
    }

    /// A valid configuration that differs from the GT240 parse base in
    /// every field.
    fn odd_config() -> GpuConfig {
        GpuConfig {
            name: "Odd".to_string(),
            clusters: 3,
            cores_per_cluster: 2,
            warp_size: 16,
            max_threads_per_core: 512,
            max_ctas_per_core: 4,
            issue_width: 2,
            warp_scheduler: WarpSchedPolicy::TwoLevel { active_warps: 6 },
            scoreboard: true,
            icache_bytes: 2 * 1024,
            regfile_regs_per_core: 8 * 1024,
            regfile_banks: 8,
            operand_collectors: 2,
            simd_width: 16,
            sfu_count: 1,
            int_latency: 4,
            fp_latency: 6,
            sfu_latency: 16,
            smem_bytes: 32 * 1024,
            smem_banks: 8,
            smem_latency: 12,
            l1_enabled: true,
            l1_bytes: 8 * 1024,
            l1_line_bytes: 64,
            l1_ways: 8,
            l1_latency: 30,
            const_cache_bytes: 4 * 1024,
            const_latency: 6,
            sagu_count: 2,
            l2: Some(L2Config {
                capacity_bytes: 512 * 1024,
                line_bytes: 64,
                ways: 4,
                latency: 24,
            }),
            noc_latency: 5,
            noc_flit_bytes: 16,
            noc_bandwidth_flits: 4,
            mem_channels: 3,
            mc_queue_depth: 8,
            dram: DramConfig {
                banks: 8,
                row_bytes: 1024,
                t_rcd: 10,
                t_rp: 11,
                t_cas: 13,
                t_rc: 38,
                burst_cycles: 4,
                t_refi: 4000,
                t_rfc: 100,
            },
            uncore_mhz: 600.5,
            shader_ratio: 2.25,
            dram_mhz: 900.0,
            process_nm: 28,
            junction_temp_k: 360.0,
        }
    }

    #[test]
    fn every_field_has_a_key() {
        let odd = odd_config();
        for (base, odd) in fields(&GpuConfig::gt240()).iter().zip(fields(&odd)) {
            assert_ne!(*base, odd, "odd_config must move every field off the base");
        }
        assert_eq!(parse_config(&write_config(&odd)).unwrap(), odd);
    }

    #[test]
    fn base_preset_with_overrides() {
        let cfg = parse_config(
            "
            base = gtx580
            name = HalfFermi   # a hypothetical 8-core Fermi
            clusters = 2
        ",
        )
        .unwrap();
        assert_eq!(cfg.name, "HalfFermi");
        assert_eq!(cfg.total_cores(), 8);
        assert!(cfg.scoreboard, "inherited from the gtx580 base");
    }

    #[test]
    fn byte_suffixes() {
        let cfg = parse_config("smem = 48K\nl2 = 1M,128,8,20").unwrap();
        assert_eq!(cfg.smem_bytes, 48 * 1024);
        assert_eq!(cfg.l2.unwrap().capacity_bytes, 1024 * 1024);
    }

    #[test]
    fn unknown_key_reports_line() {
        let e = parse_config("clusters = 4\nbogus = 1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn bad_value_reports_key() {
        let e = parse_config("clusters = banana").unwrap_err();
        assert!(e.message.contains("clusters"));
    }

    #[test]
    fn validation_failures_surface() {
        let e = parse_config("clusters = 0").unwrap_err();
        assert!(e.message.contains("core"));
    }

    #[test]
    fn configs_the_gpu_cannot_build_are_validation_errors_not_panics() {
        // Each line used to parse, validate, and then panic inside
        // `Gpu::new` (or spin until the watchdog) — `from_config_text`
        // must hand back its line-numbered error instead.
        for (text, field) in [
            ("noc_bandwidth_flits = 0", "noc_bandwidth_flits"),
            ("icache = 0", "icache_bytes"),
            ("const_cache = 100", "const_cache_bytes"),
            ("base = gtx580\nl1 = 1000", "l1_bytes"),
            ("max_ctas_per_core = 0", "max_ctas_per_core"),
            ("mc_queue_depth = 0", "mc_queue_depth"),
            ("shader_ratio = NaN", "shader_ratio"),
            ("uncore_mhz = 1e-300", "uncore_mhz"),
            // 65 warps of 32 threads: one past the hint masks.
            ("max_threads_per_core = 2080", "max_threads_per_core"),
        ] {
            let e = parse_config(text).expect_err(text);
            assert_eq!(e.line, 0, "{text}: a validation error, not a parse error");
            assert!(e.message.contains(field), "{text}: `{}`", e.message);
            assert!(crate::Simulator::from_config_text(text).is_err(), "{text}");
        }
    }

    #[test]
    fn l2_none_disables() {
        let cfg = parse_config("base = gtx580\nl2 = none").unwrap();
        assert!(cfg.l2.is_none());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let cfg = parse_config("\n# a comment\nclusters = 2 # trailing\n\n").unwrap();
        assert_eq!(cfg.clusters, 2);
    }
}
