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

use gpusimpow_sim::{DramConfig, GpuConfig, L2Config, WarpSchedPolicy};

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

fn apply(cfg: &mut GpuConfig, key: &str, value: &str) -> Result<(), String> {
    fn parse<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("bad value `{v}` for `{key}`"))
    }
    fn bytes(key: &str, v: &str) -> Result<usize, String> {
        let (num, mult) = match v.to_ascii_uppercase() {
            ref s if s.ends_with('K') => (s[..s.len() - 1].to_string(), 1024),
            ref s if s.ends_with('M') => (s[..s.len() - 1].to_string(), 1024 * 1024),
            ref s => (s.clone(), 1),
        };
        Ok(parse::<usize>(key, &num)? * mult)
    }
    match key {
        "base" => {
            *cfg = match value {
                "gt240" => GpuConfig::gt240(),
                "gtx580" => GpuConfig::gtx580(),
                other => return Err(format!("unknown base preset `{other}`")),
            };
        }
        "name" => cfg.name = value.to_string(),
        "clusters" => cfg.clusters = parse(key, value)?,
        "cores_per_cluster" => cfg.cores_per_cluster = parse(key, value)?,
        "warp_size" => cfg.warp_size = parse(key, value)?,
        "max_threads_per_core" => cfg.max_threads_per_core = parse(key, value)?,
        "max_ctas_per_core" => cfg.max_ctas_per_core = parse(key, value)?,
        "issue_width" => cfg.issue_width = parse(key, value)?,
        "warp_scheduler" => {
            cfg.warp_scheduler = if value == "rr" {
                WarpSchedPolicy::RoundRobin
            } else if let Some(n) = value.strip_prefix("two_level:") {
                WarpSchedPolicy::TwoLevel {
                    active_warps: parse(key, n)?,
                }
            } else {
                return Err(format!(
                    "warp_scheduler expects `rr` or `two_level:N`, got `{value}`"
                ));
            };
        }
        "scoreboard" => cfg.scoreboard = parse(key, value)?,
        "icache" => cfg.icache_bytes = bytes(key, value)?,
        "regfile_regs_per_core" => cfg.regfile_regs_per_core = parse(key, value)?,
        "regfile_banks" => cfg.regfile_banks = parse(key, value)?,
        "operand_collectors" => cfg.operand_collectors = parse(key, value)?,
        "simd_width" => cfg.simd_width = parse(key, value)?,
        "sfu_count" => cfg.sfu_count = parse(key, value)?,
        "int_latency" => cfg.int_latency = parse(key, value)?,
        "fp_latency" => cfg.fp_latency = parse(key, value)?,
        "sfu_latency" => cfg.sfu_latency = parse(key, value)?,
        "smem" => cfg.smem_bytes = bytes(key, value)?,
        "smem_banks" => cfg.smem_banks = parse(key, value)?,
        "smem_latency" => cfg.smem_latency = parse(key, value)?,
        "l1" => match value {
            "none" => {
                cfg.l1_enabled = false;
                cfg.l1_bytes = 0;
            }
            v => {
                cfg.l1_enabled = true;
                cfg.l1_bytes = bytes(key, v)?;
            }
        },
        "l2" => match value {
            "none" => cfg.l2 = None,
            v => {
                let parts: Vec<&str> = v.split(',').map(str::trim).collect();
                if parts.len() != 4 {
                    return Err("l2 expects `capacity,line,ways,latency` or `none`".to_string());
                }
                cfg.l2 = Some(L2Config {
                    capacity_bytes: bytes(key, parts[0])?,
                    line_bytes: parse(key, parts[1])?,
                    ways: parse(key, parts[2])?,
                    latency: parse(key, parts[3])?,
                });
            }
        },
        "const_cache" => cfg.const_cache_bytes = bytes(key, value)?,
        "sagu_count" => cfg.sagu_count = parse(key, value)?,
        "noc_latency" => cfg.noc_latency = parse(key, value)?,
        "noc_flit_bytes" => cfg.noc_flit_bytes = parse(key, value)?,
        "noc_bandwidth_flits" => cfg.noc_bandwidth_flits = parse(key, value)?,
        "mem_channels" => cfg.mem_channels = parse(key, value)?,
        "mc_queue_depth" => cfg.mc_queue_depth = parse(key, value)?,
        "uncore_mhz" => cfg.uncore_mhz = parse(key, value)?,
        "shader_ratio" => cfg.shader_ratio = parse(key, value)?,
        "dram_mhz" => cfg.dram_mhz = parse(key, value)?,
        "dram_banks" => cfg.dram.banks = parse(key, value)?,
        "dram_row_bytes" => cfg.dram.row_bytes = parse(key, value)?,
        "process_nm" => cfg.process_nm = parse(key, value)?,
        "junction_temp_k" => cfg.junction_temp_k = parse(key, value)?,
        other => return Err(format!("unknown configuration key `{other}`")),
    }
    Ok(())
}

/// Serializes a configuration to the file format (round-trips through
/// [`parse_config`]).
pub fn write_config(cfg: &GpuConfig) -> String {
    let DramConfig {
        banks, row_bytes, ..
    } = cfg.dram;
    let l2 = match cfg.l2 {
        None => "none".to_string(),
        Some(l2) => format!(
            "{},{},{},{}",
            l2.capacity_bytes, l2.line_bytes, l2.ways, l2.latency
        ),
    };
    let l1 = if cfg.l1_enabled {
        cfg.l1_bytes.to_string()
    } else {
        "none".to_string()
    };
    let sched = match cfg.warp_scheduler {
        WarpSchedPolicy::RoundRobin => "rr".to_string(),
        WarpSchedPolicy::TwoLevel { active_warps } => format!("two_level:{active_warps}"),
    };
    format!(
        "name = {}\nclusters = {}\ncores_per_cluster = {}\nwarp_size = {}\n\
         max_threads_per_core = {}\nmax_ctas_per_core = {}\nissue_width = {}\n\
         warp_scheduler = {}\n\
         scoreboard = {}\nicache = {}\nregfile_regs_per_core = {}\n\
         regfile_banks = {}\noperand_collectors = {}\nsimd_width = {}\n\
         sfu_count = {}\nint_latency = {}\nfp_latency = {}\nsfu_latency = {}\n\
         smem = {}\nsmem_banks = {}\nsmem_latency = {}\nl1 = {}\nl2 = {}\n\
         const_cache = {}\nsagu_count = {}\nnoc_latency = {}\n\
         noc_flit_bytes = {}\nnoc_bandwidth_flits = {}\nmem_channels = {}\n\
         mc_queue_depth = {}\nuncore_mhz = {}\nshader_ratio = {}\n\
         dram_mhz = {}\ndram_banks = {}\ndram_row_bytes = {}\nprocess_nm = {}\n\
         junction_temp_k = {}\n",
        cfg.name,
        cfg.clusters,
        cfg.cores_per_cluster,
        cfg.warp_size,
        cfg.max_threads_per_core,
        cfg.max_ctas_per_core,
        cfg.issue_width,
        sched,
        cfg.scoreboard,
        cfg.icache_bytes,
        cfg.regfile_regs_per_core,
        cfg.regfile_banks,
        cfg.operand_collectors,
        cfg.simd_width,
        cfg.sfu_count,
        cfg.int_latency,
        cfg.fp_latency,
        cfg.sfu_latency,
        cfg.smem_bytes,
        cfg.smem_banks,
        cfg.smem_latency,
        l1,
        l2,
        cfg.const_cache_bytes,
        cfg.sagu_count,
        cfg.noc_latency,
        cfg.noc_flit_bytes,
        cfg.noc_bandwidth_flits,
        cfg.mem_channels,
        cfg.mc_queue_depth,
        cfg.uncore_mhz,
        cfg.shader_ratio,
        cfg.dram_mhz,
        banks,
        row_bytes,
        cfg.process_nm,
        cfg.junction_temp_k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_roundtrip() {
        for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
            let text = write_config(&cfg);
            let parsed = parse_config(&text).unwrap();
            assert_eq!(parsed, cfg);
        }
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
