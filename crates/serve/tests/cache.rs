//! Cache-layer contract tests: golden job digests, canonical-encoding
//! stability, disk-tier corruption recovery and LRU bounds.

use std::sync::Arc;

use gpusimpow_serve::proto::{decode_result, encode_result};
use gpusimpow_serve::store::StoreTier;
use gpusimpow_serve::{
    run_job, GovernorSpec, GpuPreset, JobDigest, JobSpec, KernelSpec, ResultStore, StoreConfig,
};

fn golden_specs() -> Vec<(&'static str, JobSpec, &'static str)> {
    vec![
        (
            "cluster_step",
            JobSpec {
                kernel: KernelSpec::ClusterStep {
                    iterations: 64,
                    blocks: 2,
                    threads: 64,
                },
                gpu: GpuPreset::Gt240,
                governor: GovernorSpec::Baseline,
                window_cycles: 0,
            },
            "4c99912e70155664d0f77863716b68ee",
        ),
        (
            "lfsr",
            JobSpec {
                kernel: KernelSpec::Lfsr {
                    lanes: 8,
                    iterations: 32,
                    blocks: 4,
                    threads: 128,
                },
                gpu: GpuPreset::Gtx580,
                governor: GovernorSpec::Ondemand,
                window_cycles: 2048,
            },
            "d23d5b493c7c2124102682230412bd3f",
        ),
        (
            "mandelbrot",
            JobSpec {
                kernel: KernelSpec::Mandelbrot {
                    lanes: 32,
                    iterations: 16,
                    blocks: 2,
                    threads: 64,
                },
                gpu: GpuPreset::Gt240,
                governor: GovernorSpec::ClusterOndemand,
                window_cycles: 1024,
            },
            "50f225f3a42934609f589f1b6d5c6cd0",
        ),
        (
            "divergence",
            JobSpec {
                kernel: KernelSpec::Divergence {
                    depth: 3,
                    blocks: 2,
                    threads: 64,
                },
                gpu: GpuPreset::Gt240,
                governor: GovernorSpec::PowerCap { cap_mw: 70_000 },
                window_cycles: 4096,
            },
            "4ed6a593d0d366f675f32b8b3b584f40",
        ),
        (
            "conflict",
            JobSpec {
                kernel: KernelSpec::Conflict {
                    stride: 8,
                    iterations: 32,
                    blocks: 2,
                    threads: 32,
                },
                gpu: GpuPreset::Gtx580,
                governor: GovernorSpec::Baseline,
                window_cycles: 0,
            },
            "da2c3dd1165f8f17a23f92f09aaaa357",
        ),
        (
            "suite",
            JobSpec {
                kernel: KernelSpec::Suite {
                    index: 0,
                    small: true,
                },
                gpu: GpuPreset::Gt240,
                governor: GovernorSpec::Baseline,
                window_cycles: 0,
            },
            "b90e28a8e50faf0f62150b842c9d8e72",
        ),
    ]
}

/// The checked-in digests pin the canonical encoding: any accidental
/// change to field order, widths, tags or the digest function itself
/// fails here loudly. An *intentional* change must bump
/// `JOB_ENCODING_VERSION` (orphaning every cached result) and update
/// these goldens in the same commit.
#[test]
fn job_digests_match_checked_in_goldens() {
    for (name, spec, expected) in golden_specs() {
        assert_eq!(
            spec.digest().to_hex(),
            expected,
            "digest of the `{name}` golden job changed — if the canonical \
             encoding changed on purpose, bump JOB_ENCODING_VERSION and \
             refresh the goldens"
        );
    }
}

/// The digest is a pure function of the spec — rebuilding the same spec
/// yields the same digest, and every golden decodes back to its spec.
#[test]
fn canonical_encoding_is_stable_and_injective_on_goldens() {
    let specs = golden_specs();
    for (name, spec, _) in &specs {
        let decoded = JobSpec::decode(&spec.canonical_bytes()).unwrap();
        assert_eq!(&decoded, spec, "{name} roundtrips");
        assert_eq!(decoded.digest(), spec.digest(), "{name} digest stable");
    }
    // All goldens are distinct jobs with distinct digests.
    for (i, (_, a, _)) in specs.iter().enumerate() {
        for (_, b, _) in specs.iter().skip(i + 1) {
            assert_ne!(a.digest(), b.digest());
        }
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gpusimpow-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The result encoding (GSPR) and the on-disk entry layout (GSPC) are
/// pinned the way the job goldens pin GSPJ: the digests below were
/// captured at the commit before the codec primitives moved into
/// `gpusimpow-trace`, over one plain and one windowed golden job. An
/// intentional change bumps `RESULT_ENCODING_VERSION` or
/// `CACHE_ENTRY_VERSION` and refreshes them in the same commit.
#[test]
fn result_and_cache_entry_encodings_match_checked_in_goldens() {
    let goldens = [
        (
            "cluster_step",
            "705d21c585afad6a3b3a11fe4789a2de",
            "6ff30212a089f46be0c9711c970e8e2c",
        ),
        (
            "lfsr",
            "bc389da584c090bf12f6110aa4c8f63f",
            "53352d758185a35aecb8cb52818d95e1",
        ),
    ];
    let dir = temp_dir("freeze");
    let cfg = StoreConfig {
        dir: Some(dir.clone()),
        mem_capacity: 8,
    };
    let mut store = ResultStore::new(cfg.clone()).unwrap();
    for (name, gspr, gspc) in goldens {
        let (_, spec, _) = golden_specs()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .unwrap();
        let result = run_job(&spec).unwrap();
        let payload = encode_result(&result);
        assert_eq!(JobDigest::compute(&payload).to_hex(), gspr, "{name} GSPR");
        assert_eq!(decode_result(&payload).unwrap(), result, "{name} GSPR");

        store.insert(spec.digest(), Arc::new(payload.clone()));
        let entry = dir.join(format!("{}.gspc", spec.digest().to_hex()));
        let on_disk = std::fs::read(&entry).unwrap();
        assert_eq!(JobDigest::compute(&on_disk).to_hex(), gspc, "{name} GSPC");
        let (back, tier) = ResultStore::new(cfg.clone())
            .unwrap()
            .get(spec.digest())
            .expect("a cold store reads the entry back");
        assert_eq!(tier, StoreTier::Disk);
        assert_eq!(*back, payload, "{name} GSPC");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// End-to-end disk-tier corruption: a truncated entry and a garbage
/// entry are both detected, evicted and transparently recomputed.
#[test]
fn disk_corruption_is_detected_evicted_and_recomputed() {
    let dir = temp_dir("corrupt");
    let cfg = StoreConfig {
        dir: Some(dir.clone()),
        mem_capacity: 8,
    };
    let digest = JobDigest([0x42; 16]);
    let payload = Arc::new(vec![7u8; 256]);

    // Write through one store instance.
    let mut store = ResultStore::new(cfg.clone()).unwrap();
    store.insert(digest, Arc::clone(&payload));

    // Find the entry file and truncate it.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "gspc"))
        .expect("disk tier wrote an entry");
    let good = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &good[..good.len() / 3]).unwrap();

    let mut cold = ResultStore::new(cfg.clone()).unwrap();
    assert!(cold.get(digest).is_none(), "truncated entry must miss");
    assert_eq!(cold.counters().corrupt_evictions, 1);
    assert!(!entry.exists(), "truncated entry must be deleted");

    // Recompute (re-insert) and confirm the heal.
    cold.insert(digest, Arc::clone(&payload));
    assert!(entry.exists(), "healed entry is rewritten");

    // Replace with outright garbage.
    std::fs::write(&entry, b"not a cache entry at all").unwrap();
    let mut cold = ResultStore::new(cfg).unwrap();
    assert!(cold.get(digest).is_none(), "garbage entry must miss");
    assert_eq!(cold.counters().corrupt_evictions, 1);
    assert!(!entry.exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The memory tier stays bounded and falls back to the disk tier for
/// evicted entries.
#[test]
fn lru_bound_holds_with_disk_backing() {
    let dir = temp_dir("lru");
    let cfg = StoreConfig {
        dir: Some(dir.clone()),
        mem_capacity: 4,
    };
    let mut store = ResultStore::new(cfg).unwrap();
    for n in 0..16u8 {
        store.insert(JobDigest([n; 16]), Arc::new(vec![n; 32]));
        assert!(store.mem_entries() <= 4, "memory tier exceeded its bound");
    }
    // An early entry was evicted from memory but survives on disk.
    let (payload, tier) = store.get(JobDigest([0; 16])).expect("disk backs the LRU");
    assert_eq!(tier, StoreTier::Disk);
    assert_eq!(*payload, vec![0u8; 32]);
    std::fs::remove_dir_all(&dir).unwrap();
}
