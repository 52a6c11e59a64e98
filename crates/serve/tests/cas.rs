//! Content-addressed store correctness: digest pins, hit/miss/corruption
//! accounting, exhaustive key sensitivity, and a golden key file proving
//! keys are stable across processes and sessions.

// Test driver: failing fast on setup errors is correct here.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bc_accel::Behavior;
use bc_core::FlushPolicy;
use bc_experiments::schema;
use bc_mem::MemBackend;
use bc_os::ViolationPolicy;
use bc_serve::{sha256, Cas};
use bc_system::{GpuClass, HostActivityConfig, SafetyModel, SystemConfig};
use bc_workloads::WorkloadSize;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bc-cas-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same configuration the golden-report suite pins.
fn tiny(safety: SafetyModel, workload: &str) -> SystemConfig {
    let mut c = SystemConfig::table3_defaults();
    c.safety = safety;
    c.gpu_class = GpuClass::ModeratelyThreaded;
    c.workload = workload.to_string();
    c.size = WorkloadSize::Tiny;
    c.max_ops_per_wavefront = Some(1_500);
    c
}

// FIPS 180-4 example vectors, pinned end to end through the public API
// the cache keys go through.
#[test]
fn sha256_matches_nist_vectors() {
    for (message, want) in [
        (
            &b"abc"[..],
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            &b""[..],
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            &b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"[..],
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ] {
        assert_eq!(sha256::hex_digest(message), want);
    }
}

#[test]
fn hits_and_misses_are_accounted() {
    let dir = temp_store("accounting");
    let cas = Cas::open(&dir).unwrap();
    let key = Cas::key_for(&tiny(SafetyModel::BorderControlBcc, "nn"));

    assert_eq!(cas.get(&key), None);
    cas.put(&key, "payload bytes").unwrap();
    assert_eq!(cas.get(&key).as_deref(), Some("payload bytes"));
    assert_eq!(cas.get(&key).as_deref(), Some("payload bytes"));

    let stats = cas.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.puts, 1);
    assert_eq!(stats.corrupt, 0);

    // A fresh handle over the same directory still serves the object:
    // the store is the directory, not the process.
    let reopened = Cas::open(&dir).unwrap();
    assert_eq!(reopened.get(&key).as_deref(), Some("payload bytes"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_on_disk_is_a_miss_not_a_serve() {
    let dir = temp_store("corruption");
    let cas = Cas::open(&dir).unwrap();
    let key = Cas::key_for(&tiny(SafetyModel::FullIommu, "bfs"));
    cas.put(&key, "{\"cycles\": 12345}").unwrap();
    let path = dir.join(&key);

    // Flip one payload byte: digest re-check must refuse to serve it.
    let clean = std::fs::read_to_string(&path).unwrap();
    let corrupted = clean.replace("12345", "12346");
    assert_ne!(clean, corrupted, "tamper target must exist");
    std::fs::write(&path, &corrupted).unwrap();
    assert_eq!(cas.get(&key), None, "tampered payload served");

    // A mangled header is equally dead.
    std::fs::write(&path, clean.replacen("bc-cas 1", "bc-cas 9", 1)).unwrap();
    assert_eq!(cas.get(&key), None, "tampered header served");

    // Truncation to headerless garbage too.
    std::fs::write(&path, "bc-cas 1 deadbeef").unwrap();
    assert_eq!(cas.get(&key), None, "truncated object served");

    let stats = cas.stats();
    assert_eq!(stats.corrupt, 3);
    assert_eq!(stats.hits, 0);

    // And a re-run's put heals the entry.
    cas.put(&key, "{\"cycles\": 12345}").unwrap();
    assert_eq!(cas.get(&key).as_deref(), Some("{\"cycles\": 12345}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two gateway jobs that share a cell run it on their own workers and
/// file the same key at once. Every concurrent `put` must succeed and
/// leave one whole object, with no temp file behind.
#[test]
fn concurrent_puts_of_one_key_all_succeed() {
    let dir = temp_store("concurrent-put");
    let cas = Cas::open(&dir).unwrap();
    let key = Cas::key_for(&tiny(SafetyModel::BorderControlBcc, "bfs"));
    let payload = "r".repeat(64 << 10);
    // Every round releases all eight writers at once; a failure is
    // recorded, not panicked on, so no writer leaves the others waiting
    // at the barrier.
    let start = std::sync::Barrier::new(8);
    let failures = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..40 {
                    start.wait();
                    if let Err(e) = cas.put(&key, &payload) {
                        failures.lock().unwrap().push(e.to_string());
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "failed puts: {failures:?}");
    assert_eq!(cas.stats().puts, 320);
    assert_eq!(cas.get(&key).as_deref(), Some(payload.as_str()));
    assert_eq!(cas.stats().corrupt, 0);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, [key], "temp files left behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every knob of [`SystemConfig`] must move the cache key — a knob the
/// key ignores would alias two different simulations onto one cached
/// result. `shards` is the one deliberate exception (reports are proven
/// byte-identical across shard counts), pinned at the end.
#[test]
fn every_config_field_moves_the_key_except_shards() {
    type Mutation = (&'static str, fn(&mut SystemConfig));
    let mutations: &[Mutation] = &[
        ("safety", |c| c.safety = SafetyModel::CapiLike),
        ("gpu_class", |c| c.gpu_class = GpuClass::HighlyThreaded),
        ("behavior", |c| {
            c.behavior = Behavior::Malicious {
                probe_period: 200,
                probe_writes: true,
            };
        }),
        ("behavior.probe_period", |c| {
            c.behavior = Behavior::Malicious {
                probe_period: 201,
                probe_writes: true,
            };
        }),
        ("workload", |c| c.workload = "bfs".to_string()),
        ("size", |c| c.size = WorkloadSize::Small),
        // bc-lint: allow(saturating-counter) — key-mutation probe; any
        // changed seed value works, wrap included.
        ("seed", |c| c.seed = c.seed.wrapping_add(1)),
        ("phys_bytes", |c| c.phys_bytes += 4096),
        ("dram.access_latency", |c| c.dram.access_latency += 1),
        ("dram.service_per_block", |c| c.dram.service_per_block += 1),
        ("dram.channels", |c| c.dram.channels += 1),
        ("dram.backend", |c| c.dram.backend = MemBackend::CxlPool),
        ("ats.iotlb_entries", |c| c.ats.iotlb_entries *= 2),
        ("ats.iotlb_ways", |c| c.ats.iotlb_ways *= 2),
        ("ats.iotlb_latency", |c| c.ats.iotlb_latency += 1),
        ("ats.walkers", |c| c.ats.walkers += 1),
        ("ats.pwc_entries", |c| c.ats.pwc_entries *= 2),
        ("ats.fault_latency", |c| c.ats.fault_latency += 1),
        ("bcc.entries", |c| c.bcc.entries *= 2),
        ("bcc.pages_per_entry", |c| c.bcc.pages_per_entry *= 2),
        ("bcc.ways", |c| c.bcc.ways *= 2),
        ("bcc.latency", |c| c.bcc.latency += 1),
        ("parallel_read_check", |c| {
            c.parallel_read_check = !c.parallel_read_check;
        }),
        ("flush_policy", |c| c.flush_policy = FlushPolicy::Selective),
        ("trusted_distance_penalty", |c| {
            c.trusted_distance_penalty += 1;
        }),
        ("iommu_hop_latency", |c| c.iommu_hop_latency += 1),
        ("l2_mshrs", |c| c.l2_mshrs += 1),
        ("writeback_buffer", |c| c.writeback_buffer += 1),
        ("l2_ports", |c| c.l2_ports += 1),
        ("iommu_ports", |c| c.iommu_ports += 1),
        ("iommu_service", |c| c.iommu_service += 1),
        ("gpu_clock_mhz", |c| c.gpu_clock_mhz += 1),
        ("downgrades_per_second", |c| c.downgrades_per_second += 1),
        ("downgrade_drain_cycles", |c| c.downgrade_drain_cycles += 1),
        ("violation_policy", |c| {
            c.violation_policy = ViolationPolicy::LogOnly;
        }),
        ("use_huge_pages", |c| c.use_huge_pages = !c.use_huge_pages),
        ("host_activity", |c| {
            c.host_activity = Some(HostActivityConfig {
                period: 8,
                shared_fraction: 0.4,
                write_fraction: 0.3,
                private_bytes: 1 << 20,
            });
        }),
        ("record_check_stream", |c| {
            c.record_check_stream = !c.record_check_stream;
        }),
        ("trace", |c| c.trace = !c.trace),
        ("max_ops_per_wavefront", |c| {
            c.max_ops_per_wavefront = Some(1_501);
        }),
        ("max_ops_per_wavefront=None", |c| {
            c.max_ops_per_wavefront = None;
        }),
        ("max_cycles", |c| c.max_cycles += 1),
        ("audit", |c| c.audit = !c.audit),
        ("cluster_hop_latency", |c| c.cluster_hop_latency += 1),
    ];

    let base = tiny(SafetyModel::BorderControlBcc, "nn");
    let base_key = Cas::key_for(&base);
    for (name, mutate) in mutations {
        let mut changed = base.clone();
        mutate(&mut changed);
        assert_ne!(
            Cas::key_for(&changed),
            base_key,
            "mutating {name} did not move the cache key"
        );
    }

    // The deliberate exception: shard count never changes report bytes,
    // so it must not fragment the cache.
    let mut sharded = base.clone();
    sharded.shards = 8;
    assert_eq!(Cas::key_for(&sharded), base_key);

    // The code revision is key material even with an identical config.
    assert_ne!(Cas::key_for_rev(&base, "some-other-rev"), base_key);
    assert_eq!(Cas::key_for_rev(&base, schema::CODE_REV), base_key);
}

/// A byte-bounded store under churn: puts far past the budget must
/// converge to a store that fits, evicting oldest objects first and
/// accounting every deletion — while the freshest objects keep serving.
#[test]
fn bounded_store_converges_under_churn_evicting_oldest_first() {
    let dir = temp_store("churn");
    // Each object is a ~64-byte header line plus the payload.
    let payload = "x".repeat(200);
    let max: u64 = 900; // fits ~3 objects of ~266 bytes
    let cas = Cas::open_bounded(&dir, Some(max)).unwrap();
    assert_eq!(cas.max_bytes(), Some(max));

    for i in 0..12 {
        cas.put(&format!("object-{i:02}"), &payload).unwrap();
        // Distinct mtimes make "oldest" unambiguous; the name tiebreak
        // covers filesystems that would collapse these anyway.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= max, "store over budget after put {i}: {total}");
    }

    let stats = cas.stats();
    assert_eq!(stats.puts, 12);
    assert_eq!(stats.evictions, 9, "12 puts, 3 fit: 9 evicted");
    assert!(stats.evicted_bytes > 0);

    // The survivors are exactly the three newest objects.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["object-09", "object-10", "object-11"]);
    assert_eq!(cas.get("object-11").as_deref(), Some(payload.as_str()));
    // Evicted objects are clean misses, ready to be re-filed.
    assert_eq!(cas.get("object-00"), None);
    cas.put("object-00", &payload).unwrap();
    assert_eq!(cas.get("object-00").as_deref(), Some(payload.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A single object bigger than the whole budget is stored (never
/// self-evicted into a thrash loop) and displaces everything else.
#[test]
fn oversize_object_is_kept_not_thrashed() {
    let dir = temp_store("oversize");
    let cas = Cas::open_bounded(&dir, Some(300)).unwrap();
    cas.put("small", "tiny payload").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));
    cas.put("huge", &"y".repeat(2_000)).unwrap();
    assert_eq!(cas.get("huge").as_deref(), Some("y".repeat(2_000).as_str()));
    assert_eq!(cas.get("small"), None, "older object displaced");
    assert_eq!(cas.stats().evictions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

fn golden_keys_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/keys.json")
}

fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

/// Cache keys for the ten golden configurations, pinned to a committed
/// file: any drift in the canonical encoding, the digest, or the code
/// revision fails here *across process restarts and machines*, not just
/// within one test run. After an intentional schema/revision change:
///
/// ```text
/// BLESS=1 cargo test -p bc-serve --test cas
/// ```
#[test]
fn golden_config_keys_are_stable_across_processes() {
    let mut lines = Vec::new();
    for safety in SafetyModel::ALL {
        for workload in ["nn", "bfs"] {
            let key = Cas::key_for(&tiny(safety, workload));
            lines.push(format!(
                "  \"tiny_{}_{workload}\": \"{key}\"",
                slug(safety.label())
            ));
        }
    }
    let rendered = format!("{{\n{}\n}}\n", lines.join(",\n"));

    let path = golden_keys_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden key file {}: {e}\nregenerate with: \
             BLESS=1 cargo test -p bc-serve --test cas",
            path.display()
        )
    });
    assert_eq!(
        want,
        rendered,
        "cache keys drifted from {}; if the schema or CODE_REV change is \
         intentional, re-bless and review alongside the report goldens",
        path.display()
    );
}
