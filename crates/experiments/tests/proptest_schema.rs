//! Property tests for the canonical schema.
//!
//! The cache-key contract (`bc-serve`) requires that for *any* reachable
//! [`SystemConfig`] — not just the handful of matrix shapes the figure
//! binaries build — `encode(decode(encode(c))) == encode(c)` byte for
//! byte, and that key material is sensitive to everything except the
//! shard count. These tests drive the whole coordinate space: every enum
//! axis, u64 seeds up to `u64::MAX`, optional fields both ways, and float
//! knobs in the host-activity config. The report codec is held to the
//! same round trip over generated [`RunReport`]s.

use bc_accel::Behavior;
use bc_core::FlushPolicy;
use bc_experiments::schema::{self, SchemaError};
use bc_mem::MemBackend;
use bc_os::ViolationPolicy;
use bc_sim::audit::{AuditFinding, AuditKind, AuditReport};
use bc_system::{AbortReason, GpuClass, HostActivityConfig, RunReport, SafetyModel, SystemConfig};
use bc_workloads::WorkloadSize;
use proptest::collection::vec;
use proptest::prelude::*;

const WORKLOAD_NAMES: [&str; 8] = [
    "backprop",
    "bfs",
    "hotspot",
    "lud",
    "nn",
    "nw",
    "pathfinder",
    "custom workload \"quoted\\weird\"",
];

fn behavior_strategy() -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::Correct),
        Just(Behavior::BuggyStaleTlb),
        (1u64..5000, any::<bool>()).prop_map(|(probe_period, probe_writes)| {
            Behavior::Malicious {
                probe_period,
                probe_writes,
            }
        }),
    ]
}

fn host_strategy() -> impl Strategy<Value = Option<HostActivityConfig>> {
    prop_oneof![
        Just(None),
        (1u64..1000, 0u64..101, 0u64..101, 0u64..(1 << 30)).prop_map(
            |(period, shared, write, private_bytes)| {
                Some(HostActivityConfig {
                    period,
                    // Fractions land on awkward decimals on purpose: the
                    // canonical float spelling must survive them.
                    shared_fraction: shared as f64 / 101.0,
                    write_fraction: write as f64 / 101.0,
                    private_bytes,
                })
            }
        ),
    ]
}

/// An arbitrary reachable configuration: table-3 defaults with every
/// schema-visible axis resampled.
fn config_strategy() -> impl Strategy<Value = SystemConfig> {
    let enums = (
        0usize..SafetyModel::ALL.len(),
        0usize..2,
        behavior_strategy(),
        0usize..WORKLOAD_NAMES.len(),
        0usize..3,
    );
    let words = (
        any::<u64>(),
        0u64..1_000_000,
        1u64..1 << 40,
        0u64..10_000,
        1u64..64,
    );
    let flags = (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    );
    let extras = (host_strategy(), 0u64..20_000, 1usize..32, any::<bool>());
    (enums, words, flags, extras).prop_map(
        |(
            (safety, gpu, behavior, workload, size),
            (seed, rate, phys, latency, ports),
            (parallel, huge, record, trace, audit),
            (host_activity, max_ops, shards, selective),
        )| {
            let mut c = SystemConfig::table3_defaults();
            c.safety = SafetyModel::ALL[safety];
            c.gpu_class = [GpuClass::HighlyThreaded, GpuClass::ModeratelyThreaded][gpu];
            c.behavior = behavior;
            c.workload = WORKLOAD_NAMES[workload].to_string();
            c.size = [
                WorkloadSize::Tiny,
                WorkloadSize::Small,
                WorkloadSize::Reference,
            ][size];
            c.seed = seed;
            c.downgrades_per_second = rate;
            c.phys_bytes = phys;
            c.iommu_hop_latency = latency;
            c.l2_ports = ports as usize;
            c.parallel_read_check = parallel;
            c.use_huge_pages = huge;
            c.record_check_stream = record;
            c.trace = trace;
            c.audit = audit;
            c.host_activity = host_activity;
            c.max_ops_per_wavefront = (max_ops > 0).then_some(max_ops);
            c.shards = shards;
            c.flush_policy = if selective {
                FlushPolicy::Selective
            } else {
                FlushPolicy::FullFlush
            };
            c.violation_policy = [
                ViolationPolicy::KillProcess,
                ViolationPolicy::DisableAccelerator,
                ViolationPolicy::LogOnly,
            ][(seed % 3) as usize];
            c.dram.backend = if seed % 2 == 0 {
                MemBackend::LocalDram
            } else {
                MemBackend::CxlPool
            };
            c
        },
    )
}

/// Characters a report string must survive: JSON's escapes, control
/// characters without a short escape, and non-ASCII.
const TEXT_CHARS: [char; 10] = [
    'a', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', 'é',
];

fn text() -> impl Strategy<Value = String> {
    vec(0usize..TEXT_CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| TEXT_CHARS[i]).collect())
}

/// Counters, including both ends of the u64 range.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..1000, any::<u64>()]
}

fn maybe<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn pair() -> impl Strategy<Value = (u64, u64)> {
    (count(), count())
}

fn triple() -> impl Strategy<Value = (u64, u64, u64)> {
    (count(), count(), count())
}

fn audit_strategy() -> impl Strategy<Value = AuditReport> {
    let finding = (0usize..AuditKind::ALL.len(), count(), text()).prop_map(|(kind, at, detail)| {
        AuditFinding {
            kind: AuditKind::ALL[kind],
            at,
            detail,
        }
    });
    (count(), vec(finding, 0..4)).prop_map(|(assertions, findings)| AuditReport {
        findings,
        assertions,
    })
}

/// An arbitrary report: every `Option` both ways, every abort reason,
/// u64 extremes, awkward float ratios and hostile strings. `violations`
/// stays empty — the canonical form omits it.
fn report_strategy() -> impl Strategy<Value = RunReport> {
    let labels = (
        (text(), text(), text()),
        0usize..AbortReason::ALL.len() + 1,
        any::<bool>(),
        any::<bool>(),
        (0u64..1000, 1u64..1000),
    );
    let counts = (
        (count(), count(), count(), count()),
        (count(), count(), count(), count()),
    );
    let pairs = (
        maybe(pair()),
        (pair(), pair(), pair(), pair()),
        maybe(pair()),
        maybe(pair()),
        maybe(pair()),
    );
    let extras = (triple(), maybe(triple()), maybe(audit_strategy()));
    (labels, counts, pairs, extras).prop_map(
        |(
            ((safety, workload, gpu_class), abort, aborted, accel_disabled, (num, den)),
            (
                (cycles, ops, events, block_accesses),
                (violation_count, bc_checks, minor_faults, downgrades),
            ),
            (
                bcc_hits_misses,
                (pt_reads_writes, dram_reads_writes, iotlb, ats_translations_walks),
                l1,
                l2,
                l1_tlb,
            ),
            (probes, host, audit),
        )| RunReport {
            safety,
            workload,
            gpu_class,
            cycles,
            ops,
            block_accesses,
            events,
            aborted,
            abort_reason: abort.checked_sub(1).map(|i| AbortReason::ALL[i]),
            accel_disabled,
            violations: Vec::new(),
            violation_count,
            bc_checks,
            bcc_hits_misses,
            pt_reads_writes,
            dram_reads_writes,
            dram_utilization: num as f64 / den as f64,
            l1,
            l2,
            l1_tlb,
            iotlb,
            ats_translations_walks,
            minor_faults,
            downgrades,
            probes,
            host,
            audit,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The report codec's round trip: `encode(decode(encode(r)))` is
    /// `encode(r)` byte for byte, through the strict parser, for any
    /// report the simulator could produce and many it never would.
    #[test]
    fn report_encode_decode_encode_is_identity(report in report_strategy()) {
        let first = schema::encode_report(&report);
        let decoded = match schema::decode_report(&first) {
            Ok(decoded) => decoded,
            Err(e) => return Err(TestCaseError::fail(format!(
                "canonical report failed to decode: {e}\n{first}"
            ))),
        };
        prop_assert_eq!(&schema::encode_report(&decoded), &first);
        // And no field is lost on the way: the decoded report equals the
        // original in every field (`violations` is empty in both).
        prop_assert_eq!(format!("{decoded:?}"), format!("{report:?}"));
    }

    /// encode → decode → encode is the identity on canonical bytes, for
    /// any reachable coordinate. This is the exact property the cache
    /// key rests on.
    #[test]
    fn encode_decode_encode_is_identity(config in config_strategy()) {
        let first = schema::encode_config(&config);
        let decoded = match schema::decode_config(&first) {
            Ok(decoded) => decoded,
            Err(e) => return Err(TestCaseError::fail(format!(
                "canonical encoding failed to decode: {e}\n{first}"
            ))),
        };
        let second = schema::encode_config(&decoded);
        prop_assert_eq!(&first, &second, "round trip changed canonical bytes");
    }

    /// Key material is a pure function of the config modulo shards: the
    /// decoded twin keys identically, a shard change keys identically,
    /// and a seed flip never does.
    #[test]
    fn key_material_is_stable_and_shard_blind(
        config in config_strategy(),
        other_shards in 1usize..32,
        seed_flip in 1u64..u64::MAX,
    ) {
        let key = schema::config_key_material(&config, schema::CODE_REV);
        let decoded = schema::decode_config(&schema::encode_config(&config))
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
        prop_assert_eq!(
            &key,
            &schema::config_key_material(&decoded, schema::CODE_REV)
        );

        let mut sharded = config.clone();
        sharded.shards = other_shards;
        prop_assert_eq!(
            &key,
            &schema::config_key_material(&sharded, schema::CODE_REV)
        );

        let mut reseeded = config.clone();
        reseeded.seed ^= seed_flip;
        prop_assert_ne!(
            &key,
            &schema::config_key_material(&reseeded, schema::CODE_REV)
        );
        prop_assert_ne!(&key, &schema::config_key_material(&config, "other-rev"));
    }

    /// u64 seeds survive exactly — the decoder must never round them
    /// through f64 (2^53 would silently alias nearby seeds).
    #[test]
    fn seeds_survive_bit_exact(config in config_strategy()) {
        let decoded = schema::decode_config(&schema::encode_config(&config))
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
        prop_assert_eq!(decoded.seed, config.seed);
        prop_assert_eq!(decoded.phys_bytes, config.phys_bytes);
    }

    /// Any single unknown top-level field makes the document undecodable
    /// with a typed error — silently-ignored fields would alias distinct
    /// cache keys.
    #[test]
    fn unknown_fields_never_decode(config in config_strategy(), tag in 0u64..1000) {
        let text = schema::encode_config(&config);
        let with_extra = text.replacen(
            "\"safety\":",
            &format!("\"injected_{tag}\": 1,\n  \"safety\":"),
            1,
        );
        let err = match schema::decode_config(&with_extra) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail("unknown field decoded")),
        };
        prop_assert_eq!(
            err,
            SchemaError::UnknownField {
                field: format!("injected_{tag}"),
            }
        );
    }
}

/// The one coordinate proptest generation can't reach naturally: the
/// exact golden configs, whose keys are pinned across processes in
/// `crates/serve/tests/golden/keys.json`. Here we pin the *material*
/// prefix so a key-material format change is caught in this crate too.
#[test]
fn key_material_spells_code_rev_first() {
    let config = SystemConfig::table3_defaults();
    let material = schema::config_key_material(&config, schema::CODE_REV);
    assert!(
        material.starts_with(&format!("{{\"code_rev\": \"{}\"", schema::CODE_REV)),
        "{material:.80}"
    );
    assert!(material.contains("\"shards\": 1"));
}
