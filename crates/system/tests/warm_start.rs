//! Fork-identity suite for simulator warm-start snapshots.
//!
//! The contract under test: running a machine straight through and
//! running the same machine snapshot-then-restore at an arbitrary cut
//! produce byte-identical reports — across every safety model, composed
//! with sharding (snapshot under one shard count, restore under
//! another), with the host actor, the invariant auditor, malicious
//! hardware, downgrade storms, and huge pages in play. Reports are
//! compared through their full `Debug` rendering, which covers every
//! counter, violation record, and audit finding.

use bc_accel::Behavior;
use bc_core::ProtectionTable;
use bc_os::ViolationPolicy;
use bc_sim::snapshot::SnapError;
use bc_sim::Cycle;
use bc_system::{GpuClass, RestoreError, SafetyModel, System, SystemConfig};
use bc_trace::{TraceDir, SEEK_EVERY};
use bc_workloads::{LiveSynthesis, WorkloadSize};

const REV: &str = "warm-start-test-rev";

fn tiny(safety: SafetyModel) -> SystemConfig {
    let mut c = SystemConfig::table3_defaults();
    c.safety = safety;
    c.gpu_class = GpuClass::ModeratelyThreaded;
    c.workload = "nn".to_string();
    c.size = WorkloadSize::Tiny;
    c.max_ops_per_wavefront = Some(400);
    c
}

fn straight(c: &SystemConfig) -> String {
    format!("{:?}", System::build(c).expect("builds").run())
}

/// Run to `cut`, serialize, restore from the bytes, and finish the run.
fn forked(snap_config: &SystemConfig, restore_config: &SystemConfig, cut: u64) -> String {
    let mut s = System::build(snap_config).expect("builds");
    let bytes = s.snapshot_to(Cycle::new(cut), REV);
    let mut restored =
        System::restore(restore_config, &bytes, REV, &LiveSynthesis).expect("restores");
    format!("{:?}", restored.run())
}

#[test]
fn fork_identity_across_safety_models() {
    for safety in [
        SafetyModel::FullIommu,
        SafetyModel::CapiLike,
        SafetyModel::AtsOnlyIommu,
        SafetyModel::BorderControlNoBcc,
        SafetyModel::BorderControlBcc,
    ] {
        let c = tiny(safety);
        assert_eq!(
            straight(&c),
            forked(&c, &c, 3_000),
            "fork divergence under {safety:?}"
        );
    }
}

#[test]
fn fork_identity_at_varied_cuts() {
    let c = tiny(SafetyModel::BorderControlBcc);
    let want = straight(&c);
    // Cut at the very start (nothing simulated before the snapshot),
    // mid-run, and far past completion (pending calendar empty).
    for cut in [0, 1, 500, 7_777, u64::MAX / 2] {
        assert_eq!(want, forked(&c, &c, cut), "fork divergence at cut {cut}");
    }
}

/// Fork identity with every stream replayed from a compiled-trace
/// directory, at the warm-start benchmark's cut (600 k cycles), before it
/// and past completion, for wavefronts on the backend (full IOMMU) and on
/// peeled frontends (Border Control). Each restore puts every wavefront
/// back by seeking: its skips decode at most `SEEK_EVERY - 1` ops per
/// wavefront, whatever the cut.
#[test]
fn fork_identity_through_a_trace_dir_restores_by_seeking() {
    let dir = std::env::temp_dir().join(format!("bc-warm-start-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let traces = TraceDir::open(&dir).expect("trace dir opens");
    for safety in [SafetyModel::FullIommu, SafetyModel::BorderControlBcc] {
        let mut c = tiny(safety);
        c.workload = "backprop".to_string();
        c.max_ops_per_wavefront = Some(1_500);
        let gc = c.effective_gpu_config();
        let wfs = (gc.compute_units * gc.wavefronts_per_cu) as u64;
        let want = straight(&c);
        for cut in [1_000, 50_000, 600_000, u64::MAX / 2] {
            let bytes = System::build_with_source(&c, &traces)
                .expect("builds")
                .snapshot_to(Cycle::new(cut), REV);
            let before = traces.stats();
            let mut restored = System::restore(&c, &bytes, REV, &traces).expect("restores");
            let decoded = traces.stats().skip_decoded - before.skip_decoded;
            assert!(
                decoded > 0 && decoded <= (SEEK_EVERY - 1) * wfs,
                "{safety:?} cut {cut}: restore decoded {decoded} ops for {wfs} wavefronts"
            );
            // The restore opens each stream once, in the build it reads over.
            assert_eq!(
                traces.stats().hits - before.hits,
                wfs,
                "{safety:?} cut {cut}: streams opened by one restore"
            );
            assert_eq!(
                want,
                format!("{:?}", restored.run()),
                "fork divergence under {safety:?} at cut {cut}"
            );
        }
    }
    let stats = traces.stats();
    assert_eq!((stats.compiles, stats.fallbacks), (1, 0), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fork_identity_composes_with_shards() {
    let mut one = tiny(SafetyModel::BorderControlBcc);
    one.shards = 1;
    let mut four = one.clone();
    four.shards = 4;
    let want = straight(&one);
    assert_eq!(want, straight(&four), "sharding must not change reports");
    // Snapshot serially, restore sharded — and the reverse.
    assert_eq!(want, forked(&one, &four, 2_000));
    assert_eq!(want, forked(&four, &one, 2_000));
}

#[test]
fn fork_identity_with_host_audit_and_downgrades() {
    let mut c = tiny(SafetyModel::BorderControlBcc);
    c.host_activity = Some(bc_system::HostActivityConfig::default());
    c.audit = true;
    c.downgrades_per_second = 50_000;
    assert_eq!(straight(&c), forked(&c, &c, 4_000));
}

#[test]
fn fork_identity_with_malicious_hardware() {
    let malicious = |safety| {
        let mut c = tiny(safety);
        c.behavior = Behavior::Malicious {
            probe_period: 50,
            probe_writes: true,
        };
        c
    };
    for safety in [SafetyModel::AtsOnlyIommu, SafetyModel::BorderControlBcc] {
        let c = malicious(safety);
        assert_eq!(
            straight(&c),
            forked(&c, &c, 2_500),
            "fork divergence for malicious hardware under {safety:?}"
        );
    }
    // Disabling the accelerator fences it: the backend forces completion
    // at once, and each frontend halts a hop later with its ops dropped
    // and issue events still queued, which it then drops. The run's last
    // dispatch is a frontend halting, so cut around it and past it.
    let mut c = malicious(SafetyModel::BorderControlBcc);
    c.gpu_class = GpuClass::HighlyThreaded;
    c.violation_policy = ViolationPolicy::DisableAccelerator;
    let report = System::build(&c).expect("builds").run();
    assert!(report.accel_disabled, "a probe fences the device");
    let (end, hop) = (report.cycles, c.cluster_hop_latency);
    let want = format!("{report:?}");
    for cut in [end - hop, end, end + hop, end + 4 * hop, end + 1_000] {
        assert_eq!(
            want,
            forked(&c, &c, cut),
            "fork divergence at cut {cut}, the run ending at {end}"
        );
    }
}

#[test]
fn fork_identity_with_huge_pages() {
    let mut c = tiny(SafetyModel::BorderControlNoBcc);
    c.use_huge_pages = true;
    assert_eq!(straight(&c), forked(&c, &c, 2_000));
}

/// The warm key is a checkpoint's one config identity: a machine of
/// another workload, seed or geometry (BCC ways and latency, the L2 of
/// the other GPU class, the store and frame table of another memory
/// size) refuses the checkpoint before reading any component.
#[test]
fn restore_rejects_foreign_configs_but_accepts_shard_changes() {
    let c = tiny(SafetyModel::BorderControlBcc);
    let bytes = System::build(&c)
        .expect("builds")
        .snapshot_to(Cycle::new(1_000), REV);

    let other = |change: fn(&mut SystemConfig)| {
        let mut o = c.clone();
        change(&mut o);
        o
    };
    let foreign = [
        ("workload", other(|o| o.workload = "bfs".to_string())),
        ("seed", other(|o| o.seed ^= 1)),
        ("BCC ways", other(|o| o.bcc.ways *= 2)),
        ("BCC latency", other(|o| o.bcc.latency += 5)),
        (
            "GPU class",
            other(|o| o.gpu_class = GpuClass::HighlyThreaded),
        ),
        ("physical memory", other(|o| o.phys_bytes /= 2)),
    ];
    for (what, config) in &foreign {
        assert!(
            matches!(
                System::restore(config, &bytes, REV, &LiveSynthesis),
                Err(RestoreError::ConfigMismatch)
            ),
            "restored under another {what}"
        );
    }

    // Shard count is normalized out of the identity key.
    let mut sharded = c.clone();
    sharded.shards = 3;
    assert!(System::restore(&sharded, &bytes, REV, &LiveSynthesis).is_ok());
}

#[test]
fn restore_rejects_stale_code_revisions() {
    let c = tiny(SafetyModel::AtsOnlyIommu);
    let bytes = System::build(&c)
        .expect("builds")
        .snapshot_to(Cycle::new(1_000), REV);
    assert!(matches!(
        System::restore(&c, &bytes, "some-other-rev", &LiveSynthesis),
        Err(RestoreError::Snapshot(SnapError::CodeRevMismatch { .. }))
    ));
}

#[test]
fn restore_rejects_truncated_bytes() {
    let c = tiny(SafetyModel::AtsOnlyIommu);
    let bytes = System::build(&c)
        .expect("builds")
        .snapshot_to(Cycle::new(1_000), REV);
    let cut = &bytes[..bytes.len() - 3];
    assert!(matches!(
        System::restore(&c, cut, REV, &LiveSynthesis),
        Err(RestoreError::Snapshot(_))
    ));
}

/// The snapshot codec's integer encoding (LEB128 varint).
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// The tiny, highly threaded Border Control-BCC bfs cell of the Fig. 4
/// sweep (op cap 1 500; 38 128 cycles straight through).
fn bfs_bcc() -> SystemConfig {
    let mut c = tiny(SafetyModel::BorderControlBcc);
    c.gpu_class = GpuClass::HighlyThreaded;
    c.workload = "bfs".to_string();
    c.max_ops_per_wavefront = Some(1_500);
    c
}

/// Where the last `n` varints of `bytes` start (a varint ends at the
/// first byte with the high bit clear, so they parse backwards too).
fn last_varints(bytes: &[u8], n: usize) -> usize {
    let mut at = bytes.len();
    for _ in 0..n {
        at -= 1;
        while bytes[at - 1] & 0x80 != 0 {
            at -= 1;
        }
    }
    at
}

/// A pending event must name a slot the built machine has — a frontend,
/// a wavefront of the CU that runs it, a block of an op — and leave each
/// wavefront one thread of control, or the restore is refused instead of
/// panicking the run.
#[test]
fn restore_rejects_pending_events_for_slots_the_machine_lacks() {
    let c = bfs_bcc();
    let components = c.effective_gpu_config().compute_units + 1;
    let bytes = System::build(&c)
        .expect("builds")
        .snapshot_to(Cycle::new(u64::MAX / 2), REV);
    // Past completion the calendar is empty: its count (0) sits right
    // before the per-component sequence counters that end the bytes.
    let calendar = last_varints(&bytes, components + 1) - 1;
    assert_eq!(bytes[calendar], 0, "empty calendar");
    let stage = |events: &[(usize, &[&[u8]])]| {
        // Each pending entry: component, cycle, source, sequence, then
        // the event's tag and fields.
        let entries = events.iter().enumerate().map(|(seq, (comp, ev))| {
            [
                &varint(*comp as u64)[..],
                &varint(50_000),
                &[0],
                &varint(seq as u64),
                &ev.concat(),
            ]
            .concat()
        });
        [
            &bytes[..calendar],
            &varint(events.len() as u64),
            &entries.collect::<Vec<_>>().concat(),
            &bytes[calendar + 1..],
        ]
        .concat()
    };
    let back = components - 1;
    let wf999 = varint(999);
    let done = varint(50_000);
    let ready: &[&[u8]] = &[&[0, 0, 0]];
    // WavefrontReady { cu: 0, wf: 0 } fits: a drained wavefront ignores it.
    let fits = stage(&[(0, ready)]);
    assert!(System::restore(&c, &fits, REV, &LiveSynthesis).is_ok());
    let lacking = [
        (
            "WavefrontReady { cu: 0, wf: 999 }",
            stage(&[(0, &[&[0, 0], &wf999])]),
        ),
        (
            "BlockDone { wf: 999, .. }",
            stage(&[(0, &[&[10], &wf999, &[0], &done])]),
        ),
        (
            "L2Req { cu: 999, .. }",
            stage(&[(back, &[&[6], &wf999, &[0, 0, 0, 1]])]),
        ),
        (
            "BlockDone { block: 200, .. }",
            stage(&[(0, &[&[10, 0, 200], &done])]),
        ),
        // An issue with no op in flight, and a second thread of control.
        ("IssueOp { cu: 0, wf: 0 }", stage(&[(0, &[&[1, 0, 0]])])),
        (
            "two WavefrontReady { cu: 0, wf: 0 }",
            stage(&[(0, ready), (0, ready)]),
        ),
    ];
    for (what, bad) in &lacking {
        assert!(
            matches!(
                System::restore(&c, bad, REV, &LiveSynthesis),
                Err(RestoreError::Snapshot(SnapError::BadValue(_)))
            ),
            "{what} restored"
        );
    }
}

/// Zeroed memory holds no storage, on every tiny Fig. 4 configuration
/// (both GPU classes, the five safety models, the seven workloads, the
/// sweep's op cap): a built machine stores no page, a run stores at
/// most the Protection-Table pages Border Control writes, and a
/// checkpoint carries no zero pages.
#[test]
fn zeroed_memory_stores_nothing_on_every_tiny_fig4_cell() {
    for gpu_class in [GpuClass::HighlyThreaded, GpuClass::ModeratelyThreaded] {
        for safety in [
            SafetyModel::AtsOnlyIommu,
            SafetyModel::FullIommu,
            SafetyModel::CapiLike,
            SafetyModel::BorderControlNoBcc,
            SafetyModel::BorderControlBcc,
        ] {
            for workload in [
                "backprop",
                "bfs",
                "hotspot",
                "lud",
                "nn",
                "nw",
                "pathfinder",
            ] {
                let mut c = SystemConfig::table3_defaults();
                c.gpu_class = gpu_class;
                c.safety = safety;
                c.workload = workload.to_string();
                c.size = WorkloadSize::Tiny;
                c.max_ops_per_wavefront = Some(1_500);
                let cell = format!("{gpu_class:?}/{safety:?}/{workload}");

                let mut s = System::build(&c).expect("builds");
                assert_eq!(s.kernel().store().resident_pages(), 0, "{cell} built");
                s.run();
                let table_pages = s
                    .border_control()
                    .and_then(|bc| bc.table())
                    .map_or(0, |t| ProtectionTable::storage_pages(t.bounds_pages()));
                let stored = s.kernel().store().resident_pages() as u64;
                assert!(
                    stored <= table_pages,
                    "{cell}: {stored} pages stored after the run"
                );

                let bytes = System::build(&c)
                    .expect("builds")
                    .snapshot_to(Cycle::new(600_000), REV);
                assert!(
                    bytes.len() <= 256 << 10,
                    "{cell}: {} byte checkpoint",
                    bytes.len()
                );
            }
        }
    }
}
