//! Kill-on-violation under load, cross-checked by the audit oracle.
//!
//! The paper's completion contract (§3.2, Fig 3e) says a dying process's
//! Protection Table entries are zeroed and its BCC/IOTLB residue flushed
//! before its frames are reused. These tests drive the kill path at its
//! worst — mid-downgrade-storm, with in-flight ops and (in the
//! multi-tenant machine) sibling tenants still issuing — and require the
//! oracle to find *nothing*: every border decision matches the shadow
//! permission state, and no post-kill access ever hits a stale
//! translation or a quarantined frame.

use bc_system::{
    AbortReason, GpuClass, MultiTenantSystem, SafetyModel, System, SystemConfig, TenantsConfig,
};
use bc_workloads::WorkloadSize;

fn storm_config() -> SystemConfig {
    let mut c = SystemConfig::table3_defaults();
    c.safety = SafetyModel::BorderControlBcc;
    c.gpu_class = GpuClass::ModeratelyThreaded;
    c.workload = "nn".to_string();
    c.size = WorkloadSize::Tiny;
    c.max_ops_per_wavefront = Some(400);
    c.audit = true;
    // A dense downgrade storm — more than 3x Figure 7's densest rate.
    // At 700 MHz this is one downgrade every 1400 cycles against a
    // 600-cycle drain, so the quiesce/deferred-commit protocol is
    // mid-flight about half of all cycles. (Denser than the drain
    // period would be a permanent stall: the machine, correctly, never
    // issues again and no kill can happen.)
    c.downgrades_per_second = 500_000;
    c
}

#[test]
fn kill_mid_downgrade_storm_pins_abort_reason_and_stays_clean() {
    let mut c = storm_config();
    c.behavior = bc_accel::Behavior::Malicious {
        probe_period: 25,
        probe_writes: true,
    };
    let r = System::build(&c).expect("build").run();
    assert!(r.aborted, "the malicious process must die");
    assert_eq!(
        r.abort_reason,
        Some(AbortReason::ViolationKill),
        "kill under storm must be attributed to the violation, not the valve"
    );
    assert!(!r.violations.is_empty());
    let audit = r.audit.as_ref().expect("audited run");
    assert!(audit.assertions > 0, "the oracle must have been exercised");
    assert!(
        audit.is_clean(),
        "kill-under-storm left stale authority: {:?}",
        audit.findings
    );
}

#[test]
fn kill_mid_downgrade_storm_is_clean_when_sharded() {
    let mut c = storm_config();
    c.behavior = bc_accel::Behavior::Malicious {
        probe_period: 25,
        probe_writes: true,
    };
    let serial = System::build(&c).expect("build").run();
    c.shards = 3;
    let sharded = System::build(&c).expect("build").run();
    assert_eq!(serial.abort_reason, sharded.abort_reason);
    assert_eq!(
        serial.cycles, sharded.cycles,
        "kill cycle drifted across shards"
    );
    assert!(sharded.audit.as_ref().expect("audited").is_clean());
}

#[test]
fn multi_tenant_kill_under_load_reports_zero_findings() {
    // One (or more) malicious tenants get killed while sibling tenants
    // keep issuing through the same host and downgrade storms keep
    // landing on running tenants. The oracle must stay silent: no
    // decision mismatch, no access past a completed teardown, no allowed
    // access to a quarantined frame.
    let cfg = TenantsConfig {
        tenants: 24,
        accels: 3,
        ops_per_tenant: 32,
        quantum: 1_200,
        storm_period: 400,
        malicious_permille: 200,
        probe_permille: 350,
        audit: true,
        ..TenantsConfig::default()
    };
    let r = MultiTenantSystem::build(&cfg).expect("build").run();
    assert!(!r.aborted, "valve tripped: {r:?}");
    assert!(r.killed > 0, "no tenant was killed: {r:?}");
    assert!(r.completed > 0, "siblings must survive the kill");
    assert_eq!(
        r.completed + r.killed,
        24,
        "every tenant ends Done or Killed: {r:?}"
    );
    assert!(r.storms > 0, "the storm must actually have run");
    assert_eq!(
        r.probes.1, r.violations,
        "every violation is a blocked probe"
    );
    assert!(r.kill_p99 >= r.kill_p50);
    assert!(r.kill_p50 > 0, "kill latency must be measurable");
    let audit = r.audit.as_ref().expect("audited run");
    assert!(audit.assertions > 0);
    assert!(
        audit.is_clean(),
        "kill-under-load left stale authority: {:?}",
        audit.findings
    );
}
