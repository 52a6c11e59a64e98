//! Shard-count identity against the committed goldens.
//!
//! The sharded event engine's whole contract is that shards pick *which
//! thread* dispatches an event, never *when* or *in what order*: the
//! `(cycle, source component, per-source sequence)` total order over
//! cross-shard mailboxes fixes every tie. This test drives all ten golden
//! configurations — every safety model × two workloads — at `--shards`
//! 1, 2 and 4 and demands the exact bytes committed under
//! `tests/goldens/`, so a scheduling leak anywhere (a rounds-barrier bug,
//! a lookahead-boundary miss, a mailbox reorder) fails against the same
//! snapshots the serial engine is pinned by.
//!
//! The audited variant reruns the decomposed models with the runtime
//! invariant auditor threaded through every shard: audited runs must stay
//! cycle-identical (the auditor observes, never perturbs) and clean.

// Driver/harness code: failing fast on setup errors is the right behavior.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bc_experiments::schema::encode_report;
use bc_system::{GpuClass, SafetyModel, System, SystemConfig};
use bc_workloads::WorkloadSize;

fn tiny(safety: SafetyModel, workload: &str) -> SystemConfig {
    let mut c = SystemConfig::table3_defaults();
    c.safety = safety;
    c.gpu_class = GpuClass::ModeratelyThreaded;
    c.workload = workload.to_string();
    c.size = WorkloadSize::Tiny;
    c.max_ops_per_wavefront = Some(1_500);
    c
}

/// Safety label -> filename fragment (mirrors `goldens.rs`).
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

fn golden(safety: SafetyModel, workload: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("tiny_{}_{}.json", slug(safety.label()), workload));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with: BLESS=1 cargo test --test goldens",
            path.display()
        )
    })
}

/// All ten goldens, at one, two and four shards: byte-identical reports.
#[test]
fn sharded_runs_match_the_serial_goldens_byte_for_byte() {
    for safety in SafetyModel::ALL {
        for workload in ["nn", "bfs"] {
            let want = golden(safety, workload);
            for shards in [1, 2, 4] {
                let mut c = tiny(safety, workload);
                c.shards = shards;
                let report = System::build(&c).expect("tiny config builds").run();
                assert_eq!(
                    want,
                    encode_report(&report),
                    "{}/{workload} diverged from its golden at --shards {shards}",
                    safety.label(),
                );
            }
        }
    }
}

/// The decomposed models again, audited, at every shard count: the
/// auditor must observe a clean run without moving a single cycle, and
/// shard-order findings (if the engine ever mis-clamped a cross-shard
/// send) would surface here as a non-clean audit.
#[test]
fn audited_sharded_runs_are_clean_and_cycle_identical() {
    for safety in [
        SafetyModel::AtsOnlyIommu,
        SafetyModel::BorderControlNoBcc,
        SafetyModel::BorderControlBcc,
    ] {
        let want = golden(safety, "nn");
        for shards in [1, 2, 4] {
            let mut c = tiny(safety, "nn");
            c.shards = shards;
            c.audit = true;
            let mut report = System::build(&c).expect("tiny config builds").run();
            let audit = report.audit.take().expect("audited run attaches audit");
            assert!(
                audit.is_clean(),
                "{} --shards {shards}: audit findings {:?}",
                safety.label(),
                audit.findings
            );
            assert!(audit.assertions > 0, "auditor must actually have run");
            // With the audit block detached, what remains must be the
            // golden bytes: auditing observes, it never moves a cycle.
            assert_eq!(
                want,
                encode_report(&report),
                "{} --shards {shards}: auditing moved simulated time",
                safety.label(),
            );
        }
    }
}
