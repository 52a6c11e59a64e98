//! Golden-report snapshot tests.
//!
//! Each tiny-size run's `RunReport` is serialized with the canonical
//! [`encode_report`] and compared byte-for-byte against a committed
//! golden under `tests/goldens/`. Any change to simulated timing — a
//! scheduler swap, a port-model rewrite, an MSHR change — that alters even
//! one counter fails here, which is exactly the property the calendar-queue
//! migration is pinned by.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```text
//! BLESS=1 cargo test --test goldens
//! ```
//!
//! and review the golden diff like any other code change.

// Driver/harness code: failing fast on setup errors is the right behavior.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bc_experiments::schema::{decode_report, encode_report};
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

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Safety label -> filename fragment ("Border Control-BCC" -> "border-control-bcc").
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

fn check(name: &str, json: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with: BLESS=1 cargo test --test goldens",
            path.display()
        )
    });
    assert_eq!(
        want, json,
        "RunReport drifted from golden {name}; if the timing change is \
         intentional, regenerate with BLESS=1 cargo test --test goldens \
         and review the diff"
    );
}

/// Every golden configuration with its file name: every safety model on
/// two workloads with different access shapes (regular nn, irregular
/// bfs), plus Border Control-BCC under a downgrade storm, whose
/// full-flush downgrades zero the whole Protection Table.
fn cases() -> Vec<(String, SystemConfig)> {
    let mut cases = Vec::new();
    for safety in SafetyModel::ALL {
        for workload in ["nn", "bfs"] {
            let name = format!("tiny_{}_{}.json", slug(safety.label()), workload);
            cases.push((name, tiny(safety, workload)));
        }
    }
    let mut storm = tiny(SafetyModel::BorderControlBcc, "bfs");
    storm.downgrades_per_second = 200_000;
    cases.push(("tiny_border-control-bcc_bfs_storm.json".to_string(), storm));
    cases
}

/// Every case, pinned byte-for-byte.
#[test]
fn tiny_run_reports_match_goldens() {
    for (name, config) in cases() {
        let report = System::build(&config).expect("tiny config builds").run();
        if config.downgrades_per_second > 0 {
            assert!(report.downgrades > 0, "{name}: the storm never fired");
        }
        check(&name, &encode_report(&report));
    }
}

/// The same configurations, run through the snapshot/warm-start path
/// — simulate to a mid-run cut, serialize, restore from the bytes, finish
/// — must reproduce the committed goldens byte-for-byte. This pins the
/// warm-start acceptance criterion directly against the canonical
/// reports rather than against a second straight run.
#[test]
fn tiny_run_reports_match_goldens_through_warm_start() {
    if std::env::var_os("BLESS").is_some() {
        return; // goldens may be mid-rewrite under the straight-run test
    }
    const REV: &str = "goldens-warm-start";
    for (name, config) in cases() {
        let bytes = System::build(&config)
            .expect("tiny config builds")
            .snapshot_to(bc_sim::Cycle::new(2_500), REV);
        let report = System::restore(&config, &bytes, REV, &bc_workloads::LiveSynthesis)
            .expect("snapshot restores")
            .run();
        check(&name, &encode_report(&report));
    }
}

/// The goldens themselves stay canonical: each one decodes with the
/// schema's strict decoder and re-encodes to its own bytes — catches hand
/// edits that would break downstream tooling before a diff review does.
#[test]
fn goldens_are_well_formed() {
    if std::env::var_os("BLESS").is_some() {
        return; // files may be mid-rewrite under the other test
    }
    let dir = golden_path("");
    let mut seen = 0;
    for entry in
        std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("missing {}: {e}", dir.display()))
    {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let report = decode_report(&text)
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
        assert_eq!(
            encode_report(&report),
            text,
            "{} is not in canonical form",
            path.display()
        );
    }
    assert_eq!(
        seen, 11,
        "expected 5 safety models x 2 workloads, plus the storm"
    );
}
