//! Identity manifest for the 70 tiny Fig. 4 cells and the storm golden.
//!
//! Every cell of `matrices::fig4(Tiny, &FIG4_GPUS)` runs two ways:
//! straight through, and through three chained warm-start cuts
//! (`snapshot_to` at 1 000, 50 000 and 600 000 cycles, each restored
//! before the next, all under `CODE_REV`). The SHA-256 of each output —
//! the canonical report bytes and the three checkpoints — must equal its
//! line in `tests/goldens/identity_tiny.txt`, one line per output:
//!
//! ```text
//! <cell label> report|cut1000|cut50000|cut600000 <sha256>
//! ```
//!
//! and the chained run must finish with the straight run's report.
//!
//! One more cell follows the 70: the configuration of the storm golden
//! (`tests/goldens.rs`: Border Control-BCC, full flush, bfs, 200 000
//! downgrades per second). No Fig. 4 cell zeroes a Protection Table, so
//! this cell's checkpoints are the manifest's only cover for DRAM
//! calendars and queue-delay histograms booked by table-zeroing bursts.
//!
//! The goldens show *which* field of a few cells moved; the manifest
//! shows *that* some byte of any tiny Fig. 4 output moved, checkpoints
//! included. Regenerate after an intentional change (with a `CODE_REV`
//! bump, or a snapshot `FORMAT_VERSION` bump that moves only the `cut`
//! lines) with:
//!
//! ```text
//! BLESS=1 cargo test --release --test identity
//! ```
//!
//! and name the lines that moved in CHANGES.md.

// Driver/harness code: failing fast on setup errors is the right behavior.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bc_experiments::matrices::{fig4, FIG4_GPUS};
use bc_experiments::schema::{encode_report, CODE_REV};
use bc_experiments::sweep::SweepCell;
use bc_sim::sha256::hex_digest;
use bc_sim::Cycle;
use bc_system::{GpuClass, SafetyModel, System, SystemConfig};
use bc_workloads::{LiveSynthesis, WorkloadSize};

/// The chained warm-start cuts, in cycles.
const CUTS: [u64; 3] = [1_000, 50_000, 600_000];

/// The storm golden's cell: Border Control-BCC on the moderately
/// threaded GPU, tiny bfs capped at 1 500 ops per wavefront, under
/// 200 000 full-flush downgrades per second, each of which zeroes the
/// whole Protection Table.
fn storm_cell() -> SweepCell {
    let mut config = SystemConfig::table3_defaults();
    config.safety = SafetyModel::BorderControlBcc;
    config.gpu_class = GpuClass::ModeratelyThreaded;
    config.workload = "bfs".to_string();
    config.size = WorkloadSize::Tiny;
    config.max_ops_per_wavefront = Some(1_500);
    config.downgrades_per_second = 200_000;
    SweepCell {
        label: "Storm/Moderately threaded/Border Control-BCC/bfs".to_string(),
        coords: [0; 4],
        config,
    }
}

/// The manifest lines of one cell, in file order.
fn cell_lines(cell: &SweepCell) -> Vec<String> {
    let line =
        |output: &str, bytes: &[u8]| format!("{} {output} {}", cell.label, hex_digest(bytes));
    let report = encode_report(&System::build(&cell.config).unwrap().run());
    let mut lines = vec![line("report", report.as_bytes())];
    let mut system = System::build(&cell.config).unwrap();
    for cut in CUTS {
        let bytes = system.snapshot_to(Cycle::new(cut), CODE_REV);
        lines.push(line(&format!("cut{cut}"), &bytes));
        system = System::restore(&cell.config, &bytes, CODE_REV, &LiveSynthesis)
            .unwrap_or_else(|e| panic!("{}: restore at cut {cut}: {e}", cell.label));
    }
    assert_eq!(
        encode_report(&system.run()),
        report,
        "{}: the chained cuts changed the report",
        cell.label
    );
    lines
}

#[test]
fn tiny_fig4_outputs_match_the_identity_manifest() {
    let mut cells = fig4(WorkloadSize::Tiny, &FIG4_GPUS).cells();
    assert_eq!(cells.len(), 70);
    cells.push(storm_cell());
    // Two workers: the cells are independent, and the manifest is
    // assembled in cell order whatever finishes first.
    let mut per_cell: Vec<Vec<String>> = vec![Vec::new(); cells.len()];
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) = per_cell
            .iter_mut()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        for half in [even, odd] {
            let cells = &cells;
            s.spawn(move || {
                for (i, out) in half {
                    *out = cell_lines(&cells[i]);
                }
            });
        }
    });
    let got: Vec<String> = per_cell.concat();

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/identity_tiny.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing manifest {}: {e}\nregenerate with: BLESS=1 cargo test --release --test identity",
            path.display()
        )
    });
    let want: Vec<&str> = want.lines().collect();
    let moved: Vec<&String> = got.iter().filter(|l| !want.contains(&l.as_str())).collect();
    assert!(
        moved.is_empty() && want.len() == got.len(),
        "{} of {} outputs differ from the identity manifest ({} lines committed); first: {:?}",
        moved.len(),
        got.len(),
        want.len(),
        moved.first()
    );
}
