//! Determinism guarantees of the simulator and the sweep engine.
//!
//! Two properties, both asserted on each `RunReport`'s canonical bytes
//! (`schema::encode_report`) plus its violation list — the one field the
//! canonical form omits — so a regression anywhere in the report
//! surfaces as a byte-level diff:
//!
//! 1. Running the *same* `SystemConfig` twice yields byte-identical
//!    reports — the simulator derives everything from the config seed.
//! 2. Running the *same* sweep matrix with `--jobs 1` and `--jobs 8`
//!    yields byte-identical reports for every cell — results depend on
//!    cell coordinates, never on thread scheduling.

use bc_experiments::schema::{encode_report, encode_tenants_matrix};
use bc_experiments::tenants_grid::{run_tenants_cells, tenants_cells};
use bc_experiments::{
    base_config, matrices, run_cells_with, SweepCell, SweepMatrix, SweepOptions, WORKLOADS,
};
use bc_mem::dram::MemBackend;
use bc_os::Violation;
use bc_system::{GpuClass, RunReport, SafetyModel, System, TenantsConfig};
use bc_workloads::WorkloadSize;

/// Everything a report holds: its canonical bytes plus the violation
/// list those bytes summarize as `violation_count`.
fn fingerprint(r: &RunReport) -> (String, Vec<Violation>) {
    (encode_report(r), r.violations.clone())
}

#[test]
fn same_config_runs_byte_identical() {
    let mut config = base_config("nn", GpuClass::HighlyThreaded, WorkloadSize::Tiny);
    config.safety = SafetyModel::BorderControlBcc;

    let first = System::build(&config).expect("build").run();
    let second = System::build(&config).expect("build").run();

    assert_eq!(
        fingerprint(&first),
        fingerprint(&second),
        "two runs of the same config diverged"
    );
}

#[test]
fn sweep_reports_are_independent_of_thread_count() {
    let matrix = || {
        SweepMatrix::new(WorkloadSize::Tiny)
            .gpus(&[GpuClass::HighlyThreaded, GpuClass::ModeratelyThreaded])
            .safeties(&[SafetyModel::AtsOnlyIommu, SafetyModel::BorderControlBcc])
            .workloads(&WORKLOADS[..3])
    };

    let serial = matrix().run(&SweepOptions::with_jobs(1));
    let parallel = matrix().run(&SweepOptions::with_jobs(8));

    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 8);

    let serial: Vec<_> = serial.iter().collect();
    let parallel: Vec<_> = parallel.iter().collect();
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), 2 * 2 * 3);

    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.label, p.label, "cell order depends on thread count");
        assert_eq!(s.coords, p.coords);
        let s_report = s.result.as_ref().expect("serial cell failed");
        let p_report = p.result.as_ref().expect("parallel cell failed");
        assert_eq!(
            fingerprint(s_report),
            fingerprint(p_report),
            "cell {} diverged between --jobs 1 and --jobs 8",
            s.label
        );
    }
}

/// Runs a matrix's cells at a reduced per-wavefront op cap (the full tiny
/// cap across all ~300 production cells would dominate the suite's wall
/// time) and returns each cell's report fingerprint, in matrix order.
fn run_capped(
    cells: &[SweepCell],
    jobs: usize,
    shards: usize,
) -> Vec<(String, (String, Vec<Violation>))> {
    let capped: Vec<SweepCell> = cells
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.config.max_ops_per_wavefront = Some(200);
            c.config.shards = shards;
            c
        })
        .collect();
    let opts = SweepOptions::with_jobs(jobs);
    run_cells_with(&capped, &opts, |cell| {
        let report = System::build(&cell.config)
            .map_err(|e| format!("build failed: {e}"))?
            .run();
        Ok(fingerprint(&report))
    })
    .into_iter()
    .map(|o| (o.label.clone(), o.result.expect("cell failed")))
    .collect()
}

/// Every sweeping binary's production matrix (fig4–fig7, attacks,
/// cpu_coherence), at tiny size: identical reports for every cell across
/// the `--jobs × --shards` cross product — cells fanned out over sweep
/// workers, each simulation fanned out over engine shards, and both at
/// once. The matrices come from [`bc_experiments::matrices`] — the same
/// constructors `main` uses — so an axis reorder, seed-derivation change
/// or shard-scheduling leak fails here, not in a figure.
///
/// Every matrix runs the `--jobs` variant; the shard-bearing variants
/// run on fig4 (the full decomposed-frontend matrix) and cpu_coherence
/// (host-activity events seeded into the backend component) — per-model
/// shard identity across all ten golden configs is already pinned by
/// `tests/shard_identity.rs`, and multi-shard cells on a starved host
/// pay barrier quanta per cell, so repeating them for every matrix buys
/// wall-time, not coverage.
#[test]
fn all_binary_matrices_are_jobs_and_shards_independent() {
    let tiny = WorkloadSize::Tiny;
    let all: [(&str, SweepMatrix); 6] = [
        ("fig4", matrices::fig4(tiny, &matrices::FIG4_GPUS)),
        ("fig5", matrices::fig5(tiny)),
        ("fig6", matrices::fig6_capture(tiny)),
        ("fig7", matrices::fig7(tiny)),
        ("attacks", matrices::attacks(tiny)),
        ("cpu_coherence", matrices::cpu_coherence(tiny)),
    ];
    for (name, matrix) in all {
        let cells = matrix.cells();
        assert!(!cells.is_empty(), "{name} produced no cells");
        let baseline = run_capped(&cells, 1, 1);
        let variants: &[(usize, usize)] = if matches!(name, "fig4" | "cpu_coherence") {
            &[(1, 4), (4, 1), (2, 2)]
        } else {
            &[(4, 1)]
        };
        for &(jobs, shards) in variants {
            let variant = run_capped(&cells, jobs, shards);
            assert_eq!(
                baseline.len(),
                variant.len(),
                "{name} cell count diverged at --jobs {jobs} --shards {shards}"
            );
            for ((bl, br), (vl, vr)) in baseline.iter().zip(variant.iter()) {
                assert_eq!(bl, vl, "{name}: cell order depends on scheduling");
                assert_eq!(
                    br, vr,
                    "{name}/{bl} diverged at --jobs {jobs} --shards {shards}"
                );
            }
        }
    }
}

/// The `tenants` binary's production matrix at its production scale —
/// 1000 tenants over 4 accelerators, both memory backends — emits a
/// byte-identical JSON document across the full `--jobs × --shards`
/// cross product: cells fanned over sweep workers, each multi-tenant
/// simulation fanned over engine shards, and both at once. This is the
/// document the bench artifact records, so a scheduling leak anywhere
/// in the scheduler/teardown/storm machinery fails here as a byte diff
/// with the cell label in the panic message.
#[test]
fn tenants_matrix_is_jobs_and_shards_independent() {
    let matrix_json = |jobs: usize, shards: usize| {
        let base = TenantsConfig {
            tenants: 1000,
            accels: 4,
            shards,
            ..TenantsConfig::default()
        };
        let cells = tenants_cells(&base, &[MemBackend::LocalDram, MemBackend::CxlPool]);
        encode_tenants_matrix(&run_tenants_cells(&cells, jobs))
    };

    let baseline = matrix_json(1, 1);
    assert!(baseline.contains("\"local-dram\""));
    assert!(baseline.contains("\"cxl-pool\""));
    for (jobs, shards) in [(1, 4), (4, 1), (4, 4)] {
        assert_eq!(
            baseline,
            matrix_json(jobs, shards),
            "tenants matrix diverged at --jobs {jobs} --shards {shards}"
        );
    }
}

/// The four non-sweeping binaries (tables 1–3 and the storage-overhead
/// calculator) print from static data and closed-form math: two
/// invocations must emit byte-identical stdout.
#[test]
fn table_and_storage_binaries_print_identically() {
    let bins = [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("table3", env!("CARGO_BIN_EXE_table3")),
        ("storage", env!("CARGO_BIN_EXE_storage")),
    ];
    for (name, path) in bins {
        let run = || {
            let out = std::process::Command::new(path)
                .args(["--size", "tiny"])
                .output()
                .unwrap_or_else(|e| panic!("spawning {name}: {e}"));
            assert!(out.status.success(), "{name} exited with {}", out.status);
            out.stdout
        };
        let first = run();
        assert!(!first.is_empty(), "{name} printed nothing");
        assert_eq!(first, run(), "{name} stdout varies between runs");
    }
}
