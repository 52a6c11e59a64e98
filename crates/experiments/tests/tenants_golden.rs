//! Golden of the tenants matrix at a small scale.
//!
//! The multi-tenant machine takes authority away from an accelerator by
//! zeroing its whole Protection Table: on every preempt, exit and kill
//! (the teardown), and on every downgrade storm (a full-flush commit).
//! The determinism suite only compares the production matrix with
//! itself across `--jobs`/`--shards`; this test pins the canonical
//! bytes of a 64-tenant × 2-accelerator grid on both memory backends,
//! so any change to what those zeroing writes book fails as a diff.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```text
//! BLESS=1 cargo test -p bc-experiments --test tenants_golden
//! ```

use std::path::PathBuf;

use bc_experiments::schema::encode_tenants_matrix;
use bc_experiments::tenants_grid::{run_tenants_cells, tenants_cells};
use bc_mem::dram::MemBackend;
use bc_system::TenantsConfig;

#[test]
fn small_tenants_matrix_matches_golden() {
    let base = TenantsConfig {
        tenants: 64,
        accels: 2,
        ..TenantsConfig::default()
    };
    let cells = tenants_cells(&base, &[MemBackend::LocalDram, MemBackend::CxlPool]);
    let results = run_tenants_cells(&cells, 1);
    for (label, report) in &results {
        assert!(report.storms > 0, "{label}: no downgrade storm ran");
        assert!(report.preempts > 0, "{label}: no tenant was preempted");
        assert!(report.killed > 0, "{label}: no tenant was killed");
    }
    let json = encode_tenants_matrix(&results);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/tenants_64x2.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with: \
             BLESS=1 cargo test -p bc-experiments --test tenants_golden",
            path.display()
        )
    });
    assert_eq!(
        want, json,
        "tenants matrix drifted from its golden; if the timing change is \
         intentional, regenerate with BLESS=1 and review the diff"
    );
}
