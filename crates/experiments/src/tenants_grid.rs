//! Shared matrix plumbing for the multi-tenant scheduler experiment.
//!
//! The `tenants` binary, the determinism suite and the `tenants` bench
//! all sweep the same grid — memory backends crossed with a base
//! [`TenantsConfig`] — through this module, and encode the results with
//! [`crate::schema::encode_tenants_matrix`], so "the binary's numbers",
//! "the bytes the determinism test compares" and "the bench's JSON" are
//! one code path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bc_mem::dram::MemBackend;
use bc_system::{MultiTenantSystem, TenantsConfig, TenantsReport};

/// One cell of the tenants grid: a label plus a full config.
#[derive(Debug, Clone)]
pub struct TenantsCell {
    /// Stable display/sort label (`local-dram`, `cxl-pool`, ...).
    pub label: String,
    /// The cell's complete configuration.
    pub config: TenantsConfig,
}

/// The standard grid: the base config run against every memory backend.
#[must_use]
pub fn tenants_cells(base: &TenantsConfig, backends: &[MemBackend]) -> Vec<TenantsCell> {
    backends
        .iter()
        .map(|&backend| {
            let mut config = base.clone();
            config.mem_backend = backend;
            TenantsCell {
                label: backend.to_string(),
                config,
            }
        })
        .collect()
}

/// Runs every cell on `jobs` worker threads pulling from a shared
/// queue. Results come back in cell order regardless of thread count —
/// each cell's report depends only on its own config.
#[must_use]
pub fn run_tenants_cells(cells: &[TenantsCell], jobs: usize) -> Vec<(String, TenantsReport)> {
    let jobs = jobs.max(1).min(cells.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TenantsReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let report = MultiTenantSystem::build(&cell.config)
                    .unwrap_or_else(|e| panic!("cell {}: {e}", cell.label))
                    .run();
                *slots[i].lock().expect("tenants slot mutex poisoned") = Some(report);
            });
        }
    });
    cells
        .iter()
        .zip(slots)
        .map(|(cell, slot)| {
            let report = slot
                .into_inner()
                .expect("tenants slot mutex poisoned")
                .expect("tenants cell never ran");
            (cell.label.clone(), report)
        })
        .collect()
}
