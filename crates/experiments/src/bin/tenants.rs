//! Multi-tenant scale: the OS scheduler multiplexing N sandboxed
//! processes over M accelerators, reported as per-tenant tail latencies.
//!
//! ```text
//! tenants [--tenants N] [--accels M] [--seed S] [--mem local|cxl|both]
//!         [--quantum C] [--storm C] [--malicious PERMILLE]
//!         [--jobs N] [--shards N] [--audit] [--json]
//! ```
//!
//! Defaults sweep N=1000 tenants over M=4 accelerators with 12.5% of
//! tenants malicious, on both memory backends. `--jobs` parallelizes
//! cells, `--shards` parallelizes inside each run; neither changes a
//! report byte (the determinism suite proves the cross product).
//! `--json` appends the machine-readable matrix document.

use bc_experiments::schema::{encode_tenants_matrix, encode_tenants_report};
use bc_experiments::tenants_grid::{run_tenants_cells, tenants_cells};
use bc_experiments::{audit_from_args, jobs_from_args, print_matrix, shards_from_args};
use bc_mem::dram::MemBackend;
use bc_system::TenantsConfig;

fn flag_u64(args: &[String], name: &str, default: u64) -> u64 {
    args.windows(2)
        .find(|w| w[0] == name)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut base = TenantsConfig {
        tenants: flag_u64(&args, "--tenants", 1000) as usize,
        accels: flag_u64(&args, "--accels", 4) as usize,
        audit: audit_from_args(),
        shards: shards_from_args(),
        ..TenantsConfig::default()
    };
    base.seed = flag_u64(&args, "--seed", base.seed);
    base.quantum = flag_u64(&args, "--quantum", base.quantum);
    base.storm_period = flag_u64(&args, "--storm", base.storm_period);
    base.malicious_permille = flag_u64(&args, "--malicious", base.malicious_permille);

    let backends: Vec<MemBackend> = match args
        .windows(2)
        .find(|w| w[0] == "--mem")
        .map(|w| w[1].as_str())
    {
        Some("local") | Some("dram") => vec![MemBackend::LocalDram],
        Some("cxl") | Some("pool") => vec![MemBackend::CxlPool],
        _ => vec![MemBackend::LocalDram, MemBackend::CxlPool],
    };

    let cells = tenants_cells(&base, &backends);
    let results = run_tenants_cells(&cells, jobs_from_args());

    let heads: Vec<String> = [
        "done",
        "killed",
        "p50",
        "p95",
        "p99",
        "kill p50",
        "kill p99",
        "preempts",
        "pt blocks",
        "storms",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let rows: Vec<(String, Vec<String>)> = results
        .iter()
        .map(|(label, r)| {
            (
                label.clone(),
                vec![
                    r.completed.to_string(),
                    r.killed.to_string(),
                    r.completion_p50.to_string(),
                    r.completion_p95.to_string(),
                    r.completion_p99.to_string(),
                    r.kill_p50.to_string(),
                    r.kill_p99.to_string(),
                    r.preempts.to_string(),
                    r.pt_zero_blocks.to_string(),
                    r.storms.to_string(),
                ],
            )
        })
        .collect();
    print_matrix(
        &format!(
            "{} tenants x {} accelerators, quantum {} (cycles; tails, not means)",
            base.tenants, base.accels, base.quantum
        ),
        &heads,
        &rows,
    );
    println!();
    for (label, r) in &results {
        println!(
            "{label}: {} probes blocked of {} attempted, {} violations, audit {}",
            r.probes.1,
            r.probes.0,
            r.violations,
            match &r.audit {
                None => "off".to_string(),
                Some(a) if a.is_clean() => format!("clean ({} assertions)", a.assertions),
                Some(a) => format!("{} FINDINGS", a.findings.len()),
            }
        );
        assert!(
            r.audit_clean(),
            "audit findings in cell {label}:\n{}",
            encode_tenants_report(r)
        );
    }
    if args.iter().any(|a| a == "--json") {
        println!();
        print!("{}", encode_tenants_matrix(&results));
    }
}
