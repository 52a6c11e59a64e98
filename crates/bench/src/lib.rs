//! Criterion benchmark harness for the Border Control reproduction.
//!
//! The benches under `benches/` measure host cost, never simulated
//! results (the `bc-experiments` binaries print those):
//!
//! * `engine` — microbenchmarks of the hardware structures themselves
//!   (Protection Table, BCC, caches, TLBs, page-table walks, the event
//!   queue), establishing the simulator's own performance envelope.
//! * `sweep`, `flush`, `shard`, `tenants`, `serve` and `trace` — each
//!   writes one `BENCH_*.json` trajectory.
//!
//! Shared helpers for those benches are exported here, and [`validate`]
//! holds the numeric rules every emitted `BENCH_*.json` must satisfy
//! (run by `tests/bench_json.rs` locally and in CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod validate;

use std::path::{Path, PathBuf};

/// Whether this invocation is a quick smoke pass: `BENCH_QUICK=1` in the
/// environment, or the `--test` flag `cargo test` passes to harnessless
/// benches. Quick passes exercise the full emit pipeline but their
/// numbers are not comparable to full-mode trajectories.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var_os("BENCH_QUICK").is_some() || std::env::args().any(|a| a == "--test")
}

/// Where one emitted `BENCH_*.json` trajectory goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitSink {
    /// `$BENCH_OUT` was set: write there, in either mode (CI smoke sets
    /// it to a scratch path and validates the result).
    Explicit(PathBuf),
    /// Quick mode without `$BENCH_OUT`: print only. Quick numbers must
    /// never overwrite a committed full-mode trajectory by accident.
    StdoutOnly,
    /// Full mode without `$BENCH_OUT`: the committed repo-root file.
    Committed(PathBuf),
}

/// The clobber-guard routing rule every bench shares, pure in its inputs
/// so the guard itself is unit-tested (`BENCH_OUT` always wins; quick
/// mode without it prints instead of writing; full mode without it
/// updates the committed trajectory).
#[must_use]
pub fn emit_sink(file_name: &str, quick: bool, bench_out: Option<PathBuf>) -> EmitSink {
    match bench_out {
        Some(path) => EmitSink::Explicit(path),
        None if quick => EmitSink::StdoutOnly,
        None => EmitSink::Committed(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file_name),
        ),
    }
}

/// Emits one bench trajectory through the clobber guard: `file_name` is
/// the committed name (`"BENCH_sweep.json"`), `quick` comes from
/// [`quick_mode`], `json` is the rendered document.
pub fn emit_trajectory(file_name: &str, quick: bool, json: &str) {
    match emit_sink(
        file_name,
        quick,
        std::env::var_os("BENCH_OUT").map(PathBuf::from),
    ) {
        EmitSink::Explicit(path) => {
            std::fs::write(&path, json).expect("writing BENCH_OUT");
            println!("\nwrote {}", path.display());
        }
        EmitSink::StdoutOnly => {
            println!("\nquick mode, no BENCH_OUT set; {file_name} not written:");
            print!("{json}");
        }
        EmitSink::Committed(path) => {
            std::fs::write(&path, json).expect("writing committed trajectory");
            println!("\nwrote {}", path.display());
        }
    }
}

/// The `q`-quantile of an ascending-sorted sample set, by nearest-rank on
/// `(n - 1) * q` (the convention `BENCH_sweep.json` records cell latency
/// percentiles with). Returns 0 for an empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clobber guard: a quick pass without `$BENCH_OUT` must never
    /// route to a committed trajectory file, in any combination.
    #[test]
    fn quick_mode_never_routes_to_the_committed_trajectory() {
        assert_eq!(emit_sink("BENCH_x.json", true, None), EmitSink::StdoutOnly);
        for quick in [true, false] {
            assert_eq!(
                emit_sink("BENCH_x.json", quick, Some(PathBuf::from("/tmp/out.json"))),
                EmitSink::Explicit(PathBuf::from("/tmp/out.json")),
                "BENCH_OUT must win in quick={quick}"
            );
        }
        match emit_sink("BENCH_x.json", false, None) {
            EmitSink::Committed(path) => {
                assert!(path.ends_with("BENCH_x.json"), "{}", path.display());
            }
            other => panic!("full mode without BENCH_OUT must commit, got {other:?}"),
        }
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 6.0); // round(9 * 0.5) = 5 -> s[5]
        assert_eq!(quantile_sorted(&s, 0.99), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.5], 0.99), 7.5);
    }
}
