//! Host facts recorded with every result, peak resident memory and
//! scratch-store sizes.

use std::path::Path;
use std::process::Command;

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next [`peak_rss_mib`] covers only what ran since. Returns false when
/// the kernel refuses; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the allocator's free memory to the kernel (glibc's
/// `malloc_trim`), so the next pass's peak RSS starts from the live heap
/// rather than from whatever free memory earlier passes left resident.
/// Without it, fig4-warm's median per-pass peak moved between 71 and
/// 107 MiB from run to run for the same work.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only hands unused
        // heap pages back to the kernel; any thread may call it any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size (VmHWM) in MiB, or 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files directly in `dir` (0 if unreadable):
/// the scratch stores are flat directories.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The machine and toolchain a result was measured on.
pub struct HostFacts {
    pub cores: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl HostFacts {
    pub fn gather() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostFacts {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }

    pub fn to_line(&self) -> String {
        format!(
            "host: available_parallelism={} cpu=\"{}\" rustc=\"{}\" commit={}",
            self.cores, self.cpu, self.rustc, self.commit
        )
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.cores,
            self.cpu.replace('"', "'"),
            self.rustc.replace('"', "'"),
            self.commit
        )
    }
}

/// First line of a command's stdout, or `unknown`. The command is waited
/// for; git is kept from searching above the working directory.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
