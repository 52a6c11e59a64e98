//! Plumbing shared by the workspace's on-disk content-addressed stores:
//! the `bc-serve` result cache, the `bc-trace` compiled-trace directory
//! and the sweep engine's warm-start checkpoints. Each names its objects
//! by a [`crate::sha256`] digest and writes them with [`publish`].

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Temp files this process has created, so no two publishes in one
/// process ever share a temp name.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically publishes `bytes` at `path`: writes them to a temp file in
/// the same directory, syncs it to disk, then renames it over `path`, so
/// a reader sees the old object or the new one, never a torn write.
///
/// The temp name is unique per call (process id plus a process-wide
/// counter), so concurrent publishers of one object — threads or
/// processes — never write into each other's temp file. The last rename
/// wins, which is safe because every writer of a content-addressed name
/// holds the same bytes. Temp names start with `.`, which a store's
/// directory scan treats as an in-flight write rather than an object. A
/// failed publish removes its temp file. The directory is not synced: a
/// crash may lose a just-published object, which every store treats as
/// a miss, but never leaves a torn one under the final name.
///
/// # Errors
///
/// Any I/O failure creating, writing, syncing or renaming the temp file.
pub fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    // The process id only uniquifies a temp file name; it never reaches
    // simulation state or the published bytes.
    let tmp = path.with_file_name(format!(".{name}.tmp.{}.{seq}", std::process::id()));
    let written = write_synced(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_publishers_of_one_name_all_succeed() {
        let dir = std::env::temp_dir().join(format!("bc-sim-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("object");
        let bytes: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
        // Every round releases all eight writers at once; a failure is
        // recorded, not panicked on, so no writer leaves the others
        // waiting at the barrier.
        let start = std::sync::Barrier::new(8);
        let failures = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..40 {
                        start.wait();
                        if let Err(e) = publish(&path, &bytes) {
                            failures.lock().expect("failure list").push(e.to_string());
                        }
                    }
                });
            }
        });
        let failures = failures.into_inner().expect("failure list");
        assert!(failures.is_empty(), "failed publishes: {failures:?}");
        assert_eq!(std::fs::read(&path).expect("object reads"), bytes);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["object"], "temp files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_publish_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("bc-sim-publish-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("occupied")).expect("temp dirs");
        std::fs::write(dir.join("occupied/inner"), b"x").expect("inner file");
        // Renaming a file over a non-empty directory fails.
        assert!(publish(&dir.join("occupied"), b"bytes").is_err());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["occupied"], "temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
