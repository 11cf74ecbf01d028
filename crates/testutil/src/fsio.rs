//! Crash-safe file persistence.
//!
//! Every durable artifact the workspace writes — the tuned-operator
//! registry (`results/tuned.txt`), bench snapshots
//! (`results/bench_*.json`) — must never be observable in a torn state:
//! the `torn:`/`short:` clauses of the fault grammar exist precisely
//! because half-written files happen, and the registry degradation ladder
//! should only ever have to salvage files *other* writers tore, not ones
//! we produced ourselves. [`atomic_write`] gives writers the standard
//! POSIX recipe: write the full contents to a temporary file in the same
//! directory, fsync it, then `rename` over the destination. A process
//! killed at any instant leaves either the old file or the new file,
//! never a mixture.

use std::io::Write;
use std::path::Path;

/// Atomically replace `path` with `contents`.
///
/// The temporary file lives in `path`'s directory (rename is only atomic
/// within one filesystem) and carries the process id so concurrent writers
/// in different processes cannot collide on the staging name. On any error
/// the temporary file is removed; `path` is never left torn.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("atomic_write: `{}` has no file name", path.display()),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let write_all = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        // Flush to the platter before the rename publishes the file, so a
        // power loss after the rename cannot surface an empty/torn file.
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write_all() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of the test's own, so no test sees another's staging
    /// file.
    fn tmp_dir(test: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hef-fsio-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn writes_and_replaces() {
        let path = tmp_dir("writes_and_replaces").join("atomic.txt");
        atomic_write(&path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        atomic_write(&path, b"second, longer contents").expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second, longer contents");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_staging_file_left_behind() {
        let dir = tmp_dir("no_staging_file_left_behind");
        let path = dir.join("clean.txt");
        atomic_write(&path, b"x").expect("write");
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "staging files left behind: {strays:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_pathless_target() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }
}
