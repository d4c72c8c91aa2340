//! The host filing system under the bootstrap Ejects of §7 — and, since
//! the durability plane, under the kernel's stable store as well.
//!
//! "Currently most data of interest is in the Unix file system, so a
//! bootstrap Eden transput system has been constructed." The paper's
//! substrate was a real Unix; ours is the [`HostFs`] trait with two
//! implementations: a hermetic in-memory [`MemFs`] (the default everywhere
//! in tests and benchmarks) and [`RealFs`] over `std::fs`, rooted in a
//! directory, for users who want actual files. The trait lives in
//! `eden-core` so that `eden-kernel`'s durable stable store and
//! `eden-fs`'s bootstrap Ejects run the identical I/O path: every
//! durability test over `MemFs` exercises the same code that touches the
//! disk in production.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Component, Path, PathBuf};
use std::sync::Arc;

use crate::{EdenError, Result};
use parking_lot::Mutex;

/// A minimal byte-file interface: exactly what the bootstrap Ejects and
/// the append-only checkpoint log need.
pub trait HostFs: Send + Sync + 'static {
    /// Read the whole file at `path`.
    fn read(&self, path: &str) -> Result<Vec<u8>>;
    /// Create or replace the file at `path`.
    fn write(&self, path: &str, bytes: &[u8]) -> Result<()>;
    /// Append to the file at `path` (created if missing), returning the
    /// file's new length. The log layer treats one `append` as the unit
    /// that may tear on a crash: a partial append is tolerated on replay,
    /// an interleaved one is not, so callers serialise appends per file.
    fn append(&self, path: &str, bytes: &[u8]) -> Result<u64>;
    /// Force the file at `path` to stable storage (fsync). `MemFs` is
    /// always "stable" and treats this as a no-op.
    fn sync(&self, path: &str) -> Result<()>;
    /// Atomically rename `from` to `to` (replacing `to` if it exists).
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &str) -> bool;
    /// Paths of every file, sorted (diagnostics and tests).
    fn list(&self) -> Vec<String>;
    /// Remove the file at `path` (missing files are an error).
    fn remove(&self, path: &str) -> Result<()>;
}

/// A shared handle to a host filing system.
pub type HostFsHandle = Arc<dyn HostFs>;

/// An in-memory filing system.
#[derive(Default, Debug)]
pub struct MemFs {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemFs {
    /// An empty in-memory filing system, ready to share.
    #[allow(clippy::new_ret_no_self)] // Deliberately returns the shared handle.
    pub fn new() -> HostFsHandle {
        Arc::new(MemFs::default())
    }

    /// A filing system pre-populated with text files.
    pub fn with_files<I, P, C>(files: I) -> HostFsHandle
    where
        I: IntoIterator<Item = (P, C)>,
        P: Into<String>,
        C: Into<Vec<u8>>,
    {
        let fs = MemFs::default();
        {
            let mut map = fs.files.lock();
            for (path, contents) in files {
                map.insert(path.into(), contents.into());
            }
        }
        Arc::new(fs)
    }
}

impl HostFs for MemFs {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        self.files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| EdenError::HostFs(format!("no such file: {path}")))
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
        self.files.lock().insert(path.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<u64> {
        let mut map = self.files.lock();
        let file = map.entry(path.to_owned()).or_default();
        file.extend_from_slice(bytes);
        Ok(file.len() as u64)
    }

    fn sync(&self, _path: &str) -> Result<()> {
        // Memory is as stable as MemFs storage gets.
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut map = self.files.lock();
        let bytes = map
            .remove(from)
            .ok_or_else(|| EdenError::HostFs(format!("no such file: {from}")))?;
        map.insert(to.to_owned(), bytes);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    fn list(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.files
            .lock()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| EdenError::HostFs(format!("no such file: {path}")))
    }
}

/// A filing system over `std::fs`, confined to a root directory.
#[derive(Debug)]
pub struct RealFs {
    root: PathBuf,
    /// The file last appended to, open, and its length: a log appends to one
    /// file thousands of times running, and each append should cost its
    /// `write` and nothing else. Dropped when that path is written, renamed
    /// (from or onto) or removed through this handle, or an append fails.
    tail: Mutex<Option<(PathBuf, std::fs::File, u64)>>,
}

impl RealFs {
    /// Use `root` as the filing-system root. The directory must exist.
    #[allow(clippy::new_ret_no_self)] // Deliberately returns the shared handle.
    pub fn new(root: impl Into<PathBuf>) -> Result<HostFsHandle> {
        let root = root.into();
        if !root.is_dir() {
            return Err(EdenError::HostFs(format!(
                "root is not a directory: {}",
                root.display()
            )));
        }
        let tail = Mutex::new(None);
        Ok(Arc::new(RealFs { root, tail }))
    }

    /// Resolve a relative path, rejecting traversal outside the root.
    fn resolve(&self, path: &str) -> Result<PathBuf> {
        let rel = Path::new(path);
        if rel.is_absolute()
            || rel
                .components()
                .any(|c| matches!(c, Component::ParentDir | Component::Prefix(_)))
        {
            return Err(EdenError::HostFs(format!(
                "path must be relative and traversal-free: {path}"
            )));
        }
        Ok(self.root.join(rel))
    }

    /// Close the append handle if it is `full`'s.
    fn forget_tail(&self, full: &Path) {
        self.tail.lock().take_if(|(open, ..)| open == full);
    }
}

impl HostFs for RealFs {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        let full = self.resolve(path)?;
        std::fs::read(&full).map_err(|e| EdenError::HostFs(format!("read {path}: {e}")))
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
        let full = self.resolve(path)?;
        self.forget_tail(&full);
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| EdenError::HostFs(format!("mkdir for {path}: {e}")))?;
        }
        std::fs::write(&full, bytes).map_err(|e| EdenError::HostFs(format!("write {path}: {e}")))
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<u64> {
        let full = self.resolve(path)?;
        let mut tail = self.tail.lock();
        if tail.as_ref().is_none_or(|(open, ..)| *open != full) {
            let open = || {
                let mut how = std::fs::OpenOptions::new();
                how.append(true).create(true).open(&full)
            };
            // The parent is made only when the open says it is missing.
            let file = open().or_else(|e| match full.parent() {
                Some(parent) if e.kind() == std::io::ErrorKind::NotFound => {
                    std::fs::create_dir_all(parent).and_then(|()| open())
                }
                _ => Err(e),
            });
            let file = file.map_err(|e| EdenError::HostFs(format!("open {path}: {e}")))?;
            let len = file.metadata().map(|m| m.len());
            let len = len.map_err(|e| EdenError::HostFs(format!("stat {path}: {e}")))?;
            *tail = Some((full, file, len));
        }
        let (_, file, len) = tail.as_mut().expect("opened above");
        if let Err(e) = file.write_all(bytes) {
            // Part of it may have landed: the length is no longer known.
            *tail = None;
            return Err(EdenError::HostFs(format!("append {path}: {e}")));
        }
        *len += bytes.len() as u64;
        Ok(*len)
    }

    fn sync(&self, path: &str) -> Result<()> {
        let full = self.resolve(path)?;
        let tail = self.tail.lock();
        let synced = match tail.as_ref().filter(|(open, ..)| *open == full) {
            Some((_, file, _)) => file.sync_all(),
            None => std::fs::File::open(&full).and_then(|f| f.sync_all()),
        };
        synced.map_err(|e| EdenError::HostFs(format!("sync {path}: {e}")))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let src = self.resolve(from)?;
        let dst = self.resolve(to)?;
        self.forget_tail(&src);
        self.forget_tail(&dst);
        if let Some(parent) = dst.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| EdenError::HostFs(format!("mkdir for {to}: {e}")))?;
        }
        std::fs::rename(&src, &dst)
            .map_err(|e| EdenError::HostFs(format!("rename {from} -> {to}: {e}")))
    }

    fn exists(&self, path: &str) -> bool {
        self.resolve(path).map(|p| p.is_file()).unwrap_or(false)
    }

    fn list(&self) -> Vec<String> {
        fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
            let entries = match std::fs::read_dir(dir) {
                Ok(e) => e,
                Err(_) => return,
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, root, out);
                } else if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().into_owned());
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out);
        out.sort();
        out
    }

    fn remove(&self, path: &str) -> Result<()> {
        let full = self.resolve(path)?;
        self.forget_tail(&full);
        std::fs::remove_file(&full).map_err(|e| EdenError::HostFs(format!("remove {path}: {e}")))
    }
}

impl std::fmt::Debug for dyn HostFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HostFs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_roundtrip() {
        let fs = MemFs::new();
        assert!(!fs.exists("a.txt"));
        fs.write("a.txt", b"hello").unwrap();
        assert!(fs.exists("a.txt"));
        assert_eq!(fs.read("a.txt").unwrap(), b"hello");
        assert_eq!(fs.list(), vec!["a.txt"]);
        fs.remove("a.txt").unwrap();
        assert!(!fs.exists("a.txt"));
    }

    #[test]
    fn memfs_missing_file_errors() {
        let fs = MemFs::new();
        assert!(matches!(fs.read("nope"), Err(EdenError::HostFs(_))));
        assert!(fs.remove("nope").is_err());
        assert!(fs.rename("nope", "other").is_err());
    }

    #[test]
    fn memfs_append_creates_and_extends() {
        let fs = MemFs::new();
        assert_eq!(fs.append("log", b"ab").unwrap(), 2);
        assert_eq!(fs.append("log", b"cd").unwrap(), 4);
        assert_eq!(fs.read("log").unwrap(), b"abcd");
        fs.sync("log").unwrap();
    }

    #[test]
    fn memfs_rename_moves_bytes() {
        let fs = MemFs::new();
        fs.write("a", b"x").unwrap();
        fs.rename("a", "b").unwrap();
        assert!(!fs.exists("a"));
        assert_eq!(fs.read("b").unwrap(), b"x");
    }

    #[test]
    fn realfs_confined_roundtrip() {
        let dir = std::env::temp_dir().join(format!("eden-fs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = RealFs::new(&dir).unwrap();
        fs.write("sub/file.txt", b"data").unwrap();
        assert_eq!(fs.read("sub/file.txt").unwrap(), b"data");
        assert!(fs.exists("sub/file.txt"));
        assert_eq!(fs.list(), vec!["sub/file.txt".to_owned()]);
        fs.remove("sub/file.txt").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn realfs_append_sync_rename() {
        let dir = std::env::temp_dir().join(format!("eden-fs-app-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = RealFs::new(&dir).unwrap();
        assert_eq!(fs.append("seg/log", b"ab").unwrap(), 2);
        assert_eq!(fs.append("seg/log", b"c").unwrap(), 3);
        fs.sync("seg/log").unwrap();
        fs.rename("seg/log", "seg/log2").unwrap();
        assert_eq!(fs.read("seg/log2").unwrap(), b"abc");
        assert!(!fs.exists("seg/log"));
        // The handle kept from the last append does not outlive the name it
        // was opened under: renamed away, rewritten, removed, or displaced by
        // an append elsewhere, the next append finds the file the path names.
        assert_eq!(fs.append("seg/log", b"d").unwrap(), 1);
        assert_eq!(fs.append("seg/log2", b"e").unwrap(), 4);
        fs.write("seg/log2", b"xy").unwrap();
        assert_eq!(fs.append("seg/log2", b"z").unwrap(), 3);
        assert_eq!(fs.read("seg/log2").unwrap(), b"xyz");
        fs.remove("seg/log2").unwrap();
        assert_eq!(fs.append("seg/log2", b"q").unwrap(), 1);
        assert_eq!(
            (fs.read("seg/log").unwrap(), fs.read("seg/log2").unwrap()),
            (b"d".to_vec(), b"q".to_vec())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn realfs_rejects_traversal() {
        let dir = std::env::temp_dir().join(format!("eden-fs-esc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = RealFs::new(&dir).unwrap();
        assert!(fs.read("../etc/passwd").is_err());
        assert!(fs.write("/abs.txt", b"x").is_err());
        assert!(fs.append("../esc", b"x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
