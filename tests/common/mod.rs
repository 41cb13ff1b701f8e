//! Helpers shared by the integration tests.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;

/// The golden-file step of a test. With `REGENERATE_GOLDENS` set, writes
/// `text` to `path` and returns `None`, so the caller skips its
/// comparison; otherwise returns the stored text, panicking with the
/// regeneration hint when the file is missing. `what` names the file in
/// that message (e.g. "golden digests").
pub fn golden(path: &str, what: &str, text: &str) -> Option<String> {
    if std::env::var_os("REGENERATE_GOLDENS").is_some() {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {what} {path}: {e}"));
        println!("regenerated {path}");
        return None;
    }
    let stored = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing {what} {path} ({e}); run REGENERATE_GOLDENS=1 cargo test")
    });
    Some(stored)
}

/// A fresh directory under the OS temp dir that is deleted, with
/// everything in it, when the guard drops — also when the owning test
/// panics, so a failing run leaves nothing behind.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `intertubes-<name>-<pid>`, clearing any leftover of the
    /// same name first. `name` must be unique among the tests of one
    /// binary, since they run concurrently in one process.
    pub fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("intertubes-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        ScratchDir(dir)
    }

    /// A path inside the directory.
    pub fn join(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
