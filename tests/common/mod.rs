//! Helpers shared by the integration tests.

use std::path::PathBuf;

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
        std::fs::create_dir_all(&dir).expect("create scratch dir");
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
