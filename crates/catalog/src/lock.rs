//! Cross-process sidecar locking: a kernel advisory lock on a sibling
//! `.lock` file.
//!
//! [`crate::persist::SidecarWriter`]'s internal mutex serialises writers
//! *within one process*; two CLI invocations (or a server and a CLI) racing
//! on the same sidecar would still interleave their rewrites. The
//! [`FileLock`] here closes that gap: it opens the sibling `<sidecar>.lock`
//! once and takes an exclusive advisory lock on it
//! ([`std::fs::File::try_lock`], `flock` on Unix) around every append or
//! rewrite.
//!
//! The kernel owns the lock and releases it when its holder unlocks,
//! closes the file or dies, so a crashed writer never blocks later ones and
//! no holder record, liveness probe or stale-lock breaking is needed. The
//! lock file stays on disk between writers and its content is never read:
//! a leftover file written by an older build (a `pid …` line) is just an
//! unlocked file. A *running* older build is another matter: it takes no
//! kernel lock and unlinks this file as a torn holder record, so every
//! writer on a catalog must be upgraded together (`docs/PERSISTENCE.md`,
//! "Writing discipline").
//!
//! The lock belongs to the open file, not to the process or the thread:
//! two `FileLock`s on one path exclude each other even inside one process,
//! but one `FileLock` does not exclude the threads sharing it. Acquiring
//! therefore takes `&mut self`; a shared writer puts its `FileLock` behind
//! a mutex.

use std::fs::{File, TryLockError};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// An advisory cross-process lock on a `.lock` file, opened on first use
/// and kept open for the lock's lifetime.
#[derive(Debug)]
pub struct FileLock {
    path: PathBuf,
    file: Option<File>,
}

/// Holding proof for a [`FileLock`]; unlocks on drop.
#[derive(Debug)]
pub struct FileLockGuard<'a> {
    file: &'a File,
}

impl Drop for FileLockGuard<'_> {
    fn drop(&mut self) {
        let _ = self.file.unlock();
    }
}

impl FileLock {
    /// The lock guarding `file`: its sibling `<file>.lock`.
    pub fn for_file(file: &Path) -> Self {
        let mut name = file.file_name().unwrap_or_default().to_os_string();
        name.push(".lock");
        FileLock { path: file.with_file_name(name), file: None }
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Try to take the lock once; `None` when another holder has it.
    pub fn try_acquire(&mut self) -> io::Result<Option<FileLockGuard<'_>>> {
        let file = open(&mut self.file, &self.path)?;
        Ok(try_lock(file)?.then_some(FileLockGuard { file }))
    }

    /// Acquire the lock, retrying until `timeout` elapses. Fails with
    /// [`io::ErrorKind::TimedOut`] when another holder keeps the lock the
    /// whole time.
    pub fn acquire(&mut self, timeout: Duration) -> io::Result<FileLockGuard<'_>> {
        let deadline = Instant::now() + timeout;
        let file = open(&mut self.file, &self.path)?;
        while !try_lock(file)? {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("lock file {} is held by another writer", self.path.display()),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(FileLockGuard { file })
    }
}

/// The open lock file at `path`, created on first use (never truncated:
/// its content is irrelevant).
fn open<'a>(slot: &'a mut Option<File>, path: &Path) -> io::Result<&'a File> {
    if slot.is_none() {
        let file =
            std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
        *slot = Some(file);
    }
    Ok(slot.as_ref().expect("the lock file was opened above"))
}

/// One non-blocking exclusive lock attempt: `false` when it would block.
fn try_lock(file: &File) -> io::Result<bool> {
    match file.try_lock() {
        Ok(()) => Ok(true),
        Err(TryLockError::WouldBlock) => Ok(false),
        Err(TryLockError::Error(error)) => Err(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_target(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("mapcomp_lock_{}_{tag}.memo", std::process::id()));
        let _ = std::fs::remove_file(FileLock::for_file(&path).path());
        path
    }

    #[test]
    fn lock_is_exclusive_and_released_on_drop() {
        let target = temp_target("exclusive");
        let (mut first, mut second) = (FileLock::for_file(&target), FileLock::for_file(&target));
        let guard = first.try_acquire().unwrap().expect("first acquire succeeds");
        assert!(second.try_acquire().unwrap().is_none(), "a held lock excludes a second opener");
        drop(guard);
        assert!(first.path().exists(), "the lock file stays on disk");
        assert!(second.try_acquire().unwrap().is_some(), "a released lock can be taken again");
    }

    #[test]
    fn leftover_lock_file_content_never_blocks() {
        let target = temp_target("leftover");
        let mut lock = FileLock::for_file(&target);
        // What an older build's crashed holder left behind: a PID line for
        // a process that cannot exist (above the kernel's pid_max).
        std::fs::write(lock.path(), "pid 999999999\n").unwrap();
        drop(lock.acquire(Duration::from_millis(60)).expect("an unlocked file is free"));
        assert_eq!(std::fs::read_to_string(lock.path()).unwrap(), "pid 999999999\n");
    }

    #[test]
    fn live_holder_times_out_other_acquirers() {
        let target = temp_target("timeout");
        let mut holder = FileLock::for_file(&target);
        let _guard = holder.try_acquire().unwrap().expect("acquire");
        let error = FileLock::for_file(&target).acquire(Duration::from_millis(60)).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn contended_acquires_serialise_across_threads() {
        let target = temp_target("contended");
        let counter = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (target, counter) = (&target, &counter);
                scope.spawn(move || {
                    // One lock per thread: the kernel arbitrates between
                    // open files, as it does between processes.
                    let mut lock = FileLock::for_file(target);
                    for _ in 0..5 {
                        let _guard = lock.acquire(Duration::from_secs(10)).unwrap();
                        let seen = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        // Mutual exclusion: nobody else increments while the
                        // lock is held.
                        std::thread::sleep(Duration::from_millis(1));
                        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), seen + 1);
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 20);
    }
}
