//! Simulated processes: descriptor tables, credentials, cwd, limits.

use std::collections::HashMap;
use std::fmt;

use crate::flags::OpenFlags;
use crate::fs::FixedState;
use crate::inode::{Gid, Ino, Uid};

/// A process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// One open-file description (what a descriptor refers to).
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// The open inode.
    pub ino: Ino,
    /// Current file offset.
    pub offset: u64,
    /// The flags the file was opened with (access mode, `O_APPEND`,
    /// `O_SYNC`, `O_PATH`, …).
    pub flags: OpenFlags,
    /// The pathname the descriptor was opened with (diagnostic; not
    /// updated by renames, like `/proc/self/fd` after a move).
    pub path: String,
}

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Effective user id (uid 0 bypasses permission checks).
    pub euid: Uid,
    /// Effective group id.
    pub egid: Gid,
    /// Current working directory inode.
    pub cwd: Ino,
    /// File-mode creation mask.
    pub umask: u32,
    /// Whether the process runs in 32-bit compat mode (`open` of >2 GiB
    /// files without `O_LARGEFILE` fails `EOVERFLOW`).
    pub compat_32bit: bool,
    /// Open descriptors.
    pub fds: HashMap<i32, OpenFile, FixedState>,
    next_fd: i32,
}

impl Process {
    /// Creates a process rooted at `cwd` with the given credentials.
    #[must_use]
    pub fn new(pid: Pid, euid: Uid, egid: Gid, cwd: Ino) -> Self {
        Process {
            pid,
            euid,
            egid,
            cwd,
            umask: 0o022,
            compat_32bit: false,
            fds: HashMap::default(),
            next_fd: 3, // 0-2 are the conventional stdio descriptors
        }
    }

    /// Whether the process has root privileges.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.euid.0 == 0
    }

    /// Allocates the lowest unused descriptor number ≥ 3.
    pub fn alloc_fd(&mut self, file: OpenFile) -> i32 {
        // POSIX requires the lowest available descriptor.
        let mut fd = 3;
        while self.fds.contains_key(&fd) {
            fd += 1;
        }
        self.fds.insert(fd, file);
        self.next_fd = self.next_fd.max(fd + 1);
        fd
    }

    /// Looks up a descriptor.
    #[must_use]
    pub fn fd(&self, fd: i32) -> Option<&OpenFile> {
        self.fds.get(&fd)
    }

    /// Looks up a descriptor mutably.
    pub fn fd_mut(&mut self, fd: i32) -> Option<&mut OpenFile> {
        self.fds.get_mut(&fd)
    }

    /// Removes a descriptor, returning its open file if present.
    pub fn remove_fd(&mut self, fd: i32) -> Option<OpenFile> {
        self.fds.remove(&fd)
    }

    /// Number of open descriptors.
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.fds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Process {
        Process::new(Pid(1), Uid(1000), Gid(1000), Ino(2))
    }

    fn file(ino: u64) -> OpenFile {
        OpenFile {
            ino: Ino(ino),
            offset: 0,
            flags: OpenFlags::O_RDONLY,
            path: format!("/file-{ino}"),
        }
    }

    #[test]
    fn fds_start_at_three_and_reuse_lowest() {
        let mut p = proc();
        assert_eq!(p.alloc_fd(file(10)), 3);
        assert_eq!(p.alloc_fd(file(11)), 4);
        assert_eq!(p.alloc_fd(file(12)), 5);
        p.remove_fd(4);
        assert_eq!(p.alloc_fd(file(13)), 4, "lowest free fd is reused");
        assert_eq!(p.open_count(), 3);
    }

    #[test]
    fn fd_lookup_and_mutation() {
        let mut p = proc();
        let fd = p.alloc_fd(file(10));
        assert_eq!(p.fd(fd).unwrap().ino, Ino(10));
        p.fd_mut(fd).unwrap().offset = 99;
        assert_eq!(p.fd(fd).unwrap().offset, 99);
        assert!(p.fd(99).is_none());
        assert!(p.remove_fd(fd).is_some());
        assert!(p.remove_fd(fd).is_none());
    }

    #[test]
    fn root_detection() {
        let mut p = proc();
        assert!(!p.is_root());
        p.euid = Uid(0);
        assert!(p.is_root());
    }

    #[test]
    fn default_umask_is_022() {
        assert_eq!(proc().umask, 0o022);
        assert_eq!(Pid(7).to_string(), "pid:7");
    }
}
