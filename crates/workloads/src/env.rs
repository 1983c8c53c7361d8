//! The shared test environment: a traced kernel with a mount point.

use std::sync::Arc;

use iocov_syscalls::Kernel;
use iocov_trace::{EventBatch, Recorder, Trace};
use iocov_vfs::{Gid, Pid, SharedHook, Uid, Vfs, VfsConfig};

/// The canonical mount point both simulated suites test under — the same
/// path xfstests conventionally uses, and the pattern the IOCov trace
/// filter is configured with.
pub const MOUNT: &str = "/mnt/test";

/// A simulated testbed: configuration, fault hook, and a shared trace
/// recorder. Kernels minted from one `TestEnv` share the recorder, so a
/// whole suite (including CrashMonkey's per-workload re-mkfs) produces a
/// single trace.
#[derive(Clone)]
pub struct TestEnv {
    recorder: Arc<Recorder>,
    hook: Option<SharedHook>,
    config: VfsConfig,
}

impl std::fmt::Debug for TestEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestEnv")
            .field("recorded_events", &self.recorder.len())
            .field("hook", &self.hook.is_some())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for TestEnv {
    fn default() -> Self {
        TestEnv::new()
    }
}

impl TestEnv {
    /// A testbed with default limits.
    #[must_use]
    pub fn new() -> Self {
        TestEnv {
            recorder: Arc::new(Recorder::new()),
            hook: None,
            config: VfsConfig::default(),
        }
    }

    /// Installs a fault hook (injected bugs) into every kernel minted
    /// from this environment.
    #[must_use]
    pub fn with_hook(mut self, hook: SharedHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Overrides the file-system configuration.
    #[must_use]
    pub fn with_config(mut self, config: VfsConfig) -> Self {
        self.config = config;
        self
    }

    /// The shared recorder.
    #[must_use]
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Drains the trace recorded so far.
    #[must_use]
    pub fn take_trace(&self) -> Trace {
        self.recorder.take()
    }

    /// Drains the events recorded so far as one columnar batch, handed
    /// over without copying a row (see [`Recorder::take_batch`]).
    #[must_use]
    pub fn take_batch(&self) -> EventBatch {
        self.recorder.take_batch()
    }

    /// Creates a fresh kernel ("mkfs + mount"): a new file system with
    /// the standard namespace (`/mnt/test`, `/etc`, `/var/tmp`), an
    /// unprivileged helper process (pid 2, uid 1000), registered device
    /// numbers, and the shared recorder attached.
    #[must_use]
    pub fn fresh_kernel(&self) -> Kernel {
        let mut vfs = Vfs::with_config(self.config.clone());
        if let Some(hook) = &self.hook {
            vfs.set_fault_hook(Arc::clone(hook));
        }
        let mut kernel = Kernel::with_vfs(vfs);
        kernel.attach_recorder(Arc::clone(&self.recorder));
        // Namespace setup happens untraced, like mkfs/mount would.
        kernel.detach_recorder();
        kernel.mkdir("/mnt", 0o755);
        kernel.mkdir(MOUNT, 0o755);
        kernel.mkdir("/etc", 0o755);
        kernel.mkdir("/var", 0o755);
        kernel.mkdir("/var/tmp", 0o777);
        let fd = kernel.open("/etc/fstab", 0o101, 0o644);
        kernel.write(fd as i32, b"/dev/vdb /mnt/test ext4 defaults 0 0\n");
        kernel.close(fd as i32);
        kernel.vfs_mut().register_device(0x0801);
        kernel.vfs_mut().spawn_process(Pid(2), Uid(1000), Gid(1000));
        kernel.sync();
        kernel.attach_recorder(Arc::clone(&self.recorder));
        kernel
    }
}

/// Emits a burst of tester-bookkeeping syscalls *outside* the mount
/// point (status files, logs), which the IOCov trace filter must drop —
/// LTTng sees them in the real pipeline.
pub fn emit_noise(kernel: &mut Kernel, test_id: usize) {
    let log = format!("/var/tmp/result-{test_id}.log");
    let fd = kernel.open(&log, 0o101, 0o644);
    if fd >= 0 {
        kernel.write(fd as i32, b"test output line\n");
        kernel.close(fd as i32);
    }
    let fd = kernel.open("/etc/fstab", 0, 0);
    if fd >= 0 {
        kernel.read_discard(fd as i32, 128);
        kernel.close(fd as i32);
    }
    kernel.stat(&log);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_kernel_has_standard_namespace() {
        let env = TestEnv::new();
        let mut kernel = env.fresh_kernel();
        assert_eq!(kernel.stat(MOUNT), 0);
        assert_eq!(kernel.stat("/var/tmp"), 0);
        assert_eq!(kernel.stat("/etc/fstab"), 0);
    }

    #[test]
    fn setup_is_untraced_but_usage_is_traced() {
        let env = TestEnv::new();
        let mut kernel = env.fresh_kernel();
        assert!(env.recorder().is_empty(), "mkfs/mount leaves no events");
        kernel.open("/mnt/test/f", 0o101, 0o644);
        assert_eq!(env.recorder().len(), 1);
    }

    #[test]
    fn kernels_share_one_recorder() {
        let env = TestEnv::new();
        let mut k1 = env.fresh_kernel();
        let mut k2 = env.fresh_kernel();
        k1.mkdir("/mnt/test/a", 0o755);
        k2.mkdir("/mnt/test/b", 0o755);
        let trace = env.take_trace();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn noise_stays_outside_the_mount() {
        let env = TestEnv::new();
        let mut kernel = env.fresh_kernel();
        emit_noise(&mut kernel, 7);
        let trace = env.take_trace();
        assert!(trace.len() >= 4);
        for event in &trace {
            if let Some(path) = event.primary_path() {
                assert!(!path.starts_with(MOUNT), "{path}");
            }
        }
    }

    #[test]
    fn hook_is_installed_in_minted_kernels() {
        use iocov_vfs::{Errno, FaultAction, FaultHook, OpCtx};
        struct Always;
        impl FaultHook for Always {
            fn intercept(&self, ctx: &OpCtx<'_>) -> Option<FaultAction> {
                (ctx.op == "truncate").then_some(FaultAction::FailWith(Errno::EIO))
            }
        }
        let env = TestEnv::new().with_hook(Arc::new(Always));
        let mut kernel = env.fresh_kernel();
        kernel.creat("/mnt/test/f", 0o644);
        assert_eq!(kernel.truncate("/mnt/test/f", 0), -5);
    }
}
