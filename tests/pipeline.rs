//! End-to-end pipeline integration: kernel → trace → serialize →
//! filter → variant merge → partition → report.

use std::sync::Arc;

use iocov::syzlang::parse_to_trace;
use iocov::{ArgName, BaseSyscall, InputPartition, Iocov, NumericPartition, DEFAULT_CHUNK};
use iocov_syscalls::Kernel;
use iocov_trace::{read_jsonl, write_jsonl, Recorder};
use iocov_workloads::profile::xfstests_profile;
use iocov_workloads::{
    campaign_config, CampaignConfig, CampaignOutcome, FeedbackCampaign, SyzFuzzerSim, TestEnv,
    MOUNT,
};

/// A small deterministic workload touching several syscall families.
fn run_workload(kernel: &mut Kernel) {
    kernel.mkdir("/mnt", 0o755);
    kernel.mkdir("/mnt/test", 0o755);
    kernel.mkdir("/mnt/test/dir", 0o755);

    // Data I/O through several variants.
    let fd = kernel.open("/mnt/test/file", 0o102 | 0o100, 0o644) as i32;
    kernel.write(fd, &[1u8; 1000]);
    kernel.pwrite64(fd, &[2u8; 100], 4096);
    kernel.writev(fd, &[&[3u8; 10], &[4u8; 20]]);
    kernel.pread64(fd, 512, 0);
    kernel.lseek(fd, 0, 2);
    kernel.ftruncate(fd, 2048);
    kernel.fchmod(fd, 0o600);
    kernel.fsetxattr(fd, "user.tag", b"value", 0);
    kernel.fgetxattr(fd, "user.tag", 64);
    kernel.close(fd);

    // Variants via dirfd.
    let dirfd = kernel.open("/mnt/test/dir", 0o200000, 0) as i32;
    kernel.openat(dirfd, "nested", 0o101, 0o644);
    kernel.mkdirat(dirfd, "sub", 0o755);
    kernel.fchmodat(dirfd, "nested", 0o640, 0);
    kernel.creat("/mnt/test/dir/created", 0o644);
    kernel.openat2(dirfd, "nested", 0, 0, 0x08);
    kernel.fchdir(dirfd);
    kernel.chdir("/");
    kernel.close(dirfd);

    // Error paths.
    kernel.open("/mnt/test/missing", 0, 0);
    kernel.truncate("/mnt/test/file", -1);
    kernel.getxattr("/mnt/test/file", "user.absent", 64);

    // Tester-internal noise outside the mount point.
    let noise = kernel.open("/tmp-state", 0o101, 0o644) as i32;
    kernel.write(noise, b"bookkeeping");
    kernel.close(noise);
}

#[test]
fn full_pipeline_counts_every_stage() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let trace = recorder.take();

    let report = Iocov::with_mount_point("/mnt/test")
        .unwrap()
        .analyze(&trace);

    // The noise I/O was filtered.
    assert!(report.filter_stats.dropped >= 3);

    // Variant merging: open/openat/creat/openat2 all analyzed as open —
    // exactly the six open-family calls aimed at the mount point (the
    // /tmp-state noise open is filtered out).
    let open_out = report.output_coverage(BaseSyscall::Open);
    assert_eq!(open_out.calls, 6);
    assert_eq!(open_out.errno_count("ENOENT"), 1);

    // Input partitions from several argument classes.
    let flags = report.input_coverage(ArgName::OpenFlags);
    assert!(flags.count(&InputPartition::Flag("O_CREAT".into())) >= 3);
    assert!(flags.count(&InputPartition::Flag("O_DIRECTORY".into())) >= 1);
    let wc = report.input_coverage(ArgName::WriteCount);
    assert!(
        wc.count(&InputPartition::Numeric(NumericPartition::Log2(9))) >= 1,
        "1000-byte write"
    );
    let whence = report.input_coverage(ArgName::LseekWhence);
    assert_eq!(
        whence.count(&InputPartition::Categorical("SEEK_END".into())),
        1
    );
    let trunc = report.input_coverage(ArgName::TruncateLength);
    assert!(trunc.count(&InputPartition::Numeric(NumericPartition::Negative)) >= 1);

    // Output coverage catches error codes of other syscalls.
    assert_eq!(
        report
            .output_coverage(BaseSyscall::Truncate)
            .errno_count("EINVAL"),
        1
    );
    assert_eq!(
        report
            .output_coverage(BaseSyscall::Getxattr)
            .errno_count("ENODATA"),
        1
    );
}

#[test]
fn serialized_trace_analyzes_identically() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let trace = recorder.take();

    let mut buf = Vec::new();
    write_jsonl(&mut buf, &trace).unwrap();
    let roundtripped = read_jsonl(&buf[..]).unwrap();

    let iocov = Iocov::with_mount_point("/mnt/test").unwrap();
    assert_eq!(iocov.analyze(&trace), iocov.analyze(&roundtripped));
}

#[test]
fn analysis_report_serializes_for_offline_diffing() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let report = Iocov::with_mount_point("/mnt/test")
        .unwrap()
        .analyze(&recorder.take());

    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: iocov::AnalysisReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert!(json.contains("O_CREAT"));
}

#[test]
fn per_pid_traces_are_attributed_separately() {
    use iocov_vfs::{Gid, Pid, Uid};
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    kernel.mkdir("/mnt", 0o755);
    kernel.mkdir("/mnt/test", 0o755);
    kernel.vfs_mut().spawn_process(Pid(9), Uid(0), Gid(0));

    // pid 1 opens inside the mount; pid 9 opens noise, then I/O on both.
    let good = kernel.open("/mnt/test/a", 0o101, 0o644) as i32;
    kernel.set_current(Pid(9));
    let noise = kernel.open("/outside", 0o101, 0o644) as i32;
    kernel.write(noise, b"xx");
    kernel.set_current(Pid(1));
    kernel.write(good, b"yyyy");

    let report = Iocov::with_mount_point("/mnt/test")
        .unwrap()
        .analyze(&recorder.take());
    let wc = report.input_coverage(ArgName::WriteCount);
    // Only pid 1's 4-byte write survives the filter.
    assert_eq!(wc.calls, 1);
    assert_eq!(
        wc.count(&InputPartition::Numeric(NumericPartition::Log2(2))),
        1
    );
}

#[test]
fn report_rendering_is_complete() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let report = Iocov::new().analyze(&recorder.take());

    for arg in ArgName::ALL {
        let text = iocov::report::render_input(&report, arg);
        assert!(text.contains("input coverage"), "{arg}");
    }
    for base in BaseSyscall::ALL {
        let text = iocov::report::render_output(&report, base);
        assert!(text.contains("output coverage"), "{base}");
    }
    assert!(iocov::report::untested_summary(&report).contains("untested"));
}

/// A feedback campaign whose rounds are large enough that each round's
/// analysis session is fed several `DEFAULT_CHUNK` batches while the
/// kernel is still executing the round.
fn chunked_campaign(initial: &iocov::AnalysisReport) -> CampaignOutcome {
    let config = CampaignConfig {
        seed: 13,
        max_rounds: 2,
        events_per_round: 10_000,
        target: 1000,
        target_tcd: 0.0,
    };
    let env = TestEnv::new().with_config(campaign_config());
    FeedbackCampaign::new(xfstests_profile(), config)
        .run(&env, initial)
        .expect("campaign analysis completes")
}

#[test]
fn feedback_rounds_fed_in_chunks_match_whole_trace_analysis() {
    // A non-empty initial report, as `generate --feedback` starts from.
    let fenv = TestEnv::new().with_config(campaign_config());
    let _ = SyzFuzzerSim::new(3, 40, 12).run(&fenv);
    let initial = Iocov::with_mount_point(MOUNT)
        .unwrap()
        .analyze(&fenv.take_trace());

    let a = chunked_campaign(&initial);
    let b = chunked_campaign(&initial);
    assert_eq!(a.rounds.len(), 2);
    assert!(a.rounds.iter().all(|r| r.events >= 10_000));
    assert!(a.rounds[0].events > 2 * DEFAULT_CHUNK as u64);
    assert_eq!(a.log, b.log);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.report, b.report);

    // The report equals the initial one merged with the owned
    // whole-trace analysis of the campaign's own syzlang log.
    let mut expected = initial;
    expected.merge(
        &Iocov::with_mount_point(MOUNT)
            .unwrap()
            .analyze(&parse_to_trace(&a.log).unwrap()),
    );
    assert_eq!(a.report, expected);
}

/// `iocov generate` output pinned across versions: the summary and log
/// under `fixtures/baseline_pr13/` were rendered by the release binary
/// that recorded owned events and re-packed them for analysis. Events
/// now go from the recorder to the analysis worker as one columnar
/// batch; the campaign's bytes must not move.
#[test]
fn feedback_campaign_matches_the_committed_baseline_bytes() {
    let root = env!("CARGO_MANIFEST_DIR");
    let log = std::env::temp_dir().join(format!(
        "iocov-baseline-campaign-{}.log",
        std::process::id()
    ));
    let args: Vec<String> = [
        "generate",
        "--feedback",
        &format!("{root}/fixtures/feedback_report.json"),
        "--seed",
        "7",
        "--target",
        "1000",
        "--target-tcd",
        "0",
        "--max-rounds",
        "2",
        "--events-per-round",
        "2000",
        "--json",
        "--log-out",
        log.to_str().unwrap(),
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let command = iocov_cli::parse_args(&args).unwrap();
    let mut summary = Vec::new();
    iocov_cli::run(&command, &mut summary).unwrap();
    let log_bytes = std::fs::read(&log).unwrap();
    let _ = std::fs::remove_file(&log);
    let baseline =
        |name: &str| std::fs::read(format!("{root}/fixtures/baseline_pr13/{name}")).unwrap();
    assert!(
        summary == baseline("summary.json"),
        "generate --json summary differs from fixtures/baseline_pr13/summary.json"
    );
    assert!(
        log_bytes == baseline("campaign.log"),
        "campaign log differs from fixtures/baseline_pr13/campaign.log"
    );
}
