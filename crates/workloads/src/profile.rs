//! Calibrated syscall-distribution profiles for the two simulated suites.
//!
//! The numbers here are read off the IOCov paper's evaluation: Table 1's
//! flag-combination percentages are exact; Figure 2/3/4 bar heights are
//! log-scale readings, so per-flag and per-bucket weights are encoded as
//! *relative* weights that reproduce the figures' shape (who covers
//! which partitions, dominance of O_RDONLY, xfstests ≥ CrashMonkey on
//! every partition, nothing above the 2^28 write bucket, …). The two
//! exact prose anchors — 7,924 vs 4,099,770 O_RDONLY opens and the
//! 258 MiB maximum write — calibrate the suite volumes.

use std::borrow::Cow;

use iocov_syscalls::OpenFlags;

/// Relative weight of one optional open flag (zero = never used by the
/// suite; the paper's "some flags are not tested at all").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlagWeight {
    /// The flag's name in [`OpenFlags::NAMED_FLAGS`].
    pub name: &'static str,
    /// The flag's `open(2)` bits, resolved from `name` when the profile
    /// is built, so a draw looks nothing up.
    pub bits: u32,
    /// Relative draw weight.
    pub weight: f64,
}

impl FlagWeight {
    /// The weight of the named flag. Panics on a name
    /// [`OpenFlags::NAMED_FLAGS`] does not list (at compile time in a
    /// `static` table).
    #[must_use]
    pub const fn new(name: &'static str, weight: f64) -> Self {
        let mut i = 0;
        while i < OpenFlags::NAMED_FLAGS.len() {
            let (known, flag) = OpenFlags::NAMED_FLAGS[i];
            if same_name(known.as_bytes(), name.as_bytes()) {
                return FlagWeight {
                    name,
                    bits: flag.bits(),
                    weight,
                };
            }
            i += 1;
        }
        panic!("not a named open flag");
    }
}

/// Byte-wise string equality usable in a `const fn`.
const fn same_name(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The open-flag sampling profile of one suite.
///
/// Weight tables are `Cow` slices: the calibrated suite profiles borrow
/// their `'static` tables allocation-free, while derived profiles (a
/// feedback campaign re-weighting toward cold partitions) own theirs.
#[derive(Debug, Clone)]
pub struct OpenProfile {
    /// Probability of each access mode `[O_RDONLY, O_WRONLY, O_RDWR]`.
    /// O_RDONLY dominates both suites (Figure 2).
    pub accmode_weights: [f64; 3],
    /// Percentage of opens combining 1–6 flags (Table 1's rows; the
    /// access mode counts as one flag).
    pub combo_size_pct: [f64; 6],
    /// Relative weights of the optional (non-access-mode) flags.
    pub flag_weights: Cow<'static, [FlagWeight]>,
}

/// The write/read size sampling profile: relative weight per power-of-two
/// bucket (Figure 3's shape). `zero_weight` is the "Equal to 0" boundary
/// partition.
#[derive(Debug, Clone)]
pub struct SizeProfile {
    /// Weight of size exactly 0.
    pub zero_weight: f64,
    /// `(log2 bucket, weight)`; a size is sampled uniformly inside the
    /// chosen bucket.
    pub bucket_weights: Cow<'static, [(u32, f64)]>,
}

/// A full suite profile.
#[derive(Debug, Clone)]
pub struct SuiteProfile {
    /// Display name ("xfstests" / "CrashMonkey").
    pub name: &'static str,
    /// Open-flag distribution.
    pub open: OpenProfile,
    /// Write-size distribution.
    pub write_size: SizeProfile,
    /// Read-size distribution.
    pub read_size: SizeProfile,
}

/// xfstests optional-flag weights. Broad coverage with a long tail;
/// O_NOCTTY, O_ASYNC, O_LARGEFILE, and O_TMPFILE remain untested (the
/// paper points at O_LARGEFILE bugs living in such gaps).
static XFSTESTS_FLAGS: [FlagWeight; 17] = [
    FlagWeight::new("O_CREAT", 30.0),
    FlagWeight::new("O_CLOEXEC", 20.0),
    FlagWeight::new("O_TRUNC", 12.0),
    FlagWeight::new("O_DIRECTORY", 9.0),
    FlagWeight::new("O_EXCL", 5.0),
    FlagWeight::new("O_NOFOLLOW", 3.0),
    FlagWeight::new("O_APPEND", 2.2),
    FlagWeight::new("O_NONBLOCK", 1.8),
    FlagWeight::new("O_DIRECT", 1.2),
    FlagWeight::new("O_SYNC", 0.7),
    FlagWeight::new("O_DSYNC", 0.25),
    FlagWeight::new("O_NOATIME", 0.12),
    FlagWeight::new("O_PATH", 0.08),
    FlagWeight::new("O_NOCTTY", 0.0),
    FlagWeight::new("O_ASYNC", 0.0),
    FlagWeight::new("O_LARGEFILE", 0.0),
    FlagWeight::new("O_TMPFILE", 0.0),
];

/// CrashMonkey optional-flag weights: a crash-consistency tester leans
/// on creation, truncation, and persistence flags, and never touches the
/// long tail. Strict subset of the xfstests flag set, so xfstests beats
/// it on every flag (Figure 2).
static CRASHMONKEY_FLAGS: [FlagWeight; 17] = [
    FlagWeight::new("O_CREAT", 40.0),
    FlagWeight::new("O_TRUNC", 15.0),
    FlagWeight::new("O_DIRECTORY", 12.0),
    FlagWeight::new("O_SYNC", 8.0),
    FlagWeight::new("O_APPEND", 6.0),
    FlagWeight::new("O_DSYNC", 4.0),
    FlagWeight::new("O_CLOEXEC", 2.0),
    FlagWeight::new("O_NOFOLLOW", 1.0),
    FlagWeight::new("O_EXCL", 0.0),
    FlagWeight::new("O_NONBLOCK", 0.0),
    FlagWeight::new("O_DIRECT", 0.0),
    FlagWeight::new("O_NOATIME", 0.0),
    FlagWeight::new("O_PATH", 0.0),
    FlagWeight::new("O_NOCTTY", 0.0),
    FlagWeight::new("O_ASYNC", 0.0),
    FlagWeight::new("O_LARGEFILE", 0.0),
    FlagWeight::new("O_TMPFILE", 0.0),
];

/// xfstests write sizes: every bucket up to 2^28 (258 MiB maximum, per
/// the paper's Figure 3 annotation), heavy in the 512 B – 64 KiB range,
/// plus a real "Equal to 0" population.
static XFSTESTS_WRITE_BUCKETS: [(u32, f64); 29] = [
    (0, 40.0),
    (1, 40.0),
    (2, 60.0),
    (3, 80.0),
    (4, 100.0),
    (5, 120.0),
    (6, 150.0),
    (7, 200.0),
    (8, 300.0),
    (9, 700.0),
    (10, 500.0),
    (11, 400.0),
    (12, 900.0),
    (13, 400.0),
    (14, 300.0),
    (15, 250.0),
    (16, 200.0),
    (17, 150.0),
    (18, 80.0),
    (19, 40.0),
    (20, 25.0),
    (21, 12.0),
    (22, 8.0),
    (23, 4.0),
    (24, 2.5),
    (25, 1.5),
    (26, 0.8),
    (27, 0.4),
    (28, 0.2),
];

/// CrashMonkey write sizes: few buckets, nothing tiny (no zero-length
/// writes), nothing above 128 KiB.
static CRASHMONKEY_WRITE_BUCKETS: [(u32, f64); 11] = [
    (0, 5.0),
    (2, 10.0),
    (5, 20.0),
    (8, 30.0),
    (9, 25.0),
    (10, 20.0),
    (12, 40.0),
    (13, 15.0),
    (14, 8.0),
    (16, 3.0),
    (17, 1.0),
];

/// xfstests read sizes: similar to writes, slightly heavier at page
/// sizes.
static XFSTESTS_READ_BUCKETS: [(u32, f64); 22] = [
    (0, 30.0),
    (2, 40.0),
    (4, 60.0),
    (6, 100.0),
    (8, 250.0),
    (9, 500.0),
    (10, 400.0),
    (11, 350.0),
    (12, 1000.0),
    (13, 450.0),
    (14, 320.0),
    (15, 250.0),
    (16, 180.0),
    (17, 120.0),
    (18, 60.0),
    (19, 30.0),
    (20, 15.0),
    (21, 6.0),
    (22, 3.0),
    (23, 1.5),
    (24, 0.8),
    (25, 0.4),
];

/// CrashMonkey read sizes: verification reads at a few block sizes.
static CRASHMONKEY_READ_BUCKETS: [(u32, f64); 6] = [
    (9, 10.0),
    (10, 8.0),
    (12, 30.0),
    (13, 10.0),
    (14, 4.0),
    (16, 1.0),
];

/// The xfstests profile.
#[must_use]
pub fn xfstests_profile() -> SuiteProfile {
    SuiteProfile {
        name: "xfstests",
        open: OpenProfile {
            accmode_weights: [0.855, 0.115, 0.030],
            // Table 1, row "xfstests: all flags".
            combo_size_pct: [6.1, 28.2, 18.2, 46.8, 0.5, 0.4],
            flag_weights: Cow::Borrowed(&XFSTESTS_FLAGS),
        },
        write_size: SizeProfile {
            zero_weight: 1.0,
            bucket_weights: Cow::Borrowed(&XFSTESTS_WRITE_BUCKETS),
        },
        read_size: SizeProfile {
            zero_weight: 0.3,
            bucket_weights: Cow::Borrowed(&XFSTESTS_READ_BUCKETS),
        },
    }
}

/// The CrashMonkey profile.
#[must_use]
pub fn crashmonkey_profile() -> SuiteProfile {
    SuiteProfile {
        name: "CrashMonkey",
        open: OpenProfile {
            accmode_weights: [0.86, 0.10, 0.04],
            // Table 1, row "CrashMonkey: all flags".
            combo_size_pct: [9.3, 2.8, 22.1, 65.4, 0.5, 0.0],
            flag_weights: Cow::Borrowed(&CRASHMONKEY_FLAGS),
        },
        write_size: SizeProfile {
            zero_weight: 0.0, // CrashMonkey never writes zero bytes
            bucket_weights: Cow::Borrowed(&CRASHMONKEY_WRITE_BUCKETS),
        },
        read_size: SizeProfile {
            zero_weight: 0.0,
            bucket_weights: Cow::Borrowed(&CRASHMONKEY_READ_BUCKETS),
        },
    }
}

/// The paper's exact prose anchors, used by calibration tests and the
/// figure-reproduction harness.
pub mod anchors {
    /// O_RDONLY opens observed for CrashMonkey.
    pub const CRASHMONKEY_O_RDONLY: u64 = 7_924;
    /// O_RDONLY opens observed for xfstests.
    pub const XFSTESTS_O_RDONLY: u64 = 4_099_770;
    /// Largest write either suite issued (falls in the 2^28 bucket).
    pub const MAX_WRITE_BYTES: u64 = 258 * 1024 * 1024;
    /// Figure 5's TCD crossover target.
    pub const TCD_CROSSOVER: u64 = 5_237;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_percentages_match_table1() {
        let xfs = xfstests_profile();
        assert_eq!(xfs.open.combo_size_pct, [6.1, 28.2, 18.2, 46.8, 0.5, 0.4]);
        let cm = crashmonkey_profile();
        assert_eq!(cm.open.combo_size_pct, [9.3, 2.8, 22.1, 65.4, 0.5, 0.0]);
        // Both rows sum to ~100%.
        for profile in [&xfs, &cm] {
            let total: f64 = profile.open.combo_size_pct.iter().sum();
            assert!((total - 100.0).abs() < 0.5, "{}: {total}", profile.name); // paper rows round to 100.2
        }
    }

    #[test]
    fn crashmonkey_flags_are_a_subset_of_xfstests() {
        let xfs = xfstests_profile();
        let cm = crashmonkey_profile();
        for flag in cm.open.flag_weights.iter() {
            if flag.weight > 0.0 {
                let xw = xfs
                    .open
                    .flag_weights
                    .iter()
                    .find(|f| f.name == flag.name)
                    .map_or(0.0, |f| f.weight);
                assert!(
                    xw > 0.0,
                    "{} used by CM must be used by xfstests",
                    flag.name
                );
            }
        }
    }

    #[test]
    fn both_suites_leave_some_flags_untested() {
        for profile in [xfstests_profile(), crashmonkey_profile()] {
            let untested = profile
                .open
                .flag_weights
                .iter()
                .filter(|f| f.weight == 0.0)
                .count();
            assert!(untested >= 4, "{}", profile.name);
        }
    }

    #[test]
    fn write_buckets_cap_at_2_28_and_cm_has_no_zero() {
        let xfs = xfstests_profile();
        assert!(xfs.write_size.bucket_weights.iter().all(|(k, _)| *k <= 28));
        assert!(xfs.write_size.zero_weight > 0.0);
        let cm = crashmonkey_profile();
        assert!(cm.write_size.bucket_weights.iter().all(|(k, _)| *k <= 17));
        assert_eq!(cm.write_size.zero_weight, 0.0);
        // CM's buckets are a subset of xfstests'.
        for (bucket, _) in cm.write_size.bucket_weights.iter() {
            assert!(
                xfs.write_size
                    .bucket_weights
                    .iter()
                    .any(|(k, _)| k == bucket),
                "bucket {bucket}"
            );
        }
    }

    #[test]
    fn anchor_constants() {
        assert_eq!(anchors::XFSTESTS_O_RDONLY, 4_099_770);
        assert_eq!(anchors::CRASHMONKEY_O_RDONLY, 7_924);
        assert_eq!(anchors::MAX_WRITE_BYTES >> 20, 258);
        assert_eq!(anchors::TCD_CROSSOVER, 5_237);
    }

    #[test]
    fn accmode_weights_make_o_rdonly_dominant() {
        for p in [xfstests_profile(), crashmonkey_profile()] {
            assert!(p.open.accmode_weights[0] > 0.8, "{}", p.name);
            let sum: f64 = p.open.accmode_weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
