//! Feedback-campaign throughput: the cost of closing the
//! measure→generate loop. One round is extract-cold → re-weight →
//! generate-and-execute → re-analyze; the campaign benches measure the
//! loop end to end, and the extraction bench isolates the per-round
//! analysis overhead feedback adds over blind generation.

use criterion::{criterion_group, criterion_main, Criterion};
use iocov::{campaign_tcd, extract_cold, AnalysisReport, Iocov};
use iocov_workloads::{
    campaign_config, CampaignConfig, FeedbackCampaign, SyzFuzzerSim, TestEnv, MOUNT,
};

fn quick(seed: u64, rounds: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        max_rounds: rounds,
        events_per_round: 250,
        target: 10,
        target_tcd: 0.0,
    }
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("feedback_campaign");
    group.sample_size(10);
    for rounds in [1usize, 3] {
        group.bench_function(format!("{rounds}_round_campaign"), |b| {
            b.iter(|| {
                let env = TestEnv::new().with_config(campaign_config());
                let campaign = FeedbackCampaign::new(
                    iocov_workloads::profile::xfstests_profile(),
                    quick(42, rounds),
                );
                campaign
                    .run(&env, &AnalysisReport::default())
                    .expect("campaign analysis")
                    .final_tcd
            });
        });
    }
    group.finish();
}

fn bench_cold_extraction(c: &mut Criterion) {
    // A realistic mid-campaign report: one unguided fuzzer burst.
    let env = TestEnv::new().with_config(campaign_config());
    let _ = SyzFuzzerSim::new(1, 60, 12).run(&env);
    let report = Iocov::with_mount_point(MOUNT)
        .unwrap()
        .analyze(&env.take_trace());
    let mut group = c.benchmark_group("feedback_campaign");
    group.bench_function("extract_cold", |b| {
        b.iter(|| extract_cold(std::hint::black_box(&report), 10).input_count());
    });
    group.bench_function("campaign_tcd", |b| {
        b.iter(|| campaign_tcd(std::hint::black_box(&report), 10));
    });
    group.finish();
}

criterion_group!(benches, bench_campaign, bench_cold_extraction);
criterion_main!(benches);
