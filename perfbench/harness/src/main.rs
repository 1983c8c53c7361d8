//! The Rust half of the IOCov benchmark (`perfbench/run.py` drives it).
//!
//! Subcommands:
//!
//! * `exec OUT PROGRAM ARGS...` — runs one system-under-test process
//!   with its stdout in OUT (`-` discards it), waits for it and prints its
//!   exit code, wall time, CPU time and peak RSS from the rusage of this
//!   small launcher's only child. A process forked straight from
//!   `run.py` would report the Python interpreter's resident set as its
//!   peak, because Linux carries the pre-exec peak across `exec`.
//! * `gen WORKLOAD SEED SCALE DIR [--reference]` — generates the
//!   workload's corpus from its seed with the simulated test suites and
//!   writes it in the container the workload reads. Prints the set-up
//!   time; with `--reference` also writes the in-process reference
//!   report(s) and prints the corpus properties.
//! * `feed SOCKET NAME=FILE...` — feeds `.iotb` corpora to a running
//!   `iocov serve` as concurrent streams, one thread per stream.
//! * `campaign-reference SEED_REPORT LOG OUT` — writes the report a
//!   `generate --feedback --json` summary must carry: the seed report
//!   merged with the analysis of the campaign's syzlang log.
//! * `layers WORKLOAD SEED SCALE DIR E2E_WALL_S E2E_EVENTS ROUNDS` — the
//!   traced run: replays the corpus through each layer's public
//!   functions, keeps the spans in memory, writes them to
//!   `DIR/spans.json` at the end and prints the per-layer metrics.
//!
//! Every line printed on stdout is one JSON object.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use iocov::{AnalysisReport, Analyzer, Iocov, PipelineBuilder, PipelineMetrics, TraceFilter};
use iocov_trace::{
    open_source, EventBatch, SourceFormat, SourceOptions, SourcePos, Trace, TraceEvent,
};
use iocov_workloads::{emit_noise, TestEnv, XfstestsSim, MOUNT};

#[global_allocator]
static ALLOC: iocov_bench::CountingAlloc = iocov_bench::CountingAlloc;

/// xfstests tests run between recorder drains, as in `iocov_bench`.
const CHUNK_TESTS: usize = 25;
/// Events per pulled batch; the CLI's default chunk.
const BATCH: usize = iocov::DEFAULT_CHUNK;
/// `iocov serve`'s default checkpoint cadence, in events per stream.
const SERVE_CHECKPOINT_EVERY: u64 = 4096;
/// `iocov feed`'s default DATA frame payload.
const FEED_CHUNK: usize = 64 * 1024;
/// The coverage target every workload measures TCD against.
const TARGET: u64 = 1000;
/// Tester and noise processes in the fleet corpus. Tester pids are even
/// and noise pids odd offsets, so `--jobs 2` shards by `pid % 2` get
/// four of each.
const FLEET_TESTERS: u32 = 8;
const FLEET_NOISE: u32 = 8;
/// Syscalls one `emit_noise` burst records.
const NOISE_BURST_EVENTS: usize = 7;
/// Pid offset separating the second serve stream from the first.
const STREAM_B_PID_OFFSET: u32 = 1000;
/// Repeats of the small per-report layers; the median is reported.
const SMALL_REPEATS: usize = 5;
/// Span capacity of one traced run.
const MAX_SPANS: usize = 4096;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("exec") if args.len() >= 3 => exec(&args[1], &args[2], &args[3..]),
        Some("gen") if args.len() >= 5 => gen(
            &args[1],
            parse(&args[2]),
            parse(&args[3]),
            Path::new(&args[4]),
            args.get(5).is_some_and(|a| a == "--reference"),
        ),
        Some("feed") if args.len() >= 3 => feed(&args[1], &args[2..]),
        Some("campaign-reference") if args.len() == 4 => {
            campaign_reference(&args[1], &args[2], &args[3])
        }
        Some("layers") if args.len() == 8 => layers(
            &args[1],
            parse(&args[2]),
            parse(&args[3]),
            Path::new(&args[4]),
            parse(&args[5]),
            parse(&args[6]),
            parse(&args[7]),
        ),
        _ => Err("usage: iocov-perfbench exec|gen|feed|campaign-reference|layers ...".to_owned()),
    };
    if let Err(e) = result {
        eprintln!("iocov-perfbench: {e}");
        std::process::exit(1);
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| panic!("iocov-perfbench: cannot parse argument {s:?}"))
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Corpus generation
// ---------------------------------------------------------------------------

/// Runs the simulated xfstests suite (`seed`, `scale`) on one kernel and
/// returns its whole trace, with every pid shifted by `pid_offset`.
fn xfstests_trace(seed: u64, scale: f64, pid_offset: u32) -> Trace {
    let env = TestEnv::new();
    let mut kernel = env.fresh_kernel();
    let sim = XfstestsSim::new(seed, scale);
    let total = sim.total_tests();
    let mut events = Vec::new();
    for start in (0..total).step_by(CHUNK_TESTS) {
        let _ = sim.run_range(&mut kernel, start..(start + CHUNK_TESTS).min(total));
        events.extend(env.take_trace().into_events());
    }
    for e in &mut events {
        e.pid += pid_offset;
    }
    Trace::from_events(events)
}

/// The fleet corpus: `FLEET_TESTERS` seeded xfstests runs as distinct
/// tester pids, interleaved with `FLEET_NOISE` pids doing tester
/// bookkeeping outside the mount point, as many noise events as tester
/// events. Streams are interleaved in seeded runs of 1–64 events,
/// keeping each pid's own order.
fn fleet_trace(seed: u64, scale: f64) -> Trace {
    let mut streams: Vec<std::vec::IntoIter<TraceEvent>> = Vec::new();
    let mut tester_events = 0;
    for i in 0..FLEET_TESTERS {
        let tester = xfstests_trace(seed.wrapping_add(u64::from(i)), scale, 0);
        let mut events = tester.into_events();
        for e in &mut events {
            // Pid 1 is the tester, pid 2 its unprivileged helper; both
            // stay on the tester's shard parity.
            e.pid = 100 + 4 * i + 2 * (e.pid - 1);
        }
        tester_events += events.len();
        streams.push(events.into_iter());
    }
    for j in 0..FLEET_NOISE {
        let env = TestEnv::new();
        let mut kernel = env.fresh_kernel();
        for k in 0..tester_events / FLEET_NOISE as usize / NOISE_BURST_EVENTS {
            emit_noise(&mut kernel, k);
        }
        let mut events = env.take_trace().into_events();
        for e in &mut events {
            e.pid = 101 + 2 * j;
        }
        streams.push(events.into_iter());
    }
    let mut rng = seed ^ 0x5eed_f1ee_7000_0000;
    let mut out = Vec::new();
    let mut live: Vec<usize> = (0..streams.len()).collect();
    while !live.is_empty() {
        rng = iocov::splitmix64(rng, 1);
        let pick = (rng % live.len() as u64) as usize;
        let run = 1 + (rng >> 32) % 64;
        let stream = &mut streams[live[pick]];
        let mut exhausted = false;
        for _ in 0..run {
            match stream.next() {
                Some(e) => out.push(e),
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        if exhausted {
            live.swap_remove(pick);
        }
    }
    for (i, e) in out.iter_mut().enumerate() {
        e.seq = i as u64;
        e.timestamp_ns = i as u64 * 1_000;
    }
    Trace::from_events(out)
}

fn write_iotb(path: &Path, trace: &Trace) -> Result<(), String> {
    let file = File::create(path).map_err(io_err("create iotb"))?;
    iocov_trace::write_iotb_indexed(file, trace, iocov_trace::DEFAULT_BLOCK_EVENTS)
        .map_err(|e| format!("write iotb: {e}"))
}

fn write_jsonl(path: &Path, trace: &Trace) -> Result<(), String> {
    let file = File::create(path).map_err(io_err("create jsonl"))?;
    iocov_trace::write_jsonl(BufWriter::new(file), trace).map_err(|e| format!("write jsonl: {e}"))
}

fn write_report(path: &Path, report: &AnalysisReport) -> Result<(), String> {
    let text = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(io_err("write report"))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The workload's corpus in memory: named traces plus the files they
/// were written to.
struct Corpus {
    traces: Vec<(&'static str, Trace)>,
    files: Vec<PathBuf>,
}

fn generate(workload: &str, seed: u64, scale: f64, dir: &Path) -> Result<Corpus, String> {
    std::fs::create_dir_all(dir).map_err(io_err("create work dir"))?;
    let (traces, files) = match workload {
        "xfstests-iotb" => {
            let trace = xfstests_trace(seed, scale, 0);
            let path = dir.join("corpus.iotb");
            write_iotb(&path, &trace)?;
            (vec![("corpus", trace)], vec![path])
        }
        "fleet-jsonl" => {
            let trace = fleet_trace(seed, scale);
            let path = dir.join("corpus.jsonl");
            write_jsonl(&path, &trace)?;
            (vec![("corpus", trace)], vec![path])
        }
        "serve-2stream" => {
            let a = xfstests_trace(seed, scale, 0);
            let b = xfstests_trace(seed ^ 0xb, scale, STREAM_B_PID_OFFSET);
            let (pa, pb) = (dir.join("a.iotb"), dir.join("b.iotb"));
            write_iotb(&pa, &a)?;
            write_iotb(&pb, &b)?;
            (vec![("a", a), ("b", b)], vec![pa, pb])
        }
        "feedback-campaign" => {
            // The campaign's seed coverage: a short xfstests run's report.
            let trace = xfstests_trace(seed, scale, 0);
            let report = mount_iocov().analyze(&trace);
            let path = dir.join("seed_report.json");
            write_report(&path, &report)?;
            (vec![("seed", trace)], vec![path])
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Corpus { traces, files })
}

fn mount_filter() -> TraceFilter {
    TraceFilter::mount_point(MOUNT).expect("the static mount pattern compiles")
}

fn mount_iocov() -> Iocov {
    Iocov::with_mount_point(MOUNT).expect("the static mount pattern compiles")
}

/// Corpus properties a later claim can cite per workload: size, pids,
/// drop share by reason and the share of kept events whose variant was
/// merged into another base syscall.
fn properties(traces: &[&Trace], bytes: u64) -> String {
    let metrics = std::sync::Arc::new(PipelineMetrics::default());
    let mut pids = BTreeSet::new();
    let mut events = 0u64;
    for trace in traces {
        let _ = Analyzer::new(mount_filter())
            .with_metrics(std::sync::Arc::clone(&metrics))
            .analyze(trace);
        pids.extend(trace.iter().map(|e| e.pid));
        events += trace.len() as u64;
    }
    let snap = metrics.snapshot();
    let dropped: u64 = snap.filter_dropped.values().sum();
    let mut drops = String::new();
    for reason in iocov::DropReason::ALL {
        let n = snap.filter_dropped.get(reason.name()).copied().unwrap_or(0);
        let _ = write!(
            drops,
            "{}\"{}\": {}",
            sep(&drops),
            reason.name(),
            share(n, events)
        );
    }
    format!(
        "{{\"events\": {events}, \"bytes\": {bytes}, \"pids\": {}, \"drop_share\": {}, \
         \"drop_share_by_reason\": {{{drops}}}, \"variant_merged_share\": {}}}",
        pids.len(),
        share(dropped, events),
        share(snap.variant_merged, events - dropped),
    )
}

fn sep(s: &str) -> &'static str {
    if s.is_empty() {
        ""
    } else {
        ", "
    }
}

fn share(n: u64, of: u64) -> f64 {
    if of == 0 {
        0.0
    } else {
        n as f64 / of as f64
    }
}

fn gen(workload: &str, seed: u64, scale: f64, dir: &Path, reference: bool) -> Result<(), String> {
    let start = Instant::now();
    let corpus = generate(workload, seed, scale, dir)?;
    let setup_s = start.elapsed().as_secs_f64();
    if !reference {
        println!("{{\"setup_s\": {setup_s}}}");
        return Ok(());
    }
    let iocov = mount_iocov();
    let mut merged = AnalysisReport::default();
    for (name, trace) in &corpus.traces {
        let report = iocov.analyze(trace);
        merged.merge(&report);
        if corpus.traces.len() > 1 {
            write_report(&dir.join(format!("reference_{name}.json")), &report)?;
        }
    }
    write_report(&dir.join("reference.json"), &merged)?;
    let traces: Vec<&Trace> = corpus.traces.iter().map(|(_, t)| t).collect();
    let bytes = corpus.files.iter().map(|f| file_len(f)).sum();
    println!(
        "{{\"setup_s\": {setup_s}, \"events\": {}, \"tcd\": {}, \"corpus\": {}}}",
        traces.iter().map(|t| t.len()).sum::<usize>(),
        iocov::campaign_tcd(&merged, TARGET),
        properties(&traces, bytes),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage launcher declares the 64-bit Linux `struct rusage` layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn seconds(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 / 1e6
}

fn exec(out: &str, program: &str, args: &[String]) -> Result<(), String> {
    let stdout = if out == "-" {
        std::process::Stdio::null()
    } else {
        File::create(out).map_err(io_err("create output"))?.into()
    };
    let start = Instant::now();
    let status = std::process::Command::new(program)
        .args(args)
        .stdout(stdout)
        .status()
        .map_err(io_err("spawn"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and getrusage writes nothing beyond it.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    println!(
        "{{\"code\": {}, \"wall_s\": {wall_s}, \"cpu_s\": {}, \"rss_mb\": {}}}",
        status.code().unwrap_or(-1),
        seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
        usage.ru_maxrss as f64 / 1024.0,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Serve feeder and campaign referee
// ---------------------------------------------------------------------------

fn feed(socket: &str, streams: &[String]) -> Result<(), String> {
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|spec| {
                scope.spawn(move || {
                    let (name, file) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("stream spec {spec:?} is not NAME=FILE"))?;
                    let cfg = iocov::FeedConfig {
                        socket: PathBuf::from(socket),
                        stream: name.to_owned(),
                        trace: file.to_owned(),
                        format: SourceFormat::Iotb,
                        chunk: FEED_CHUNK,
                        abort: None,
                        stall: None,
                    };
                    let outcome = iocov::run_feed(&cfg).map_err(|e| format!("feed {name}: {e}"))?;
                    match outcome.rejected {
                        Some(reason) => Err(format!("stream {name} rejected: {reason}")),
                        None => Ok(outcome.sent_bytes),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("feeder thread does not panic"))
            .collect::<Vec<_>>()
    });
    let mut sent = 0u64;
    for outcome in outcomes {
        sent += outcome?;
    }
    println!("{{\"sent_bytes\": {sent}}}");
    Ok(())
}

fn load_report(path: &str) -> Result<AnalysisReport, String> {
    let text = std::fs::read_to_string(path).map_err(io_err("read report"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse report {path}: {e}"))
}

/// Writes the report a campaign summary must carry — the seed report
/// merged with the analysis of the campaign's syzlang log — to `out`.
fn campaign_reference(seed_report: &str, log: &str, out: &str) -> Result<(), String> {
    let mut expected = load_report(seed_report)?;
    let log_text = std::fs::read_to_string(log).map_err(io_err("read log"))?;
    let trace = iocov::syzlang::parse_to_trace(&log_text).map_err(|e| e.to_string())?;
    expected.merge(&mount_iocov().analyze(&trace));
    write_report(Path::new(out), &expected)?;
    println!(
        "{{\"events\": {}, \"corpus\": {}}}",
        trace.len(),
        properties(&[&trace], log_text.len() as u64)
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// One span: a layer call timed from outside.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// Spans kept in memory, written out once at the end of the run. Both
/// vectors are preallocated so recording a span never allocates inside
/// another span's count.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(MAX_SPANS),
            open: Vec::with_capacity(MAX_SPANS),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run fits u64 ns")
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        assert!(id < MAX_SPANS, "span capacity exceeded");
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
            allocs: iocov_bench::alloc_calls(),
            child_ns: 0,
            child_allocs: 0,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = iocov_bench::alloc_calls() - span.allocs;
        let (ns, allocs, parent) = (end - span.start_ns, span.allocs, span.parent);
        if let Some(p) = parent {
            self.spans[p].child_ns += ns;
            self.spans[p].child_allocs += allocs;
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time and self allocations summed over every span `name`.
    fn self_cost(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ns, allocs), s| {
                (
                    ns + (s.end_ns - s.start_ns - s.child_ns) as f64,
                    allocs + s.allocs - s.child_allocs,
                )
            })
    }

    /// Median self time (ns) over the spans named `name`.
    fn median_ns(&self, name: &str) -> f64 {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns - s.child_ns)
            .collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0) as f64
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"allocs\": {}, \"self_allocs\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.end_ns - s.start_ns - s.child_ns,
                s.allocs,
                s.allocs - s.child_allocs,
                if i + 1 == self.spans.len() { "" } else { "," },
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(io_err("write spans"))
    }
}

/// Decodes one file through `open_source`/`next_batch`, serially.
fn decode(path: &Path, format: SourceFormat) -> Result<(Vec<EventBatch>, SourcePos), String> {
    let options = SourceOptions {
        format: Some(format),
        ..SourceOptions::default()
    };
    let path = path.to_str().ok_or("non-UTF-8 corpus path")?;
    let mut source = open_source(path, options).map_err(|e| e.to_string())?;
    let mut batches = Vec::new();
    loop {
        let batch = source.next_batch(BATCH).map_err(|e| e.to_string())?;
        if batch.is_empty() {
            break;
        }
        batches.push(batch);
    }
    Ok((batches, source.position()))
}

fn session_pass(batches: Vec<EventBatch>, jobs: usize) -> AnalysisReport {
    let mut session = PipelineBuilder::new(mount_filter())
        .mount(Some(MOUNT.to_owned()))
        .jobs(jobs)
        .build_session();
    for batch in batches {
        session.feed(batch);
    }
    let (report, failures) = session.finish();
    assert!(
        failures.is_empty(),
        "a fault-free session reported failures"
    );
    report
}

/// The corpus files the traced run replays, and the container the
/// workload's end-to-end path reads.
fn layer_corpus(workload: &str, dir: &Path) -> Result<(Vec<PathBuf>, SourceFormat), String> {
    Ok(match workload {
        "xfstests-iotb" => (vec![dir.join("corpus.iotb")], SourceFormat::Iotb),
        "fleet-jsonl" => (vec![dir.join("corpus.jsonl")], SourceFormat::Jsonl),
        "serve-2stream" => (
            vec![dir.join("a.iotb"), dir.join("b.iotb")],
            SourceFormat::Iotb,
        ),
        "feedback-campaign" => {
            // The campaign's own events, recovered from its syzlang log.
            let log = std::fs::read_to_string(dir.join("campaign.log"))
                .map_err(io_err("read campaign log"))?;
            let trace = iocov::syzlang::parse_to_trace(&log).map_err(|e| e.to_string())?;
            let path = dir.join("campaign.iotb");
            write_iotb(&path, &trace)?;
            (vec![path], SourceFormat::Iotb)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The traced run. `e2e_wall_s`, `e2e_events` and `rounds` describe one
/// untraced end-to-end operation of the same workload, so the ledger
/// can attribute its wall time to layers and report the residual.
fn layers(
    workload: &str,
    seed: u64,
    scale: f64,
    dir: &Path,
    e2e_wall_s: f64,
    e2e_events: u64,
    rounds: u64,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let root = t.enter("bench.traced_run");
    let (files, native) = layer_corpus(workload, dir)?;

    // Both containers are decoded for every workload; the copy in the
    // other container is written untraced.
    let other = match native {
        SourceFormat::Iotb => SourceFormat::Jsonl,
        SourceFormat::Jsonl => SourceFormat::Iotb,
    };
    let mut copies = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let (batches, _) = decode(file, native)?;
        let events: Vec<TraceEvent> = batches.iter().flat_map(EventBatch::to_events).collect();
        let trace = Trace::from_events(events);
        let copy = dir.join(format!("layer_copy_{i}.{}", other.name()));
        match other {
            SourceFormat::Iotb => write_iotb(&copy, &trace)?,
            SourceFormat::Jsonl => write_jsonl(&copy, &trace)?,
        }
        copies.push(copy);
    }

    let source_span = |f: SourceFormat| match f {
        SourceFormat::Iotb => "trace.source.iotb",
        SourceFormat::Jsonl => "trace.source.jsonl",
    };
    let mut streams = Vec::new();
    let mut native_bytes = 0u64;
    for file in &files {
        let decoded = t.span(source_span(native), || decode(file, native))?;
        native_bytes += file_len(file);
        streams.push(decoded);
    }
    for copy in &copies {
        let (batches, _) = t.span(source_span(other), || decode(copy, other))?;
        drop(batches);
    }
    let events: u64 = streams
        .iter()
        .flat_map(|(b, _)| b.iter())
        .map(|b| b.len() as u64)
        .sum();

    // Owned traces for the per-stage functions, which take `&Trace`.
    let traces: Vec<Trace> = t.span("bench.materialize", || {
        streams
            .iter()
            .map(|(b, _)| Trace::from_events(b.iter().flat_map(EventBatch::to_events).collect()))
            .collect()
    });

    let filter = mount_filter();
    let kept: Vec<Trace> = t.span("core.filter", || {
        traces.iter().map(|tr| filter.apply(tr).0).collect()
    });
    let kept_events: u64 = kept.iter().map(|k| k.len() as u64).sum();
    t.span("core.variants", || {
        for k in &kept {
            for e in k.iter() {
                std::hint::black_box(iocov::normalize(e));
            }
        }
    });
    let stream_reports: Vec<AnalysisReport> = t.span("core.analyzer", || {
        kept.iter()
            .map(|k| Analyzer::new(mount_filter()).analyze(k))
            .collect()
    });

    // Engines: the resident session at jobs 1 and the pid-sharded pool
    // at jobs 2, one session per stream as `serve` runs them.
    let mut docs = Vec::new();
    for (batches, pos) in &streams {
        let input = batches.clone();
        t.span("core.session", || session_pass(input, 1));
        // The checkpoint a stream's session cuts at its end.
        let mut session = PipelineBuilder::new(mount_filter())
            .mount(Some(MOUNT.to_owned()))
            .build_session();
        for batch in batches.iter().cloned() {
            session.feed(batch);
        }
        docs.push(session.checkpoint_doc(pos));
        let _ = session.finish();
    }
    for (batches, _) in &streams {
        let input = batches.clone();
        t.span("core.parallel", || session_pass(input, 2));
    }
    let mut shard_events = [0u64; 2];
    for trace in &traces {
        for e in trace.iter() {
            shard_events[e.pid as usize % 2] += 1;
        }
    }
    let shard_skew = shard_events[0].max(shard_events[1]) as f64
        / (shard_events[0] + shard_events[1]).max(1) as f64
        * 2.0;

    // Report merge: the pid-parity shard reports of every stream, as the
    // pool's finish and serve's merged snapshot combine them.
    let mut parts = Vec::new();
    for k in &kept {
        for shard in 0..2u32 {
            let events: Vec<TraceEvent> =
                k.iter().filter(|e| e.pid % 2 == shard).cloned().collect();
            parts.push(Analyzer::new(mount_filter()).analyze(&Trace::from_events(events)));
        }
    }
    let mut merged = AnalysisReport::default();
    for _ in 0..SMALL_REPEATS {
        let input = parts.clone();
        merged = t.span("core.report.merge", || {
            let mut merged = AnalysisReport::default();
            for part in &input {
                merged.merge(part);
            }
            merged
        });
    }
    let mut whole = AnalysisReport::default();
    for r in &stream_reports {
        whole.merge(r);
    }
    if serde_json::to_string(&merged).ok() != serde_json::to_string(&whole).ok() {
        return Err("shard-merged report differs from the whole-stream report".to_owned());
    }
    let mut render_bytes = 0usize;
    for _ in 0..SMALL_REPEATS {
        let text = t.span("core.report.render", || {
            serde_json::to_string_pretty(&merged)
        });
        render_bytes = text.map_err(|e| e.to_string())?.len() + 1;
    }

    // Checkpoint encode and durable write of the largest stream's doc.
    let doc = docs
        .iter()
        .max_by_key(|d| d.cursor.events)
        .ok_or("no streams")?;
    let mut ckpt_bytes = 0usize;
    for _ in 0..SMALL_REPEATS {
        let bytes = t.span("core.checkpoint.encode", || iocov::encode_checkpoint(doc));
        ckpt_bytes = bytes.map_err(io_err("encode checkpoint"))?.len();
    }
    let ckpt_path = dir.join("layer.iockpt");
    for _ in 0..SMALL_REPEATS {
        t.span("core.checkpoint.write", || {
            iocov::write_checkpoint(&ckpt_path, doc)
        })
        .map_err(io_err("write checkpoint"))?;
    }

    // Frame codec over the native corpus bytes in feed-sized frames.
    let mut frame_bytes = 0u64;
    for file in &files {
        let data = std::fs::read(file).map_err(io_err("read corpus"))?;
        let ok = t.span("core.distribute.frame", || {
            let mut wire = Vec::with_capacity(data.len() + data.len() / FEED_CHUNK * 17 + 17);
            for chunk in data.chunks(FEED_CHUNK) {
                iocov::distribute::write_frame(&mut wire, b'D', chunk).ok()?;
            }
            let mut reader = wire.as_slice();
            let mut back = 0usize;
            while let Some(frame) = iocov::distribute::read_frame(&mut reader).ok()? {
                back += frame.payload.len();
            }
            Some(back == data.len())
        });
        if ok != Some(true) {
            return Err("frame round trip lost bytes".to_owned());
        }
        frame_bytes += data.len() as u64;
    }

    for _ in 0..SMALL_REPEATS {
        std::hint::black_box(t.span("core.cold.extract", || iocov::extract_cold(&merged, TARGET)));
    }

    // The kernel layer: the VFS plus recorder executing the workload's
    // xfstests generation, one `run_range` chunk per span.
    let env = TestEnv::new();
    let mut kernel = env.fresh_kernel();
    let sim = XfstestsSim::new(seed, scale);
    let total = sim.total_tests();
    let mut calls = 0u64;
    for start in (0..total).step_by(CHUNK_TESTS) {
        let n = t.span("syscalls.kernel", || {
            let _ = sim.run_range(&mut kernel, start..(start + CHUNK_TESTS).min(total));
            env.take_trace().len()
        });
        calls += n as u64;
    }
    t.exit(root);

    // ---- metrics ----
    let per = |(ns, allocs): (f64, u64), n: u64| {
        (
            ns / n.max(1) as f64,
            allocs as f64 / n.max(1) as f64,
            allocs,
        )
    };
    let (iotb_ns, iotb_ap, iotb_a) = per(t.self_cost("trace.source.iotb"), events);
    let (jsonl_ns, jsonl_ap, jsonl_a) = per(t.self_cost("trace.source.jsonl"), events);
    let (filter_ns, _, _) = per(t.self_cost("core.filter"), events);
    let variants = t.self_cost("core.variants");
    let analyzer = t.self_cost("core.analyzer");
    let (var_ns, var_ap, var_a) = per(variants, kept_events);
    let coverage = (
        analyzer.0 - variants.0,
        analyzer.1.saturating_sub(variants.1),
    );
    let (cov_ns, cov_ap, cov_a) = per(coverage, kept_events);
    let (session_ns, _, _) = per(t.self_cost("core.session"), events);
    let (parallel_ns, _, _) = per(t.self_cost("core.parallel"), events);
    let (kernel_ns, kernel_ap, kernel_a) = per(t.self_cost("syscalls.kernel"), calls);
    let encode_us = t.median_ns("core.checkpoint.encode") / 1e3;
    let write_us = (t.median_ns("core.checkpoint.write") / 1e3 - encode_us).max(0.0);
    let merge_us = t.median_ns("core.report.merge") / 1e3;
    let render_us = t.median_ns("core.report.render") / 1e3;
    let extract_us = t.median_ns("core.cold.extract") / 1e3;
    let frame_ns = t.self_cost("core.distribute.frame").0 / frame_bytes.max(1) as f64;

    // Wall time of one end-to-end operation the layers account for.
    let e2e = e2e_events as f64;
    let accounted_ns = match workload {
        "xfstests-iotb" => e2e * (iotb_ns + session_ns) + render_us * 1e3,
        "fleet-jsonl" => e2e * (jsonl_ns + parallel_ns) + render_us * 1e3,
        "serve-2stream" => {
            let checkpoints: u64 = streams
                .iter()
                .map(|(b, _)| {
                    let n: u64 = b.iter().map(|x| x.len() as u64).sum();
                    n.div_ceil(SERVE_CHECKPOINT_EVERY)
                })
                .sum();
            e2e * (iotb_ns + session_ns)
                + native_bytes as f64 * frame_ns
                + checkpoints as f64
                    * (encode_us + write_us + merge_us + render_us + write_us)
                    * 1e3
        }
        _ => e2e * (kernel_ns + session_ns) + rounds as f64 * extract_us * 1e3 + render_us * 1e3,
    };
    let traced_wall_ns = (t.spans[root].end_ns - t.spans[root].start_ns) as f64;
    t.write(&dir.join("spans.json"))?;

    let metrics: BTreeMap<&str, f64> = [
        ("trace.source.iotb.ns_per_event", iotb_ns),
        ("trace.source.iotb.allocs_per_event", iotb_ap),
        ("trace.source.iotb.allocs", iotb_a as f64),
        ("trace.source.jsonl.ns_per_event", jsonl_ns),
        ("trace.source.jsonl.allocs_per_event", jsonl_ap),
        ("trace.source.jsonl.allocs", jsonl_a as f64),
        ("core.filter.ns_per_event", filter_ns),
        ("core.filter.keep_ratio", share(kept_events, events)),
        ("core.variants.ns_per_event", var_ns),
        ("core.variants.allocs_per_event", var_ap),
        ("core.variants.allocs", var_a as f64),
        ("core.coverage.ns_per_event", cov_ns),
        ("core.coverage.allocs_per_event", cov_ap),
        ("core.coverage.allocs", cov_a as f64),
        ("core.session.ns_per_event", session_ns),
        ("core.parallel.ns_per_event", parallel_ns),
        ("core.parallel.shard_skew", shard_skew),
        ("core.checkpoint.encode_us", encode_us),
        ("core.checkpoint.write_us", write_us),
        ("core.checkpoint.bytes", ckpt_bytes as f64),
        ("core.report.merge_us", merge_us),
        ("core.report.render_us", render_us),
        ("core.report.bytes", render_bytes as f64),
        ("core.distribute.frame_ns_per_byte", frame_ns),
        ("syscalls.kernel.ns_per_call", kernel_ns),
        ("syscalls.kernel.allocs_per_call", kernel_ap),
        ("syscalls.kernel.allocs", kernel_a as f64),
        ("core.cold.extract_us", extract_us),
        ("residual_s", e2e_wall_s - accounted_ns / 1e9),
        ("trace_overhead_ratio", traced_wall_ns / 1e9 / e2e_wall_s),
    ]
    .into_iter()
    .collect();
    let mut out = String::new();
    for (name, value) in &metrics {
        let _ = write!(out, "{}\"{name}\": {value}", sep(&out));
    }
    println!(
        "{{\"metrics\": {{{out}}}, \"events\": {events}, \"kept\": {kept_events}, \
         \"kernel_calls\": {calls}, \"spans\": {}}}",
        t.spans.len()
    );
    Ok(())
}
