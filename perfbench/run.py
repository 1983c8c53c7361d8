#!/usr/bin/env python3
"""IOCov benchmark: end-to-end throughput of the release `iocov` binary on
seeded workloads, with every output checked, and a traced per-layer ledger.
BENCHMARK.json names the workloads the benchmark runs; perfbench/workloads.json
defines those and two more that run by name.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The workloads, their input sizes and why each was chosen are in
perfbench/workloads.json. Each workload prints two lines on stdout: the run
record (workload, seed, input size, corpus properties, per-operation
samples), then one JSON object with `correct`, `attempted`, `failed` and
`metrics` (with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer ones), so for one workload the result is the last line. `all`
runs every workload of perfbench/workloads.json in turn. Build and progress
output goes to stderr.

The benchmark builds `iocov` (package iocov-cli) and its own helper
(perfbench/harness) into $CARGO_TARGET_DIR, default `.bench_build`, and
works in `.bench_work/<workload>`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
MOUNT = "/mnt/test"
# Set-ups per run; setup_s is their median.
SETUPS = 3
OP_TIMEOUT_S = 120
SOCKET_WAIT_S = 20


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    """One operation failed: nonzero exit, refused stream or wrong output."""


def load_workloads():
    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        return {w["name"]: w for w in json.load(f)["workloads"]}


def build(target_dir):
    """Builds the release `iocov` binary and the benchmark helper."""
    for missing in ("Cargo.toml", "crates", os.path.join(BENCH_DIR, "harness", "Cargo.toml")):
        if not os.path.exists(missing):
            raise SystemExit(f"perfbench: {missing} not found; run from the root of an IOCov checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "iocov-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "harness", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "iocov"), os.path.join(release, "iocov-perfbench")


# Processes started and not yet waited for. Each runs in its own process
# group, so killing the group also stops anything it started.
LIVE = set()


def spawn(argv, **kwargs):
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    LIVE.add(proc)
    return proc


def finish(proc, timeout=OP_TIMEOUT_S):
    """Waits for `proc` and returns its stdout; kills it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill(proc)
        raise Failure(f"{proc.args[0]} timed out after {timeout}s")
    LIVE.discard(proc)
    return out


def kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    LIVE.discard(proc)


def kill_all():
    for proc in list(LIVE):
        kill(proc)


def run_process(helper, argv, out="-"):
    """Runs one system-under-test process under the helper's launcher.

    Returns the launcher's record: exit code, wall seconds, user+sys CPU
    seconds and peak RSS MB of the process.
    """
    proc = spawn([helper, "exec", out] + argv, stdout=subprocess.PIPE)
    record = finish(proc)
    if proc.returncode != 0:
        raise Failure(f"launcher for {argv[0]} exited {proc.returncode}")
    return json.loads(record)


def helper_json(helper, args, timeout=OP_TIMEOUT_S):
    proc = spawn([helper] + args, stdout=subprocess.PIPE)
    out = finish(proc, timeout)
    if proc.returncode != 0:
        raise Failure(f"helper {args[0]} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Workload operations. Calling one runs one operation and returns a sample
# dict (wall_s, cpu_s, rss_mb, events); it raises Failure when the operation
# or its output check fails. verify() runs once after the window for checks
# too heavy to repeat per operation.
# ---------------------------------------------------------------------------


class Op:
    def verify(self):
        pass


class Analyze(Op):
    """One `iocov analyze --json` run over the corpus, checked against the
    in-process reference analysis of the same generated trace."""

    def __init__(self, spec, iocov, helper, work, ref):
        self.argv = [iocov, "analyze", os.path.join(work, spec["corpus"]), "--mount", MOUNT,
                     "--json"] + spec.get("extra_args", [])
        self.helper, self.work = helper, work
        self.reference = load_json(os.path.join(work, "reference.json"))
        self.events = ref["events"]

    def __call__(self):
        path = os.path.join(self.work, "out.json")
        run = run_process(self.helper, self.argv, out=path)
        if run["code"] != 0:
            raise Failure(f"analyze exited {run['code']}")
        report = load_json(path)
        if report.get("filter_stats", {}).get("total") != self.events:
            raise Failure("filter_stats.total differs from the corpus event count")
        if report != self.reference:
            raise Failure("analyze report differs from the reference analysis")
        return dict(run, events=self.events)


class Serve(Op):
    """`iocov serve --drain 2` fed two pid-disjoint streams at once by the
    helper over the unix socket; snapshot.json must equal the merge of the
    two reference reports and status.json must show both streams done
    without restarts."""

    def __init__(self, spec, iocov, helper, work, ref):
        self.iocov, self.helper, self.work = iocov, helper, work
        self.streams = spec["streams"]
        self.reference = load_json(os.path.join(work, "reference.json"))
        self.events = ref["events"]

    def __call__(self):
        state = os.path.join(self.work, "state")
        shutil.rmtree(state, ignore_errors=True)
        sock = os.path.join(self.work, "serve.sock")
        if os.path.exists(sock):
            os.unlink(sock)
        # Paths relative to the work dir keep the socket path short.
        argv = [self.iocov, "serve", "--state-dir", "state", "--socket", "serve.sock",
                "--mount", MOUNT, "--drain", str(len(self.streams))]
        start = time.perf_counter()
        server = spawn([self.helper, "exec", "-"] + argv, cwd=self.work,
                       stdout=subprocess.PIPE)
        feeder = None
        try:
            while not os.path.exists(sock):
                if server.poll() is not None:
                    raise Failure(f"serve exited {server.returncode} before listening")
                if time.perf_counter() - start > SOCKET_WAIT_S:
                    raise Failure("serve did not open its socket")
                time.sleep(0.0005)
            feeder = spawn(
                [self.helper, "feed", "serve.sock"] + [f"{n}={n}.iotb" for n in self.streams],
                cwd=self.work, stdout=subprocess.DEVNULL)
            run = json.loads(finish(server))
            finish(feeder)
            if feeder.returncode != 0:
                raise Failure("feeder failed")
        finally:
            for proc in (server, feeder):
                if proc is not None and proc.returncode is None:
                    kill(proc)
        if run["code"] != 0:
            raise Failure(f"serve exited {run['code']}")
        if load_json(os.path.join(state, "snapshot.json")) != self.reference:
            raise Failure("snapshot.json differs from the merged reference reports")
        rows = load_json(os.path.join(state, "status.json"))["streams"]
        if sorted(r["stream"] for r in rows) != sorted(self.streams) or any(
                r["state"] != "done" or r["restarts"] != 0 for r in rows):
            raise Failure(f"status.json is not all done without restarts: {rows}")
        return dict(run, events=self.events)


class Campaign(Op):
    """One `iocov generate --feedback` campaign. Campaigns are reproducible
    per seed, so every summary and log must repeat the first byte for byte;
    after the window, verify() checks that the first summary's report equals
    the seed report merged with the analysis of the campaign's own syzlang
    log."""

    def __init__(self, spec, iocov, helper, work, seed):
        self.helper, self.work = helper, work
        self.seed_report = os.path.join(work, "seed_report.json")
        self.argv = [iocov, "generate", "--feedback", self.seed_report, "--seed", str(seed),
                     "--json"] + spec["extra_args"]
        self.first = None
        self.summary = None
        self.corpus = None

    def __call__(self):
        log_path = os.path.join(self.work, "campaign.log")
        out_path = os.path.join(self.work, "summary.json")
        run = run_process(self.helper, self.argv + ["--log-out", log_path], out=out_path)
        if run["code"] != 0:
            raise Failure(f"generate exited {run['code']}")
        with open(out_path, "rb") as f:
            summary = f.read()
        with open(log_path, "rb") as f:
            outputs = (summary, f.read())
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            raise Failure("campaign is not reproducible for its seed")
        return dict(run, events=json.loads(summary)["total_events"])

    def verify(self):
        if self.first is None:
            return
        log_path = os.path.join(self.work, "campaign.log")
        with open(log_path, "wb") as f:
            f.write(self.first[1])
        summary = json.loads(self.first[0])
        expected = os.path.join(self.work, "expected_report.json")
        ref = helper_json(self.helper, ["campaign-reference", self.seed_report, log_path,
                                        expected])
        if load_json(expected) != summary["report"]:
            raise Failure("campaign report differs from seed report + analyzed log")
        self.summary = summary
        self.corpus = ref["corpus"]


# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def setup(helper, spec, seed, work, count):
    """Generates the corpus `count` times; returns (setup_s samples, the
    reference record of the last generation)."""
    times = []
    record = None
    for i in range(count):
        shutil.rmtree(work, ignore_errors=True)
        args = ["gen", spec["name"], str(seed), str(spec["scale"]), work]
        if i == count - 1:
            args.append("--reference")
        record = helper_json(helper, args)
        times.append(record["setup_s"])
    return times, record


def make_op(spec, iocov, helper, work, seed, ref):
    kind = spec["kind"]
    if kind == "analyze":
        return Analyze(spec, iocov, helper, work, ref)
    if kind == "serve":
        return Serve(spec, iocov, helper, work, ref)
    return Campaign(spec, iocov, helper, work, seed)


def measure(op, seconds):
    """Runs one untimed warm-up operation, then operations back to back for
    `seconds`; returns (samples, attempted, failed, window seconds). The
    warm-up's output is checked like any other, so it counts as attempted."""
    samples = []
    attempted = failed = 0

    def attempt():
        nonlocal attempted, failed
        attempted += 1
        try:
            return op()
        except (Failure, OSError, ValueError, KeyError) as e:
            failed += 1
            log(f"operation failed: {e}")
            return None

    attempt()
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        sample = attempt()
        if sample is not None:
            samples.append(sample)
        elif time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start
    try:
        op.verify()
    except (Failure, OSError, ValueError, KeyError) as e:
        # Every operation repeated the output that failed its check.
        log(f"output check failed: {e}")
        failed = attempted
    return samples, attempted, failed, window


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or `all`")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run at the workload's tiny self-test size")
    args = parser.parse_args()

    workloads = load_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            raise SystemExit(f"perfbench: unknown workload {name!r}; "
                             f"choose from {', '.join(workloads)} or all")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    iocov, helper = build(target_dir)
    for name in names:
        spec = dict(workloads[name])
        if args.tiny:
            spec.update(spec["tiny"], input=f"tiny self-test size {spec['tiny']}")
        run_workload(args, spec, iocov, helper)


def run_workload(args, spec, iocov, helper):
    """Sets up, measures and checks one workload; prints its record and
    result lines."""
    name = spec["name"]
    work = os.path.abspath(os.path.join(WORK_ROOT, name))
    seed = args.seed
    log(f"{name}: seed {seed}, scale {spec['scale']}, setting up")
    setups, ref = setup(helper, spec, seed, work, 1 if args.trace else SETUPS)
    op = make_op(spec, iocov, helper, work, seed, ref)

    log(f"{name}: measuring for {args.seconds}s")
    samples, attempted, failed, window = measure(op, args.seconds)

    corpus = ref["corpus"]
    final_tcd = ref["tcd"]
    rounds = 0
    if spec["kind"] == "campaign" and op.summary is not None:
        corpus = op.corpus
        final_tcd = op.summary["final_tcd"]
        rounds = len(op.summary["rounds"])

    record = {
        "workload": name,
        "seed": seed,
        "input": spec["input"],
        "scale": spec["scale"],
        "corpus": corpus,
        "setup_s_samples": setups,
        "window_s": window,
        "ops": len(samples),
        "op_wall_s": [s["wall_s"] for s in samples],
    }

    metrics = {}
    if samples and args.trace:
        wall = median([s["wall_s"] for s in samples])
        layers = helper_json(helper, ["layers", name, str(seed), str(spec["scale"]),
                                      work, repr(wall), str(samples[0]["events"]), str(rounds)])
        record["layer_run"] = {k: v for k, v in layers.items() if k != "metrics"}
        record["spans_file"] = os.path.join(WORK_ROOT, name, "spans.json")
        units = {m["name"]: m["unit"] for m in spec_metrics("per_layer")}
        metrics = {metric: {"value": layers["metrics"][metric], "unit": unit}
                   for metric, unit in units.items()}
    elif not args.trace:
        # Events over the summed wall time of the operations, not a median
        # of per-operation rates: host contention on a shared machine slows
        # operations by up to ~1.8x for seconds at a time, and a median of
        # such a mixture jumps between the modes. The sum leaves out the
        # benchmark's own work between operations.
        sut_wall = sum(s["wall_s"] for s in samples)
        metrics = {
            "events_per_s": sum(s["events"] for s in samples) / sut_wall if sut_wall else 0.0,
            "cpu_s": sum(s["cpu_s"] for s in samples) / max(len(samples), 1),
            "peak_rss_mb": median([s["rss_mb"] for s in samples]),
            "success_ratio": (attempted - failed) / attempted,
            "setup_s": median(setups),
            "final_tcd": final_tcd,
        }
        units = {m["name"]: m["unit"] for m in spec_metrics("end_to_end")}
        metrics = {metric: {"value": metrics[metric], "unit": unit}
                   for metric, unit in units.items()}

    cleanup(work)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and bool(samples), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def spec_metrics(kind):
    with open("BENCHMARK.json") as f:
        return json.load(f)[kind]


def cleanup(work):
    """Drops the corpus and outputs; keeps spans.json for inspection."""
    for entry in os.listdir(work):
        path = os.path.join(work, entry)
        if entry == "spans.json":
            continue
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.unlink(path)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        main()
    finally:
        kill_all()
