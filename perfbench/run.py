#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Velodrome checker.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run every
workload untraced and traced in turn. The benchmark builds the `velodrome`
CLI and this package (into $CARGO_TARGET_DIR, default `.bench_build`),
writes the workload's inputs from the seed with the repository's own
generators and encoders, and checks every verdict the checker prints
against references that share no code with the engine. It writes only
below `.bench_work/` and the target directory.

--trace 0 times the user-facing entry points (`velodrome trace FILE`,
`velodrome check-batch DIR --jobs=nproc`), each call a fresh process, for
S seconds after one warm-up call, and reports the end-to-end metrics.
Each timed call and set-up sits between two runs of `perfbench-calib`,
a fixed unit of work; its time is scaled by how fast that work ran around
it, so that neighbours slowing a shared host do not read as the checker
slowing (see perfbench/README.md, "Noise").
--trace 1 runs `perfbench-layers`, which times every layer's public
function from outside, one span per call, and adds the per-layer metrics
that need the CLI as a separate process (batch speed-up, telemetry
overhead, tracing overhead).

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 1 if any trace failed its check, 2 if the benchmark
could not run at all (nothing is printed on stdout then).
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
# Set-up is repeated at least this many times per run, and until it has
# taken SETUP_SECONDS. Its time is the median. Its peak RSS is the lowest
# reading: glibc's dynamic mmap threshold, steered by the randomly seeded
# order of Rust's hash maps, adds about 0.75 MB to some readings at random,
# which on the corpus's 5 MB set-up is a second mode.
SETUP_REPS = 3
SETUP_SECONDS = 3
# Fewest timed CLI calls per untraced run, however short --seconds is.
MIN_CALLS = 5
# Alternating pairs of CLI calls behind each ratio of the traced run.
PAIRS = 3
CALL_TIMEOUT_S = 170
WARNING_LINE = re.compile(r"^\[[^\]]+\] \S+ warning at op \d+: (.*)$")
ANALYZED_LINE = re.compile(r"^\((\d+) events analyzed\)$")


# One finished command: wall seconds, peak RSS in MB, exit status, stdout.
Call = namedtuple("Call", "wall rss status stdout")


class BenchError(Exception):
    """The benchmark cannot run (build, set-up or usage failure)."""


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"reading BENCHMARK.json: {e}") from e


def nproc():
    return len(os.sched_getaffinity(0))


def provenance():
    """The git revision when the root is a git checkout, and a digest of
    the sources."""
    try:
        top, rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
        rev = rev if Path(top).resolve() == ROOT.resolve() else "none"
    except (OSError, ValueError, subprocess.CalledProcessError):
        rev = "none"
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        for path in sorted((ROOT / top).rglob("*")) if (ROOT / top).is_dir() else [ROOT / top]:
            if path.is_file() and "target" not in path.relative_to(ROOT).parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def build():
    """Builds the CLI and this package; returns the release directory."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "velodrome-cli", "--bin", "velodrome"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release"


class Bench:
    def __init__(self, bins, workload, seed):
        self.bins = bins
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs = self.dir / "inputs"
        self.batch = workload == "corpus-batch"
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.ledger = None
        self.calls = None
        self.speed = None

    # -- processes ---------------------------------------------------------

    def exec(self, cmd):
        """Runs `cmd` under perfbench-exec; returns its `Call`."""
        # A session of its own, so a timeout can stop the launcher and the
        # command it started together.
        p = subprocess.Popen(
            [str(self.bins / "perfbench-exec"), *map(str, cmd)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = p.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise BenchError(f"timed out: {cmd}") from e
        last = stderr.strip().splitlines()[-1:] or [""]
        m = re.fullmatch(r"perfbench-exec wall_ns=(\d+) max_rss_kb=(\d+) status=(-?\d+)", last[0])
        if not m:
            raise BenchError(f"could not run {cmd}: {stderr.strip()}")
        wall_ns, rss_kb, status = map(int, m.groups())
        return Call(wall_ns / 1e9, rss_kb * 1024 / 1e6, status, stdout)

    def host_speed(self):
        """Times the fixed calibration work once: the host's speed right now
        as nominal time over measured time (1.0 on a quiet host, about 0.5
        when neighbours halve it)."""
        p = subprocess.run([str(self.bins / "perfbench-calib")], capture_output=True, text=True,
                           timeout=CALL_TIMEOUT_S)
        m = re.fullmatch(r"perfbench-calib ns=(\d+) nominal_ns=(\d+) checksum=\d+", p.stdout.strip())
        if p.returncode != 0 or not m:
            raise BenchError(f"calibration failed: {p.stderr.strip()}")
        ns, nominal = map(int, m.groups())
        return nominal / ns

    def timed(self, run):
        """Runs `run()` between two readings of the host's speed; returns
        its `Call` and the call's wall time scaled to nominal speed by the
        mean of the reading before and after it (the one after becomes the
        next call's one before)."""
        before = self.speed if self.speed is not None else self.host_speed()
        call = run()
        self.speed = self.host_speed()
        return call, call.wall * (before + self.speed) / 2

    def setup(self):
        call = self.exec(
            [self.bins / "perfbench-gen", "inputs", "--workload", self.workload,
             "--seed", self.seed, "--dir", self.dir]
        )
        if call.status != 0:
            raise BenchError(f"set-up failed for {self.workload}")
        return call

    def load_references(self):
        """Reads the manifest and the references perfbench-gen wrote."""
        self.files = []
        for line in (self.dir / "manifest.tsv").read_text().splitlines():
            name, events, size, _ = line.split("\t")
            self.files.append((name, int(events), int(size)))
        self.events = sum(e for _, e, _ in self.files)
        self.reference = json.loads((self.dir / "reference.json").read_text())

    # -- checks ------------------------------------------------------------

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(note)

    def holds(self, name, messages):
        ref = self.reference[name]
        labels = []
        for m in messages:
            if " is not atomic: " not in m:
                return False
            labels.append(m.split(" is not atomic: ", 1)[0])
        if ref["kind"] == "no_warnings":
            return not labels
        if ref["kind"] == "blame_within":
            return all(label in ref["labels"] for label in labels)
        return (not labels) == ref["serializable"]

    def check_trace_output(self, status, out):
        name, events, _ = self.files[0]
        messages = []
        analyzed = None
        for line in out.splitlines():
            if m := WARNING_LINE.match(line):
                messages.append(m.group(1))
            elif m := ANALYZED_LINE.match(line):
                analyzed = int(m.group(1))
        self.check(
            status == 0 and analyzed == events and self.holds(name, messages),
            f"{name}: exit {status}, {analyzed} of {events} events, {len(messages)} warnings "
            f"blaming {sorted({m.split(' is not atomic: ')[0] for m in messages})}",
        )

    def check_report(self, status, report):
        """Checks a check-batch JSONL report; returns (per-trace millis,
        summary) of the traces it lists."""
        by_name = {}
        summary = {}
        if status == 0 and report.exists():
            for line in report.read_text().splitlines():
                row = json.loads(line)
                if "summary" in row:
                    summary = row["summary"]
                else:
                    by_name[Path(row["path"]).name] = row
        millis = []
        for name, events, _ in self.files:
            row = by_name.get(name, {})
            messages = [w["message"] for w in row.get("warnings", [])]
            ok = row.get("status") == "ok" and row.get("events") == events
            self.check(ok and self.holds(name, messages), f"{name}: {str(row)[:200]}")
            millis.append(row.get("millis", 0))
        return millis, summary

    # -- CLI calls ---------------------------------------------------------

    def cli(self, extra=(), jobs=None):
        """One checked CLI call on the workload's inputs; returns its `Call`."""
        velodrome = self.bins / "velodrome"
        if self.batch or jobs is not None:
            report = self.dir / "report.jsonl"
            report.unlink(missing_ok=True)
            cmd = [velodrome, "check-batch", self.inputs, f"--jobs={jobs or nproc()}",
                   f"--report={report}", *extra]
            call = self.exec(cmd)
            self.last_batch = self.check_report(call.status, report)
        else:
            cmd = [velodrome, "trace", self.inputs / self.files[0][0], *extra]
            call = self.exec(cmd)
            self.check_trace_output(call.status, call.stdout)
        return call

    # -- runs --------------------------------------------------------------

    def untraced(self, seconds):
        setups = []
        start = time.monotonic()
        while len(setups) < SETUP_REPS or time.monotonic() - start < SETUP_SECONDS:
            os.sync()  # the last set-up's files are written back untimed
            setups.append(self.timed(self.setup))
        self.reference_step()
        # Write back the inputs the set-up left dirty in the page cache now,
        # not while calls are timed.
        os.sync()
        self.cli()  # warm-up: binary and inputs in the page cache
        self.speed = None
        calls = []
        start = time.monotonic()
        while len(calls) < MIN_CALLS or time.monotonic() - start < seconds:
            calls.append(self.timed(self.cli))
        rates = [self.events / scaled for _, scaled in calls]
        wall_rates = [self.events / c.wall for c, _ in calls]
        self.calls = {
            "count": len(rates),
            "norm_events_per_s_quartiles": statistics.quantiles(rates, n=4),
            "wall_events_per_s_quartiles": statistics.quantiles(wall_rates, n=4),
            "wall_setup_s": statistics.median(c.wall for c, _ in setups),
        }
        return {
            "norm_events_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(c.rss for c, _ in calls),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "setup_peak_rss_mb": min(c.rss for c, _ in setups),
        }

    def reference_step(self):
        call = self.exec([self.bins / "perfbench-gen", "reference", "--dir", self.dir])
        if call.status != 0:
            raise BenchError(f"computing references for {self.workload} failed")
        self.load_references()

    def traced(self, seconds):
        p = subprocess.run(
            [str(self.bins / "perfbench-layers"), "--workload", self.workload, "--seed",
             str(self.seed), "--seconds", str(seconds), "--dir", str(self.dir)],
            capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
        )
        if p.returncode != 0:
            raise BenchError(f"traced run failed: {p.stderr.strip()}")
        layers = json.loads(p.stdout.strip().splitlines()[-1])
        self.attempted += layers["attempted"]
        self.failed += layers["failed"]
        self.notes += layers["notes"]
        self.load_references()
        self.cli()  # warm-up

        # Telemetry overhead: the same call with and without --metrics-out.
        plain, metered = [], []
        for _ in range(PAIRS):
            plain.append(self.cli().wall)
            metered.append(self.cli([f"--metrics-out={self.dir / 'metrics.jsonl'}"]).wall)

        # Batch parallelism at one format: --jobs=1 against --jobs=nproc.
        serial, parallel, busy, millis = [], [], [], []
        for _ in range(PAIRS):
            serial.append(self.cli(jobs=1).wall)
            parallel.append(self.cli(jobs=nproc()).wall)
            trace_ms, summary = self.last_batch
            millis += trace_ms
            wall_ms = max(summary.get("wall_millis", 0), 1)
            busy.append(sum(trace_ms) / (wall_ms * nproc()))
        p50, p90 = (statistics.quantiles(millis, n=10)[i] for i in (4, 8)) if len(millis) > 1 else (millis[0],) * 2

        # The traced CLI entry ran in-process under the counting allocator;
        # its untraced twin is the fresh-process call of the same command.
        untraced_ms = statistics.median(serial if self.batch else plain) * 1e3
        metrics = dict(layers["metrics"])
        metrics.update({
            "cli.batch.speedup": statistics.median(serial) / statistics.median(parallel),
            "cli.batch.worker_busy_ratio": statistics.median(busy),
            "cli.batch.trace_ms_p50": p50,
            "cli.batch.trace_ms_p90": p90,
            "telemetry.overhead_ratio": statistics.median(metered) / statistics.median(plain),
            "bench.trace.overhead_ratio": layers["cli_traced_ms"] / untraced_ms,
        })
        self.ledger = {k: layers[k] for k in ["iterations", "spans", "traced_ms", "unattributed_ms", "wall_ms", "self_ms"]}
        return metrics


def run_one(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; want one of {names} or all")
    rev, digest = provenance()
    bins = build()
    bench = Bench(bins, args.workload, args.seed)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = bench.traced(args.seconds) if args.trace else bench.untraced(args.seconds)
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError(f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in wanted})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "git_rev": rev, "source_digest": digest, "events": bench.events,
        "traces": len(bench.files), "fail_ratio": bench.failed / bench.attempted,
        "notes": bench.notes, "ledger": bench.ledger, "calls": bench.calls,
    }
    (bench.dir / f"result-trace{args.trace}.json").write_text(json.dumps({**meta, **result}, indent=1))
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} nproc={meta['nproc']} "
          f"git_rev={rev} source={digest} traces={meta['traces']} events={bench.events}")
    for name, m in metrics.items():
        print(f"#   {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"#   fail_ratio {meta['fail_ratio']:.6g} ({bench.failed} of {bench.attempted} checks failed)")
    if bench.calls:
        q, w = bench.calls["norm_events_per_s_quartiles"], bench.calls["wall_events_per_s_quartiles"]
        print(f"#   {bench.calls['count']} timed calls; quartiles of norm_events_per_s {q[0]:.4g} / {q[1]:.4g} / "
              f"{q[2]:.4g}, of unscaled events per wall second {w[0]:.4g} / {w[1]:.4g} / {w[2]:.4g}; "
              f"unscaled setup_s {bench.calls['wall_setup_s']:.4g}")
    for note in bench.notes:
        print(f"#   FAILED: {note}")
    if meta["ledger"]:
        led = meta["ledger"]
        print(f"#   ledger: traced {led['traced_ms']:.3f} ms = layer self times + "
              f"{led['unattributed_ms']:.3f} ms unattributed ({led['iterations']} iterations, {led['spans']} spans)")
    print(json.dumps(result))
    return result


def run_all(spec, args):
    """Every workload, untraced then traced, each as its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(p.stdout.splitlines(keepends=True)[:-1]))
            if p.returncode not in (0, 1):
                raise BenchError(f"{w['name']} (trace {trace}) could not run")
            result = json.loads(p.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(combined))
    return combined


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = load_spec()
        result = run_all(spec, args) if args.workload == "all" else run_one(spec, args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
