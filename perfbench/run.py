#!/usr/bin/env python3
"""Benchmark of tropfan's two pipelines, end to end and layer by layer.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --report K [--workload NAME ...] [--seconds S]
                           [--trace 0|1]

Workloads:
  fan-quadrics-full  `tropfan.cli.main` on the 5x20 quadrics matrix with
                     --dual and --output: the full fan, sequential
  disc-line-cubic    the README's library calls on the 4x13 line/cubic
                     matrix: `cli.parse_matrix`, `setup(A)`,
                     `random_vertices(prob, 100, seed)`, written in the
                     CLI's --random format

One run starts fresh child processes (perfbench/child.py) one at a time, a
closed loop with a single client, and checks every output against the pinned
results in gates.py.  A child that exits non-zero, times out or fails its
gate counts as a failed attempt.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 spawns untraced children until S seconds have passed (at least
one) and reports the end-to-end metrics of BENCHMARK.json, each the median
over the run's samples, with times at the reference speed (below):
  wall_s       spawn of a child to its exit
  items_per_s  fan-quadrics-full: maximal cones (475,722) per wall second;
               disc-line-cubic: vertices per second of `random_vertices`
  setup_s      fan-quadrics-full: the set-up a CLI invocation does before it
               enumerates, timed inside the measured child: importing
               tropfan, plus the median of several timings of parsing the
               matrix and building the dual matroid handle;
               disc-line-cubic: the time in `setup(A)`
  peak_rss_mb  the child's own peak RSS, which it reads (VmHWM) before it
               exits; ru_maxrss from os.wait4 would also count the pages
               this runner had when it forked the child

Times are reported at the host's reference speed.  On a shared host the
speed of a core drifts by up to a factor of two within minutes, and CPU time
drifts with it, so raw times of the same code spread past any useful bound.
While a child runs, a thread of this runner times a short fixed pure-Python
job like the program's own work (tuples, dicts, small and rational
arithmetic, sorting; see probe_job) every PROBE_PERIOD_S on the other core.
Each time a child reports is scaled by PROBE_REF_S over the mean probe time
during that interval (the child stamps its intervals with the system-wide
monotonic clock): it reads as the seconds the child would have taken on a
host where the probe takes PROBE_REF_S.  Every workload runs one sequential
child, so the probe shares no core with it.  Raw times go to standard error.

--trace 1 runs one traced child (see tracer.py) and reports the per-layer
metrics of BENCHMARK.json, plus the tracing overhead: the traced wall_s
minus the wall_s of one untraced child of the same seed, run after it in
the same invocation, both at the reference speed; span times are raw.  When
the time left cannot hold that second child, the overhead reads 0 and a
note says so.  One sample of each lies within the host's run-to-run noise,
so the overhead is a rough figure.  Layers a workload does not reach read 0.

--report K runs each named workload (default: all) K times as separate
invocations with seeds 1..K and prints, per metric, the median, quartiles
and IQR/median next to the metric's bound, plus error_rate, failed runs
over attempted runs.

Inputs come from tropfan.data.  The seed selects the discriminant
objectives; the fan inputs are deterministic.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

# Every run ends well inside the 180 s a benchmark invocation may take.
RUN_LIMIT_S = 170.0
# probe_job() on a 2-core Intel Xeon VM at its faster speed.
PROBE_REF_S = 0.0115
PROBE_PERIOD_S = 0.1
PROBE_MIN_SAMPLES = 5
QUADRICS_CONES = 475_722
DISC_VERTICES = 100


@dataclass(frozen=True)
class Workload:
    kind: str  # "fan" or "disc"
    matrix: str  # name in tropfan.data
    argv: tuple = ()  # CLI flags for fan workloads


WORKLOADS = {
    "fan-quadrics-full": Workload("fan", "TANGENT_QUADRICS_5X20", ("--dual",)),
    "disc-line-cubic": Workload("disc", "TANGENT_LINE_CUBIC_4X13"),
}


class RunFailed(Exception):
    """The run could not produce its metrics at all."""


@dataclass
class Child:
    wall_s: float
    reason: str | None  # None when the child passed its gate
    result: dict = field(default_factory=dict)
    output_bytes: int = 0
    started: float = 0.0  # monotonic time of the spawn
    # wall_s and the result's timings at the reference speed
    scaled: dict = field(default_factory=dict)


def probe_job():
    """Seconds this thread takes for a fixed job shaped like tropfan's work."""
    rng = random.Random(0)
    seen = {}
    total = Fraction(0)
    t0 = time.perf_counter()
    for i in range(2_000):
        key = tuple(rng.randrange(50) for _ in range(6))
        seen[key] = seen.get(key, 0) + 1
        if i % 10 == 0:
            total += Fraction(i % 97 + 1, i % 89 + 1)
    sorted(seen, key=lambda t: (sum(t), t))
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs probe_job every PROBE_PERIOD_S in a thread while in its block.

    Over 25 disc-line-cubic and 8 fan-quadrics-full children on a drifting
    2-core host, raw wall times spread by 0.39 and 0.25 of their median
    (IQR over median), and times scaled by the mean probe time during each
    child by 0.07 and 0.05.
    """

    def __init__(self):
        self.samples = []  # (monotonic time the job ended, its seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        # At least one sample, however short the block.
        while True:
            took = probe_job()
            self.samples.append((time.monotonic(), took))
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def scale(self, start, end):
        """Raw seconds in [start, end] to seconds at the reference speed.

        An interval holding fewer than PROBE_MIN_SAMPLES probes uses the
        PROBE_MIN_SAMPLES probes nearest its middle.
        """
        inside = [took for t, took in self.samples if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            middle = (start + end) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [took for _, took in near[:PROBE_MIN_SAMPLES]]
        return PROBE_REF_S / statistics.fmean(inside)


def _matrix(workload):
    from tropfan import data

    return getattr(data, workload.matrix)


def _write_matrix(path, A):
    lines = [f"{A.rows} {A.cols}"] + [" ".join(map(str, row)) for row in A.entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _gate(workload, output, seed, A):
    import gates

    if workload.kind == "disc":
        return gates.check_disc(output, seed, DISC_VERTICES, A.entries)
    return gates.check_fan_full(output)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TROPFAN_THREADS", None)  # every workload runs sequentially
    return env


def _kill_group(pid, fired):
    fired.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(spec, timeout):
    """Run child.py once; wall time, exit code and result file of that child."""
    errpath = Path(spec["result"] + ".err")
    fired = threading.Event()
    with open(errpath, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid, fired))
        timer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid, fired)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    child = Child(wall, None, started=t0)
    if fired.is_set():
        child.reason = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = errpath.read_text(errors="replace").strip().splitlines()[-1:]
        child.reason = f"exit code {proc.returncode}: {' '.join(tail)}"
    result = Path(spec["result"])
    if result.exists():
        child.result = json.loads(result.read_text())
    return child


class Run:
    """One benchmark invocation: its work directory, children and deadline."""

    def __init__(self, name, seed):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.start = time.monotonic()
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.A = _matrix(self.workload)
        self.matrix = self.dir / "input.txt"
        _write_matrix(self.matrix, self.A)
        self.children = []
        self.count = 0

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def _spec(self, kind, spans=False):
        self.count += 1
        tag = self.count
        return {
            "kind": kind,
            "matrix": str(self.matrix),
            "output": str(self.dir / f"out-{tag}.txt"),
            "result": str(self.dir / f"result-{tag}.json"),
            "argv": list(self.workload.argv),
            "count": DISC_VERTICES,
            "seed": self.seed,
            "spans": str(self.dir / f"spans-{tag}.json") if spans else None,
            "run_id": f"{self.name}-s{self.seed}-{os.getpid()}-{tag}",
        }

    def attempt(self, spans=False):
        """Run one workload child, gate its output, then delete the output."""
        spec = self._spec(self.workload.kind, spans)
        with SpeedProbe() as probe:
            child = spawn(spec, self.remaining())
        child.scaled["wall_s"] = child.wall_s * probe.scale(
            child.started, child.started + child.wall_s
        )
        for key, (start, end) in child.result.get("intervals", {}).items():
            child.scaled[key] = child.result[key] * probe.scale(start, end)
        output = Path(spec["output"])
        if child.reason is None:
            if output.exists():
                child.output_bytes = output.stat().st_size
                child.reason = _gate(self.workload, output, self.seed, self.A)
            else:
                child.reason = "no output file"
        output.unlink(missing_ok=True)
        self.children.append(child)
        status = "ok" if child.reason is None else f"FAILED: {child.reason}"
        print(
            f"[{self.name}] child {len(self.children)}: wall {child.wall_s:.3f} s, "
            f"at reference speed {child.scaled['wall_s']:.3f} s, peak RSS "
            f"{child.result.get('peak_rss_mb', 0.0):.1f} MB, {status}",
            file=sys.stderr,
        )
        return child, spec

    def passed(self):
        ok = [c for c in self.children if c.reason is None]
        return ok or self.children

    def summary(self, metrics):
        failed = sum(c.reason is not None for c in self.children)
        return {
            "correct": failed == 0,
            "attempted": len(self.children),
            "failed": failed,
            "metrics": metrics,
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _spec_metrics(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[key]}


def _with_units(values, key):
    spec = _spec_metrics(key)
    if set(values) != set(spec):
        raise RunFailed(f"metrics differ from BENCHMARK.json {key}: "
                        f"{sorted(set(values) ^ set(spec))}")
    return {name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec}


def measure(run, seconds):
    """Untraced children until `seconds` have passed; end-to-end metrics."""
    t0 = time.monotonic()
    while not run.children or time.monotonic() - t0 < seconds:
        run.attempt()
    ok = run.passed()
    walls = [c.scaled["wall_s"] for c in ok]
    try:
        setups = [c.scaled["setup_s"] for c in ok]
        rss = [c.result["peak_rss_mb"] for c in ok]
        if run.workload.kind == "fan":
            items = [QUADRICS_CONES / wall for wall in walls]
        else:
            items = [DISC_VERTICES / c.scaled["shoot_s"] for c in ok]
    except KeyError:
        raise RunFailed("no child reported its set-up timings") from None
    return _with_units(
        {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(items),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
        "end_to_end",
    )


def trace(run):
    """One traced child; per-layer metrics and the tracing overhead."""
    import tracer

    child, spec = run.attempt(spans=True)
    if not Path(spec["spans"]).exists():
        raise RunFailed(f"traced child wrote no spans: {child.reason}")
    with open(spec["spans"], encoding="utf-8") as fh:
        values = tracer.layer_metrics(json.load(fh))
    overhead = share = 0.0
    # The untraced child runs no longer than the traced one; keep a margin.
    traced = child.scaled["wall_s"]
    if run.remaining() > 1.25 * child.wall_s:
        reference = run.attempt()[0].scaled["wall_s"]
        overhead = traced - reference
        share = overhead / reference
        print(f"note: tracing overhead {overhead:+.3f} s is one traced against one "
              "untraced child of this seed; it lies within the host's run-to-run noise")
    else:
        print("note: no time left for an untraced reference child; overhead reads 0")
    values.update(
        {
            "cli.output_bytes": child.output_bytes,
            "trace.wall_s": traced,
            "trace.overhead_s": overhead,
            "trace.overhead_share": share,
        }
    )
    return _with_units(values, "per_layer")


def bench(name, seed, seconds, traced):
    run = Run(name, seed)
    try:
        metrics = trace(run) if traced else measure(run, seconds)
        return run.summary(metrics)
    finally:
        run.close()


def _quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def report(names, k, seconds, traced):
    """Run each workload k times (seeds 1..k) and print each metric's spread."""
    key = "per_layer" if traced else "end_to_end"
    spec = _spec_metrics(key)
    raw = {}
    for name in names:
        raw[name] = []
        for seed in range(1, k + 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit code {proc.returncode}, no result",
                      file=sys.stderr)
                raw[name].append(None)
                continue
            raw[name].append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: {lines[-1]}", file=sys.stderr)
    for name, results in raw.items():
        done = [r for r in results if r is not None]
        attempted = sum(r["attempted"] for r in done) + results.count(None)
        failed = sum(r["failed"] for r in done) + results.count(None)
        print(f"\n{name}: {len(done)} of {k} runs returned a result; "
              f"error_rate {failed}/{attempted} = {failed / max(attempted, 1):.3f}")
        print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for metric, info in spec.items():
            values = [r["metrics"][metric]["value"] for r in done]
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = info.get("bound")
            print(f"  {metric:44s} {info['unit']:6s} {med:12.4f} {q1:12.4f} "
                  f"{q3:12.4f} {spread:8.3f} {bound if bound is not None else '-':>6}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, metavar="K", default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tropfan" / "__init__.py").is_file():
        print(f"error: no tropfan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.report is not None:
        names = args.workload or list(WORKLOADS)
        report(names, args.report, args.seconds, bool(args.trace))
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    try:
        result = bench(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
