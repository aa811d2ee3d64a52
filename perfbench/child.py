"""One measured invocation of tropfan, run as a fresh process by run.py.

Usage: python child.py SPEC_JSON

SPEC_JSON keys:
  kind     "fan" calls `tropfan.cli.main(argv)`; "disc" makes the README's
           library calls (`cli.parse_matrix`, `setup`, `random_vertices`) and
           writes the CLI's `--random` output format
  matrix   input matrix file
  output   output file the program writes
  result   JSON file this process writes its own timings to
  argv     CLI flags after the matrix, for "fan"
  count, seed   vertex count and objective seed, for "disc"
  spans    file for the traced spans, or null for an untraced run
  run_id   identifier shared by this run's spans

The result JSON holds setup_s: for "disc" the time in `setup(A)`; for "fan"
the set-up a CLI invocation does before it enumerates, timed before any
tracer is installed: importing tropfan (once per process), plus the median
of SETUP_REPEATS timings of parsing the matrix and building the dual matroid
handle.  A "disc" result also holds shoot_s, the time in
`random_vertices`.  "intervals" maps each of these timings to the
[start, end] monotonic clock readings it was taken between; the clock is the
system's, so the runner can set them against its own readings.  Every
result holds peak_rss_mb, this process's own high-water RSS since it was
started.

The exit code is the CLI's, or 0 for a library run that returned.
"""

import json
import statistics
import sys
import time

SETUP_REPEATS = 7


def _write_vertices(path, vertices):
    with open(path, "w", encoding="utf-8") as out:
        if vertices:
            out.write("A-DEGREE " + " ".join(map(str, vertices[0].a_degree)) + "\n")
        else:
            out.write("A-DEGREE\n")
        for v in vertices:
            out.write(" ".join(map(str, v.u)) + "\n")


def _own_peak_rss_mb():
    """VmHWM of this process image.

    ru_maxrss (from wait4 in the runner, or getrusage here) also counts the
    pages the runner had when it forked this process, which exceed a small
    workload's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _fan_setup(matrix, cli, Matroid):
    """Seconds to parse the matrix file and build the `--dual` matroid handle."""
    t0 = time.monotonic()
    with open(matrix, encoding="utf-8") as fh:
        A = cli.parse_matrix(fh.read())
    Matroid.from_matrix(A, strict=False).dual()
    return time.monotonic() - t0


def main():
    spec = json.loads(sys.argv[1])
    t0 = time.monotonic()
    from tropfan import cli, discriminant
    from tropfan.matroid import Matroid

    import_s = time.monotonic() - t0
    result = {"intervals": {}}
    if spec["kind"] == "fan":
        result["setup_s"] = import_s + statistics.median(
            _fan_setup(spec["matrix"], cli, Matroid) for _ in range(SETUP_REPEATS)
        )
        result["intervals"]["setup_s"] = (t0, time.monotonic())

    tracer = None
    if spec.get("spans"):
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)

    rc = 0
    if spec["kind"] == "fan":
        rc = cli.main([spec["matrix"], *spec["argv"], "--output", spec["output"]])
    else:
        with open(spec["matrix"], encoding="utf-8") as fh:
            A = cli.parse_matrix(fh.read())
        t0 = time.monotonic()
        prob = discriminant.setup(A)
        t1 = time.monotonic()
        vertices = discriminant.random_vertices(prob, spec["count"], spec["seed"])
        t2 = time.monotonic()
        _write_vertices(spec["output"], vertices)
        result["setup_s"] = t1 - t0
        result["shoot_s"] = t2 - t1
        result["intervals"] = {"setup_s": (t0, t1), "shoot_s": (t1, t2)}

    result["peak_rss_mb"] = _own_peak_rss_mb()
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
