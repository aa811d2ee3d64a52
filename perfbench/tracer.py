"""Spans around tropfan's public calls, installed from outside the package.

A traced child process calls `install(tracer)` after importing tropfan.  It
replaces the names the program calls through with timing wrappers:
`Matroid` methods on the class, and the `tropfan.cli` and
`tropfan.discriminant` module bindings that the calling code looks up at
call time.  Spans stay in memory and are written once, by `dump`, when the
run ends.  `layer_metrics` turns a dumped run into the per-layer metrics.
"""

import json
import statistics
from collections import Counter
from time import perf_counter

# Fraction-based exact routines, wrapped as the discriminant module sees them.
EXACT_NAMES = (
    "integer_kernel_basis",
    "rank_of_rows",
    "rank",
    "det",
    "det_of_columns",
    "solve_columns",
)


class Tracer:
    """Nested spans (parent, name, start, end) and counters of one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # span id = index; parents precede their children
        self.counters = Counter()
        self._stack = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, perf_counter()

    def _close(self, sid, name, t0):
        t1 = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (parent, name, t0, t1)

    def wrap(self, name, fn, on_result=None):
        """`fn` with one span per call; `on_result(counters, value)` counts output."""

        def traced(*args, **kwargs):
            sid, t0 = self._open()
            try:
                value = fn(*args, **kwargs)
            finally:
                self._close(sid, name, t0)
            if on_result is not None:
                on_result(self.counters, value)
            return value

        return traced

    def wrap_generator(self, name, genfn, count):
        """Generator function `genfn` with one span per `next()`; yields add to `count`."""

        def traced(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                sid, t0 = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, name, t0)
                self.counters[count] += 1
                yield item

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run_id": self.run_id, "counters": self.counters, "spans": self.spans},
                fh,
            )


def _count_fan(counters, fan):
    counters["fan.cones"] += len(fan.maximal_cones)
    counters["fan.rays"] += len(fan.rays)


def _count_setup(counters, prob):
    counters["discriminant.codim1_cones"] += len(prob.codim1_cones)
    counters["discriminant.maximal_cones"] += len(prob.fan.maximal_cones)


def _count_vertices(counters, vertices):
    counters["discriminant.perturbed_vertices"] += sum(v.perturbed for v in vertices)
    counters["discriminant.distinct_vertices"] += sum(
        v.duplicate_of is None for v in vertices
    )


def install(tracer):
    """Wrap the public names the CLI and the library examples call through."""
    import tropfan.cli as cli
    import tropfan.discriminant as disc
    from tropfan.matroid import Matroid

    cli.main = tracer.wrap("cli.main", cli.main)
    cli.parse_matrix = tracer.wrap("cli.parse_matrix", cli.parse_matrix)
    cli.cyclic_bergman_fan = tracer.wrap(
        "fan.cyclic_bergman_fan", cli.cyclic_bergman_fan, _count_fan
    )

    Matroid.from_matrix = classmethod(
        tracer.wrap("matroid.from_matrix", Matroid.from_matrix.__func__)
    )
    Matroid.enumerate_bases = tracer.wrap_generator(
        "matroid.enumerate_bases", Matroid.enumerate_bases, "matroid.bases"
    )
    Matroid.fundamental_circuit_masks = tracer.wrap(
        "matroid.fundamental_circuit_masks", Matroid.fundamental_circuit_masks
    )

    disc.setup = tracer.wrap("discriminant.setup", disc.setup, _count_setup)
    disc.random_vertices = tracer.wrap(
        "discriminant.random_vertices", disc.random_vertices, _count_vertices
    )
    disc.shoot_vertex = tracer.wrap("discriminant.shoot_vertex", disc.shoot_vertex)
    disc.cyclic_bergman_fan = tracer.wrap(
        "fan.cyclic_bergman_fan", disc.cyclic_bergman_fan, _count_fan
    )
    for name in EXACT_NAMES:
        setattr(disc, name, tracer.wrap("exact." + name, getattr(disc, name)))


def layer_metrics(doc):
    """Per-layer metrics (name -> value) from a run written by `Tracer.dump`.

    Self time is a span's duration minus the durations of its child spans;
    calls are sequential within one process, so children never overlap.
    `discriminant.setup` is split three ways that add up to its duration:
    the fan (`fan.cyclic_bergman_fan`), the `exact.*` calls, and the rest,
    which is its self time plus any other direct child span, such as the
    `matroid.from_matrix` call that builds the fan's input.
    """
    spans = doc["spans"]
    counters = Counter(doc["counters"])
    dur = [t1 - t0 for _, _, t0, t1 in spans]
    covered = [0.0] * len(spans)
    under_shooting = [False] * len(spans)
    for i, (parent, name, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
        under_shooting[i] = name == "discriminant.random_vertices" or (
            parent >= 0 and under_shooting[parent]
        )
    total = Counter()
    self_time = Counter()
    calls = Counter()
    setup_fan = setup_exact = setup_other = 0.0
    kappa_evals = 0
    shoot_ms = []
    for i, (parent, name, _, _) in enumerate(spans):
        total[name] += dur[i]
        self_time[name] += dur[i] - covered[i]
        calls[name] += 1
        if parent >= 0 and spans[parent][1] == "discriminant.setup":
            if name.startswith("exact."):
                setup_exact += dur[i]
            elif name == "fan.cyclic_bergman_fan":
                setup_fan += dur[i]
            else:
                setup_other += dur[i]
        if name == "exact.det_of_columns" and under_shooting[i]:
            kappa_evals += 1
        if name == "discriminant.shoot_vertex":
            shoot_ms.append(dur[i] * 1e3)

    bases = counters["matroid.bases"]
    cones = counters["fan.cones"]
    fcm = "matroid.fundamental_circuit_masks"
    codim1 = counters["discriminant.codim1_cones"]
    maximal = counters["discriminant.maximal_cones"]
    out = {
        "cli.parse_matrix_s": total["cli.parse_matrix"],
        "cli.main_self_s": self_time["cli.main"],
        "matroid.from_matrix_s": total["matroid.from_matrix"],
        "matroid.enumerate_bases_s": total["matroid.enumerate_bases"],
        "matroid.bases": bases,
        fcm + "_s": total[fcm],
        fcm + "_calls": calls[fcm],
        fcm + "_us_per_call": total[fcm] / calls[fcm] * 1e6 if calls[fcm] else 0.0,
        "fan.enumerate_self_s": self_time["fan.cyclic_bergman_fan"],
        "fan.cones": cones,
        "fan.rays": counters["fan.rays"],
        "fan.cones_per_basis": cones / bases if bases else 0.0,
    }
    for name in EXACT_NAMES:
        out[f"exact.{name}_s"] = total["exact." + name]
        out[f"exact.{name}_calls"] = calls["exact." + name]
    out.update(
        {
            "discriminant.setup_s": total["discriminant.setup"],
            "discriminant.setup_self_s": self_time["discriminant.setup"] + setup_other,
            "discriminant.setup_fan_s": setup_fan,
            "discriminant.setup_exact_s": setup_exact,
            "discriminant.codim1_cones": codim1,
            "discriminant.codim1_share": codim1 / maximal if maximal else 0.0,
            "discriminant.shoot_vertex_ms_p50": statistics.median(shoot_ms)
            if shoot_ms
            else 0.0,
            "discriminant.shoot_vertex_ms_p90": statistics.quantiles(shoot_ms, n=10)[8]
            if len(shoot_ms) >= 2
            else 0.0,
            "discriminant.shoot_vertex_samples": len(shoot_ms),
            "discriminant.kappa_evals": kappa_evals,
            "discriminant.perturbed_vertices": counters["discriminant.perturbed_vertices"],
            "discriminant.distinct_vertices": counters["discriminant.distinct_vertices"],
            "discriminant.cone_tests": len(shoot_ms) * codim1,
            "trace.spans": len(spans),
        }
    )
    return out
