"""The benchmark tracer still finds every name it wraps.

perfbench/tracer.py times the program by rebinding module globals
(`tropfan.cli.cyclic_bergman_fan`, the `tropfan.discriminant` bindings of
`setup`, `cyclic_bergman_fan` and the exact routines) and three `Matroid`
methods.  A rename or a changed import leaves those spans empty and the
benchmark's per-layer metrics silently at zero, so this test runs the traced
calls in a fresh process and checks the spans and counters they leave.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import write_matrix_file
from tropfan.data import cube_matrix

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from tracer import Tracer, install, layer_metrics

tracer = Tracer("t")
install(tracer)
from tropfan import cli, discriminant
from tropfan.data import TANGENT_LINE_CUBIC_4X13

code = cli.main([sys.argv[1], "--output", sys.argv[2]])
prob = discriminant.setup(TANGENT_LINE_CUBIC_4X13)
discriminant.random_vertices(prob, 2, 1)
names = sorted({span[1] for span in tracer.spans})
metrics = layer_metrics({"counters": tracer.counters, "spans": tracer.spans})
print(json.dumps({"code": code, "names": names, "metrics": metrics}))
"""


def test_tracer_spans_cover_fan_setup_and_shooting(tmp_path):
    matrix = tmp_path / "cube3.txt"
    output = tmp_path / "cube3.fan"
    write_matrix_file(matrix, cube_matrix(3))
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(matrix), str(output)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["code"] == 0
    assert output.read_text().splitlines()[3] == "maxcones 80"
    assert {
        "cli.main",
        "cli.parse_matrix",
        "fan.cyclic_bergman_fan",
        "matroid.from_matrix",
        "matroid.enumerate_bases",
        "matroid.fundamental_circuit_masks",
        "discriminant.setup",
        "discriminant.random_vertices",
        "discriminant.shoot_vertex",
        "exact.det_of_columns",
    } <= set(run["names"])
    metrics = run["metrics"]
    # cube3 through cli.cyclic_bergman_fan, line/cubic through setup's binding
    assert metrics["fan.cones"] == 80 + 2466
    assert metrics["fan.rays"] == 20 + 29
    # kappa is read off setup's cone walk: shooting takes no determinant
    assert metrics["discriminant.kappa_evals"] == 0
    assert metrics["discriminant.setup_fan_s"] > 0
