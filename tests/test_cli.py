"""Command-line surface: parsing, output grammar, exit codes, determinism."""

import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropfan
from brute import bergman_classes_by_weight, fan_text
from conftest import (
    UNIFORM_2_4,
    random_fan_matrices,
    run_cli,
    small_corpus,
    write_matrix_file,
)
from tropfan import cli
from tropfan import fan as fan_module
from tropfan.cli import parse_matrix
from tropfan.data import (
    GRAPHIC_3X6,
    TANGENT_CONIC_CUBIC_4X16,
    TANGENT_LINE_CUBIC_4X13,
    TANGENT_QUADRICS_5X20,
    TANGENT_THREE_QUADRICS_6X30,
    UNIFORM_2_3,
    cube_matrix,
)
from tropfan.errors import ParseError
from tropfan.exact import IntMat, integer_kernel_basis
from tropfan.fan import cyclic_bergman_fan
from tropfan.matroid import Matroid


def test_parse_matrix_simple():
    A = parse_matrix("2 3\n1 0 1\n0 1 1\n")
    assert A.entries == ((1, 0, 1), (0, 1, 1))


def test_parse_matrix_comments_and_blank_lines():
    A = parse_matrix("# heading\n\n2 2\n# row one\n1 0\n0 1\n")
    assert A.entries == ((1, 0), (0, 1))


def test_parse_matrix_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_matrix("2 3\n1 0\n0 1 1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_matrix("2 3\n1 0 1\n")
    with pytest.raises(ParseError):
        parse_matrix("2 3\n1 0 1\n0 1 1\n9 9 9\n")
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("2 x\n1 0\n")
    # an optional sign and ASCII digits only: int() would also take "1_0" and "\u0661"
    for bad in ("1_0", "\u0661", "+-1", "--1", "1+", "+", "0x1", "1.0", "\u00b2"):
        for text, line in ((f"# c\n1 {bad}\n1 0\n", 2), (f"2 2\n1 0\n\n{bad} 1\n", 4)):
            with pytest.raises(ParseError) as exc:
                parse_matrix(text)
            assert exc.value.line == line, (bad, text)
    assert parse_matrix("+1 2\n-0 +10\n").entries == ((0, 10),)


def _sections(text):
    """Split CLI fan output into header dict and named sections."""
    header = {}
    sections = {}
    current = None
    for line in text.splitlines():
        if line and line[0].isalpha() and line.isupper() or line.startswith("A-"):
            current = line.split()[0]
            sections[current] = []
        elif current is None:
            key, value = line.split()
            header[key] = int(value)
        else:
            sections[current].append(line)
    return header, sections


def test_fan_output_grammar(tmp_path):
    path = tmp_path / "graphic.txt"
    write_matrix_file(path, GRAPHIC_3X6)
    code, out = run_cli([str(path), "--compare", "--bases", "--circuits", "--tutte"])
    assert code == 0
    header, sections = _sections(out)
    assert header == {"n": 6, "m": 3, "rays": 5, "maxcones": 7}
    assert len(sections["RAYS"]) == header["rays"]
    assert len(sections["MAXCONES"]) == header["maxcones"]
    assert sections["RAYS"] == sorted(sections["RAYS"])
    assert len(sections["BERGMAN"]) == 6
    assert sections["CIRCUITS"][0] == "1 2"
    assert any(line.startswith("x^") for line in sections["TUTTE"])
    for line in sections["MAXCONES"]:
        idxs = [int(x) for x in line.split()]
        assert idxs == sorted(idxs)
        assert all(0 <= i < header["rays"] for i in idxs)


def test_counts_only(tmp_path):
    path = tmp_path / "cube3.txt"
    write_matrix_file(path, cube_matrix(3))
    code, out = run_cli([str(path), "--counts-only"])
    assert code == 0
    assert out == "n 8\nm 4\nrays 20\nmaxcones 80\n"


def test_every_fan_mode_but_counts_only_spills(tmp_path, monkeypatch):
    real_spill, spills = tempfile.TemporaryFile, []

    def spill(*args, **kwargs):
        spills.append(real_spill(*args, **kwargs))
        return spills[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", spill)
    path = tmp_path / "cube3.txt"
    write_matrix_file(path, cube_matrix(3))
    opened = []
    for flags in ([], ["--compare"], ["--bases"], ["--counts-only"]):
        assert run_cli([str(path), *flags])[0] == 0, flags
        opened.append(len(spills))
    assert opened == [1, 2, 3, 3] and all(fh.closed for fh in spills)


def test_output_file(tmp_path):
    path = tmp_path / "u23.txt"
    write_matrix_file(path, UNIFORM_2_3)
    target = tmp_path / "fan.out"
    code, out = run_cli([str(path), "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("n 3\nm 2\nrays 3\nmaxcones 3\n")
    # the rank-1 dual has one cone and no rays: its MAXCONES line is empty
    rank1 = "n 3\nm 1\nrays 0\nmaxcones 1\nRAYS\nMAXCONES\n\n"
    assert run_cli([str(path), "--dual"]) == (0, rank1)
    assert run_cli([str(path), "--dual", "--threads", "2"]) == (0, rank1)
    assert run_cli([str(path), "--dual", "--output", str(target)]) == (0, "")
    assert target.read_text() == rank1


def test_failed_run_leaves_output_untouched(tmp_path):
    coloops = tmp_path / "coloops.txt"
    coloops.write_text("2 3\n1 0 0\n0 1 1\n")
    target = tmp_path / "out.txt"
    code, _ = run_cli([str(coloops), "--output", str(target)])
    assert code == 2
    assert not target.exists()
    target.write_text("previous result\n")
    code, _ = run_cli([str(coloops), "--output", str(target)])
    assert code == 2
    assert target.read_text() == "previous result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coloops.txt", "out.txt"]


FAN_FLAGS = [[], ["--bases", "--circuits", "--tutte"], ["--threads", "2"], ["--compare"]]


def test_fan_output_equals_the_per_cone_writer(tmp_path):
    # the body streams through the spill file; the expected Bergman classes
    # come from the weight oracle; U(2,3) --dual has rank 1, one cone and
    # no rays
    path, target = tmp_path / "matrix.txt", tmp_path / "fan.out"
    matrices = [A for _, A in small_corpus()]
    matrices += [M.A for M in random_fan_matrices(6, seed=7)]
    for A in matrices:
        write_matrix_file(path, A)
        for dual in ([], ["--dual"]):
            M = Matroid.from_matrix(A).dual() if dual else Matroid.from_matrix(A)
            fan = cyclic_bergman_fan(M)
            for flags in FAN_FLAGS:
                argv = [str(path), *dual, *flags]
                classes = bergman_classes_by_weight(fan, M) if "--compare" in flags else None
                want = fan_text(M, fan, reports="--bases" in flags, classes=classes)
                assert run_cli(argv) == (0, want), argv
                assert run_cli([*argv, "--output", str(target)]) == (0, ""), argv
                assert target.read_text() == want, argv


PEAK_SCRIPT = """
import sys
from tropfan import cli

code = cli.main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, peak)
"""


def _cli_peak_mb(argv):
    """Exit code and VmHWM of a fresh process that runs the CLI on argv."""
    src = str(Path(tropfan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_SCRIPT, *map(str, argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = proc.stdout.split()
    return int(code), int(peak_kb) / 1024


def test_full_fan_peak_memory_is_near_cube4s(tmp_path):
    # storing the 5x20 dual's 475,722 cones of 14 one-byte ray indices
    # takes 6.7 MB; streamed, its peak lies within 2 MB of the cube4 dual's
    # (59,608 cones)
    peaks = []
    for name, A in (("cube4", cube_matrix(4)), ("quadrics", TANGENT_QUADRICS_5X20)):
        path, target = tmp_path / f"{name}.txt", tmp_path / f"{name}.fan"
        write_matrix_file(path, A)
        code, peak = _cli_peak_mb([path, "--dual", "--output", target])
        assert code == 0
        peaks.append(peak)
    assert (tmp_path / "quadrics.fan").read_text().startswith(
        "n 20\nm 15\nrays 172\nmaxcones 475722\n"
    )
    assert peaks[1] - peaks[0] <= 2.0, peaks


def test_compare_peak_memory(tmp_path):
    # --compare reads the spilled cones back instead of storing the fan; a
    # stored fan and a dict of key hashes took 82 MB
    path, target = tmp_path / "quadrics.txt", tmp_path / "quadrics.fan"
    write_matrix_file(path, TANGENT_QUADRICS_5X20)
    code, peak = _cli_peak_mb([path, "--dual", "--compare", "--output", target])
    assert code == 0
    with open(target, encoding="utf-8") as fh:
        assert "".join(next(fh) for _ in range(4)) == "n 20\nm 15\nrays 172\nmaxcones 475722\n"
    assert peak <= 78.0, peak


def test_failed_streamed_fan_is_one_error_line(tmp_path, monkeypatch, capsys):
    # drop the ray whose first cone comes last, so that the run fails after
    # most of the body went to the spill file
    M = Matroid.from_matrix(cube_matrix(3))
    fan, (_, index) = cyclic_bergman_fan(M), fan_module._ray_index(M)
    first_use = {}
    for ci, cone in enumerate(fan.maximal_cones):
        for i in cone:
            first_use.setdefault(i, ci)
    late = max(first_use, key=first_use.get)
    assert first_use[late] > len(fan.maximal_cones) // 2
    real_index, real_spill, spills = fan_module._ray_index, tempfile.TemporaryFile, []

    def drop_late_ray(M):
        rays, index = real_index(M)
        return rays, {mask: i for mask, i in index.items() if i != late}

    def spill(*args, **kwargs):
        spills.append(real_spill(*args, **kwargs))
        return spills[-1]

    monkeypatch.setattr(fan_module, "_ray_index", drop_late_ray)
    monkeypatch.setattr(tempfile, "TemporaryFile", spill)
    path, target = tmp_path / "cube3.txt", tmp_path / "fan.out"
    write_matrix_file(path, cube_matrix(3))
    target.write_text("previous result\n")
    for extra in ([], ["--output", str(target)]):
        assert run_cli([str(path), *extra]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_text() == "previous result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube3.txt", "fan.out"]
    assert len(spills) == 2 and all(fh.closed for fh in spills)


def _dead_worker(payload):
    os._exit(3)


def test_dead_threads_worker_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a worker that dies (say, killed when memory runs out) breaks the pool;
    # workers start by fork, so they run the patched function
    monkeypatch.setattr("tropfan.fan._fan_worker", _dead_worker)
    path = tmp_path / "cube3.txt"
    write_matrix_file(path, cube_matrix(3))
    target = tmp_path / "fan.out"
    code, out = run_cli([str(path), "--dual", "--threads", "2", "--output", str(target)])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube3.txt"]


def test_bad_threads_env_is_usage_error(tmp_path):
    path = tmp_path / "u23.txt"
    write_matrix_file(path, UNIFORM_2_3)
    src = str(Path(tropfan.__file__).resolve().parents[1])
    env = dict(os.environ, TROPFAN_THREADS="abc", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tropfan", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_negative_threads_is_usage_error(tmp_path):
    path = tmp_path / "u23.txt"
    write_matrix_file(path, UNIFORM_2_3)
    with pytest.raises(SystemExit) as exc:
        run_cli([str(path), "--threads", "-1"])
    assert exc.value.code == 2
    src = str(Path(tropfan.__file__).resolve().parents[1])
    env = dict(os.environ, TROPFAN_THREADS="-2", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tropfan", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert proc.stdout == ""


def test_dual_equals_direct_on_gale_dual(tmp_path):
    src = tmp_path / "a.txt"
    write_matrix_file(src, UNIFORM_2_4)
    gale = tmp_path / "gale.txt"
    write_matrix_file(gale, integer_kernel_basis(UNIFORM_2_4))
    code1, dual_out = run_cli([str(src), "--dual"])
    code2, direct_out = run_cli([str(gale)])
    assert code1 == code2 == 0
    assert dual_out == direct_out


def test_byte_determinism_and_threads(tmp_path):
    path = tmp_path / "cube3.txt"
    write_matrix_file(path, cube_matrix(3))
    runs = [run_cli([str(path), "--compare"]) for _ in range(2)]
    assert runs[0] == runs[1]
    _, seq = run_cli([str(path)])
    _, par = run_cli([str(path), "--threads", "3"])
    assert seq == par


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3\n1 0\n0 1 1\n")
    code, _ = run_cli([str(bad)])
    assert code == 1
    code, _ = run_cli([str(tmp_path / "missing.txt")])
    assert code == 1
    loops = tmp_path / "loops.txt"
    write_matrix_file(loops, IntMat.from_rows([[1, 0, 0, 1], [0, 1, 0, 1]]))
    code, _ = run_cli([str(loops)])
    assert code == 2
    coloops = tmp_path / "coloops.txt"
    write_matrix_file(coloops, IntMat.from_rows([[1, 0, 0], [0, 1, 1]]))
    code, _ = run_cli([str(coloops)])
    assert code == 2


def test_non_utf8_matrix_file_is_a_clean_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2 3\n1 0 1\n0 1 \xff\n")
    src = str(Path(tropfan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tropfan", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_flag_combination_rejected(tmp_path):
    path = tmp_path / "u23.txt"
    write_matrix_file(path, UNIFORM_2_3)
    with pytest.raises(SystemExit) as exc:
        run_cli([str(path), "--random", "3", "--compare"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run_cli([str(path), "--random", "3", "--counts-only"])
    with pytest.raises(SystemExit) as exc:
        run_cli([str(path), "--compare", "--counts-only"])
    assert exc.value.code == 2
    # every fan-mode flag is a usage error with --random
    for flag in ("--dual", "--bases", "--circuits", "--tutte"):
        with pytest.raises(SystemExit) as exc:
            run_cli([str(path), "--random", "3", flag])
        assert exc.value.code == 2, flag


def test_discriminant_mode(tmp_path):
    # linear form in one variable against a cubic with inverted variable
    A = IntMat.from_rows(
        [
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1],
            [0, 1, 0, -1, -2],
        ]
    )
    path = tmp_path / "disc.txt"
    write_matrix_file(path, A)
    code, out = run_cli([str(path), "--random", "4", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("A-DEGREE ")
    assert len(lines) == 5
    assert all(len(line.split()) == 5 for line in lines[1:])
    again = run_cli([str(path), "--random", "4", "--seed", "1"])
    assert again == (code, out)
    other = run_cli([str(path), "--random", "4", "--seed", "2"])
    assert other[0] == 0


LIBRARY_IMPORTS_SCRIPT = """
import sys
from tropfan import cli, discriminant

matrix, out = sys.argv[1:]
with open(matrix, encoding="utf-8") as fh:
    A = cli.parse_matrix(fh.read())
discriminant.random_vertices(discriminant.setup(A), 3, 1)
print([name for name in ("argparse", "gettext") if name in sys.modules])
print(cli.main([matrix, "--random", "3", "--seed", "1", "--output", out]))
try:
    cli.main([matrix, "--no-such-flag"])
except SystemExit as exc:
    print(exc.code)
"""


def test_library_calls_never_load_argparse(tmp_path):
    # argparse (and the gettext it imports) loads only when cli.main parses flags
    path, out = tmp_path / "line_cubic.txt", tmp_path / "vertices.txt"
    write_matrix_file(path, TANGENT_LINE_CUBIC_4X13)
    src = str(Path(tropfan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LIBRARY_IMPORTS_SCRIPT, str(path), str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout == "[]\n0\n2\n", proc.stderr
    assert "unrecognized arguments: --no-such-flag" in proc.stderr
    assert out.read_text().startswith("A-DEGREE 12 10 -6 -6\n")


def test_unspanned_lattice_is_one_error_line(tmp_path):
    # the columns span a sublattice of index 2; setup records that without a
    # warning, and the first shot stops the run with one error line
    path = tmp_path / "even.txt"
    write_matrix_file(path, IntMat.from_rows([[1, 1, 1, 1], [0, 2, 4, 6]]))
    src = str(Path(tropfan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "tropfan", str(path), "--random", "3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: vertex formula requires coprime maximal minors\n"


def _no_fan(*args, **kwargs):
    raise AssertionError("the fan was built")


def test_unspanned_lattice_fails_before_the_fan(tmp_path, monkeypatch, capsys):
    # conic/cubic and the 6x30 three quadrics (C(30, 6) maximal minors, read
    # off one kernel basis) with row 2 doubled: every maximal minor is even
    unspanned = tmp_path / "unspanned.txt"
    monkeypatch.setattr("tropfan.discriminant.cyclic_bergman_fan", _no_fan)
    for A, flags in (
        (TANGENT_CONIC_CUBIC_4X16, ["--random", "100", "--seed", "1"]),
        (TANGENT_THREE_QUADRICS_6X30, ["--random", "1", "--output", str(tmp_path / "out")]),
    ):
        rows = [list(row) for row in A.entries]
        rows[2] = [2 * x for x in rows[2]]
        write_matrix_file(unspanned, IntMat.from_rows(rows))
        assert run_cli([str(unspanned), *flags]) == (2, "")
        assert capsys.readouterr().err == "error: vertex formula requires coprime maximal minors\n"
        assert list(tmp_path.iterdir()) == [unspanned]  # no --output file, no temp file
    # inputs failing several checks keep the order of errors: rank, all-ones,
    # the fan's loops and coloops, then the lattice
    for bad, err in (
        ([[1, 1, 1, 1], [2, 2, 2, 2]], "error: matrix has rank 1 < 2 rows\n"),
        ([[1, 0, 0, 0], [0, 2, 4, 6]], "error: the all-ones vector is not in the rowspace\n"),
        ([[1, 1, 1, 1], [0, 0, 0, 2]], "error: matroid has loops at columns [4]\n"),
    ):
        write_matrix_file(unspanned, IntMat.from_rows(bad))
        assert run_cli([str(unspanned), "--random", "1"]) == (2, "")
        assert capsys.readouterr().err == err
    # with no vertex to shoot, setup builds the fan and the run succeeds
    monkeypatch.undo()
    write_matrix_file(unspanned, IntMat.from_rows([[1, 1, 1, 1], [0, 2, 4, 6]]))
    assert run_cli([str(unspanned), "--random", "0"]) == (0, "A-DEGREE\n")


def test_discriminant_mode_zero_vertices(tmp_path):
    A = IntMat.from_rows(
        [
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1],
            [0, 1, 0, -1, -2],
        ]
    )
    path = tmp_path / "disc.txt"
    write_matrix_file(path, A)
    code, out = run_cli([str(path), "--random", "0"])
    assert code == 0
    assert out == "A-DEGREE\n"


#: Small entries, and integers far beyond machine words.
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))


@st.composite
def matrix_texts(draw):
    """Matrix files with n <= 7: well formed (zero columns allowed), ragged, or noise."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # all ones in the rowspace, as --random needs
        rows[0] = [1] * n
    for c in draw(st.sets(st.integers(0, n - 1), max_size=1)):  # zero columns: loops
        for row in rows:
            row[c] = 0
    lines = [f"{m} {n}", *(" ".join(map(str, row)) for row in rows)]
    kind = draw(st.sampled_from(["clean"] * 4 + ["ragged", "extra", "noise"]))
    if kind == "ragged":  # one line loses its last entry
        i = draw(st.integers(0, m))
        lines[i] = lines[i].rpartition(" ")[0]
    elif kind == "extra":  # a stray line after the matrix
        lines.append(draw(st.sampled_from(["0", "1 2 x", "# note", "-"])))
    elif kind == "noise":
        return draw(st.text(alphabet="0123456789 -+x#.\n", max_size=40))
    return "\n".join(lines) + "\n"


FLAG_SETS = [
    [],
    ["--dual"],
    ["--compare"],
    ["--dual", "--compare", "--bases", "--circuits", "--tutte"],
    ["--counts-only"],
    ["--dual", "--counts-only"],
    ["--random", "0"],
    ["--random", "3", "--seed", "1"],
]


@settings(max_examples=300, deadline=None)
@given(
    text=matrix_texts(), flags=st.sampled_from(FLAG_SETS), to_file=st.booleans()
)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, text, flags, to_file):
    # in-process and sequential: a run starts no worker process
    folder = tmp_path_factory.mktemp("fuzz")
    path, target = folder / "matrix.txt", folder / "out.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(path), "--threads", "0", *flags]
    if to_file:
        argv += ["--output", str(target)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (text, flags)
    assert "Traceback" not in err.getvalue()
    assert not list(folder.glob("*.tmp"))
    assert target.exists() == (to_file and code == 0)


def test_cli_digests_refuse_a_directory_without_the_inputs(tmp_path):
    # every run would exit 1 on a missing file, so two trees would diff alike
    script = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"
    src = str(Path(tropfan.__file__).resolve().parents[1])
    for matdir in (tmp_path, tmp_path / "nonexistent"):
        proc = subprocess.run(
            [sys.executable, str(script), str(matdir)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
        assert "line_cubic_4x13.txt" in proc.stderr
