"""Command-line surface: parsing, output grammar, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropfan
from conftest import UNIFORM_2_4, run_cli, write_matrix_file
from tropfan.cli import parse_matrix
from tropfan.data import GRAPHIC_3X6, UNIFORM_2_3, cube_matrix
from tropfan.errors import ParseError
from tropfan.exact import IntMat, integer_kernel_basis


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
