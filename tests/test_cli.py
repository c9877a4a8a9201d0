"""Command-line interface: outputs, exit codes, determinism, replay."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import lionsjet
from lionsjet.cli import main, make_instance, run_instance
from lionsjet.functional import PolyFunctional, PolyKernel
from lionsjet.measures import save_points
from lionsjet.poly import MPoly

F = Fraction


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def test_enum_tagged_two():
    code, text = run_cli(["enum", "2", "--tagged"])
    assert code == 0
    assert text.splitlines() == ["0,0", "0,1", "1,0", "1,1", "1,2"]


def test_enum_plain_four():
    code, text = run_cli(["enum", "4"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 15
    assert lines[0] == "1,1,1,1" and lines[-1] == "1,2,3,4"


def test_enum_graded_json():
    code, text = run_cli(["enum", "0", "--graded", "3/2", "1", "3", "--output", "json"])
    assert code == 0
    data = json.loads(text)
    assert data["plus"] == [[]]
    assert data["cross"] == [[0]]


def test_grade_command():
    code, text = run_cli(["grade", "--seq", "0,1,1", "--grading", "10", "1", "2"])
    assert code == 0
    assert text.strip() == "5"


def test_verify_batch_passes_and_is_deterministic():
    code1, text1 = run_cli(["verify", "empirical", "--seed", "7", "--trials", "5"])
    code2, text2 = run_cli(["verify", "empirical", "--seed", "7", "--trials", "5"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert text1.splitlines()[-1] == "5/5 passed"


def test_verify_all_identities_smoke():
    for identity in ("fullsystem", "expansion", "schwarz"):
        code, text = run_cli(["verify", identity, "--seed", "3", "--trials", "4"])
        assert code == 0, text
        assert text.splitlines()[-1] == "4/4 passed"


def test_verify_float_mode():
    code, text = run_cli(
        ["verify", "empirical", "--seed", "1", "--trials", "3", "--mode", "float"]
    )
    assert code == 0, text


def test_replay_round_trip(tmp_path):
    inst = make_instance("fullsystem", 123)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    code, text = run_cli(["verify", "fullsystem", "--replay", str(path)])
    assert code == 0
    rep = json.loads(text)
    assert rep["pass"] is True
    assert rep["instance_seed"] == 123


def test_instance_generation_is_deterministic():
    assert make_instance("expansion", 5) == make_instance("expansion", 5)
    rep1 = run_instance(make_instance("schwarz", 11))
    rep2 = run_instance(make_instance("schwarz", 11))
    assert rep1.passed and rep2.passed
    assert rep1.max_abs_difference == rep2.max_abs_difference


def test_bad_file_gives_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["verify", "empirical", "--replay", str(bad)])
    assert code == 2


def test_expand_command(tmp_path):
    kernel = PolyFunctional(
        PolyKernel(1, 1, 2, False, [MPoly(2, {(1, 1): F(1)})])
    )
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    save_points(tmp_path / "x.csv", [(F(0),), (F(1, 2),)])
    save_points(tmp_path / "y.csv", [(F(1, 3),), (F(1),)])
    code, text = run_cli(
        [
            "expand",
            "--kernel", str(kpath),
            "--points", str(tmp_path / "x.csv"),
            "--points2", str(tmp_path / "y.csv"),
            "--order", "1",
        ]
    )
    assert code == 0
    data = json.loads(text)
    actual = F(data["actual"][0])
    total = F(data["predicted"][0])
    for family_terms in data["remainder_terms"].values():
        for term in family_terms.values():
            total += F(term[0])
    assert total == actual


def test_expand_graded_command(tmp_path):
    kernel = PolyFunctional(
        PolyKernel(1, 1, 1, True, [MPoly(2, {(1, 1): F(1), (2, 0): F(1, 2)})])
    )
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    save_points(tmp_path / "x.csv", [(F(0),), (F(1, 2),)])
    save_points(tmp_path / "y.csv", [(F(1, 3),), (F(1),)])
    code, text = run_cli(
        [
            "expand",
            "--kernel", str(kpath),
            "--points", str(tmp_path / "x.csv"),
            "--points2", str(tmp_path / "y.csv"),
            "--grading", "9/4", "1/2", "1",
            "--x0=1/4",
            "--y0=-1/2",
        ]
    )
    assert code == 0
    data = json.loads(text)
    total = F(data["predicted"][0])
    for family_terms in data["remainder_terms"].values():
        for term in family_terms.values():
            total += F(term[0])
    assert total == F(data["actual"][0])


def test_converge_command(tmp_path):
    kernel = PolyFunctional(
        PolyKernel(1, 1, 1, False, [MPoly(1, {(3,): F(1), (2,): F(1), (1,): F(1), (0,): F(1)})])
    )
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    save_points(tmp_path / "pts.csv", [(F(1, 2),), (F(3, 4),)])
    save_points(tmp_path / "dirs.csv", [(F(1),), (F(1),)])
    code, text = run_cli(
        [
            "converge",
            "--kernel", str(kpath),
            "--points", str(tmp_path / "pts.csv"),
            "--directions", str(tmp_path / "dirs.csv"),
            "--order", "1",
            "--h-list", "1/2,1/4,1/8,1/16",
        ]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "h,remainder,bound"
    assert len(lines) == 6
    assert lines[-1].startswith("# slope:")
    slope = float(lines[-1].split(":")[1])
    assert abs(slope - 2.0) < 0.3


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("LIONS_JET_CAP", "3")
    code, _ = run_cli(["enum", "4"])
    assert code == 2


def test_console_entry_point():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(lionsjet.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lionsjet.cli", "enum", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1,1", "1,2"]


def assert_one_line_exit_two(args, capsys):
    code, text = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_enum_negative_length_exits_two(capsys):
    for args in (["enum", "-1"], ["enum", "-1", "--tagged"], ["enum", "-2", "--kn", "1"]):
        assert_one_line_exit_two(args, capsys)


def _expand_inputs(tmp_path):
    kernel = PolyFunctional(PolyKernel(1, 1, 1, False, [MPoly(1, {(2,): F(1)})]))
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    save_points(tmp_path / "x.csv", [(F(0),), (F(1, 2),)])
    save_points(tmp_path / "y.csv", [(F(1, 3),), (F(1),)])
    return str(kpath), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")


def test_expand_missing_inputs_exit_two(tmp_path, capsys):
    kpath, xpath, ypath = _expand_inputs(tmp_path)
    points = ["--points", xpath, "--points2", ypath]
    for args in (
        ["--order", "2"],
        ["--order", "2", "--points", xpath],
        points,
        points + ["--grading", "9/4", "1/2", "1", "--x0=0"],
    ):
        assert_one_line_exit_two(["expand", "--kernel", kpath] + args, capsys)


def test_converge_rejects_mismatched_rows(tmp_path, capsys):
    kpath, xpath, _ = _expand_inputs(tmp_path)
    save_points(tmp_path / "dirs.csv", [(F(1),), (F(1),), (F(1),)])
    args = ["converge", "--kernel", kpath, "--points", xpath,
            "--directions", str(tmp_path / "dirs.csv")]
    assert_one_line_exit_two(args + ["--order", "1"], capsys)
    assert_one_line_exit_two(args, capsys)


def test_expand_seq_with_box_exits_two(tmp_path, capsys):
    _, xpath, ypath = _expand_inputs(tmp_path)
    kernel = PolyFunctional(PolyKernel(1, 1, 1, True, [MPoly(2, {(1, 1): F(1)})]))
    kpath = tmp_path / "spatial.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    args = ["expand", "--kernel", str(kpath), "--points", xpath, "--points2", ypath,
            "--grading", "3", "1/2", "1", "--x0=0", "--y0=1", "--seq", "1",
            "--free-x", "0", "--free-y", "1"]
    assert run_cli(args)[0] == 0
    assert_one_line_exit_two(args + ["--box", "-4", "4"], capsys)


def test_expand_order_rejects_derivative_options(tmp_path, capsys):
    kpath, xpath, ypath = _expand_inputs(tmp_path)
    args = ["expand", "--kernel", kpath, "--points", xpath, "--points2", ypath,
            "--order", "1"]
    assert run_cli(args)[0] == 0
    for extra in (["--seq", "0,1"], ["--free-x", "1"], ["--free-y", "1"]):
        assert_one_line_exit_two(args + extra, capsys)


def test_expand_graded_rejects_free_points_without_seq(tmp_path, capsys):
    _, xpath, ypath = _expand_inputs(tmp_path)
    kernel = PolyFunctional(PolyKernel(1, 1, 1, True, [MPoly(2, {(1, 1): F(1)})]))
    kpath = tmp_path / "spatial.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    args = ["expand", "--kernel", str(kpath), "--points", xpath, "--points2", ypath,
            "--grading", "3", "1/2", "1", "--x0=0", "--y0=1"]
    assert run_cli(args)[0] == 0
    assert_one_line_exit_two(args + ["--free-x", "0", "--free-y", "1"], capsys)


def test_replay_malformed_instance_exits_two(tmp_path, capsys):
    inst = make_instance("empirical", 5)
    del inst["kernel"]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    assert_one_line_exit_two(["verify", "empirical", "--replay", str(path)], capsys)


def test_loaders_close_their_files(tmp_path):
    import gc
    import warnings

    from lionsjet.cli import _load_functional
    from lionsjet.measures import load_coupling, load_points, pair_coupling, save_coupling

    kpath, xpath, _ = _expand_inputs(tmp_path)
    cpath = tmp_path / "coupling.json"
    ipath = tmp_path / "instance.json"
    ipath.write_text(json.dumps(make_instance("empirical", 5)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        load_points(xpath)
        save_coupling(cpath, pair_coupling([(F(0),)], [(F(1),)]))
        load_coupling(cpath)
        _load_functional(kpath)
        assert run_cli(["verify", "empirical", "--replay", str(ipath)])[0] == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
