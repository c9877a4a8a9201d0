"""Command-line interface: outputs, exit codes, determinism, replay."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lionsjet
from lionsjet import cli
from lionsjet.cli import main, make_instance, run_instance
from lionsjet.functional import PolyFunctional, PolyKernel
from lionsjet.measures import pair_coupling, save_coupling, save_points
from lionsjet.partitions import enum_A
from lionsjet.expansion import taylor1
from lionsjet.poly import MPoly, parse_rational
from lionsjet.tagged import Grading, enum_A0, enum_graded

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


@pytest.mark.parametrize("identity", ["empirical", "fullsystem"])
def test_verify_process_pool_merges_in_trial_order(identity):
    args = ["verify", identity, "--seed", "7", "--trials", "6"]
    serial = run_cli(args + ["--jobs", "1"])
    assert serial[0] == 0 and serial[1].splitlines()[-1] == "6/6 passed"
    assert run_cli(args + ["--jobs", "2"]) == serial


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
    code, text = run_cli(["verify", "--replay", str(path)])
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


# sha256 of json.dumps of the 1,600 payloads the benchmark's `verify` batches
# run: four identities, two modes, seeds 1000-1199
VERIFY_BATCHES_SHA256 = "1019d9224a023e737c82b5cbdd37769c546ec4cf6bdbb4464ef9ba2f8476c297"


def test_the_verify_batches_draw_the_pinned_instances():
    payloads = [
        make_instance(identity, seed, mode)
        for identity in ("empirical", "fullsystem", "expansion", "schwarz")
        for mode in ("rational", "float")
        for seed in range(1000, 1200)
    ]
    assert hashlib.sha256(json.dumps(payloads).encode()).hexdigest() == VERIFY_BATCHES_SHA256


def test_bad_file_gives_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["verify", "--replay", str(bad)])
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


def test_converge_of_remainders_whose_float_squares_overflow(tmp_path):
    # k(u) = u^62 at 400 moved by 1, order 2: remainders about 1e155
    kernel = PolyFunctional(PolyKernel(1, 1, 1, False, [MPoly(1, {(62,): F(1)})]))
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    save_points(tmp_path / "pts.csv", [(F(400),)])
    save_points(tmp_path / "dirs.csv", [(F(1),)])
    code, text = run_cli(
        ["converge", "--kernel", str(kpath), "--points", str(tmp_path / "pts.csv"),
         "--directions", str(tmp_path / "dirs.csv"), "--order", "2"]
    )
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 8 and lines[-1].startswith("# slope:")
    assert all(1e150 < float(line.split(",")[1]) < 1e160 for line in lines[1:-1])


def _parse_strict(text):
    """`text` parsed as strict JSON: the tokens Infinity, -Infinity and NaN
    are refused."""

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_json_prints_a_non_finite_float_as_its_name(tmp_path):
    # u^62 at 400 moved by 1: a remainder at h = 1e6 and every bound on a
    # box of half-width 1000 are past the float range, and used to print
    # as the bare token Infinity
    kernel = PolyFunctional(PolyKernel(1, 1, 1, False, [MPoly(1, {(62,): F(1)})]))
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    save_points(tmp_path / "pts.csv", [(F(400),)])
    save_points(tmp_path / "dirs.csv", [(F(1),)])
    save_points(tmp_path / "far.csv", [(F(401),)])
    converge = ["converge", "--kernel", str(kpath), "--points", str(tmp_path / "pts.csv"),
                "--directions", str(tmp_path / "dirs.csv"), "--order", "2"]
    code, text = run_cli(converge + ["--h-list", "1/2,1/4,1000000", "--output", "json"])
    assert code == 0 and _parse_strict(text)["rows"][2]["remainder"] == "inf"
    boxed = converge + ["--box", "-1000", "1000", "--h-list", "1/2,1/4"]
    code, text = run_cli(boxed + ["--output", "json"])
    assert code == 0 and [row["bound"] for row in _parse_strict(text)["rows"]] == ["inf"] * 2
    # the CSV rows print the float as Python does, as before
    code, text = run_cli(boxed)
    assert code == 0 and all(line.endswith(",inf") for line in text.splitlines()[1:-1])
    code, text = run_cli(["expand", "--kernel", str(kpath), "--points", str(tmp_path / "pts.csv"),
                          "--points2", str(tmp_path / "far.csv"), "--order", "2",
                          "--box", "-1000", "1000", "--mode", "float"])
    assert code == 0 and _parse_strict(text)["remainder_bound"] == "inf"


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


def test_expand_bound_on_huge_box_is_never_nan(tmp_path, capsys):
    # a coupling that moves no atom and a box whose constants overflow to
    # inf: the bound used to print NaN
    kernel = PolyFunctional(PolyKernel(1, 1, 2, False, [MPoly(2, {(2, 1): F(1)})]))
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    save_points(tmp_path / "x.csv", [(F(1),), (F(-1),)])
    args = ["expand", "--kernel", str(kpath), "--points", str(tmp_path / "x.csv"),
            "--points2", str(tmp_path / "x.csv"), "--order", "1"]
    code, text = run_cli(args + ["--box", " -1e308", "1e308"])
    assert code == 0 and "NaN" not in text
    assert json.loads(text)["remainder_bound"] == 0.0
    for lo, hi in [(" -inf", "inf"), ("0", "inf"), ("nan", "1")]:
        assert_one_line_exit_two(args + ["--box", lo, hi], capsys)
    save_points(tmp_path / "d.csv", [(F(1),), (F(1),)])
    converge = ["converge", "--kernel", str(kpath), "--points", str(tmp_path / "x.csv"),
                "--directions", str(tmp_path / "d.csv"), "--order", "1"]
    assert_one_line_exit_two(converge + ["--box", " -inf", "inf"], capsys)


def test_expand_bound_out_of_float_range_exits_two(tmp_path, capsys):
    # a coupling moment past the float range used to end in an
    # OverflowError traceback
    kpath, _, _ = _expand_inputs(tmp_path)
    save_points(tmp_path / "far.csv", [(F(10**200),)])
    save_points(tmp_path / "zero.csv", [(F(0),)])
    assert_one_line_exit_two(["expand", "--kernel", kpath, "--points", str(tmp_path / "zero.csv"),
                              "--points2", str(tmp_path / "far.csv"), "--order", "1",
                              "--box", " -1e300", "1e300"], capsys)


def test_point_cell_past_float_range_with_box_exits_two(tmp_path, capsys):
    # "1e400" is an exact rational, but the box check converts it to float;
    # that used to end in an OverflowError traceback
    kpath, xpath, _ = _expand_inputs(tmp_path)
    (tmp_path / "far.csv").write_text("1e400\n0\n")
    far = str(tmp_path / "far.csv")
    assert_one_line_exit_two(["expand", "--kernel", kpath, "--points", xpath, "--points2", far,
                              "--order", "1", "--box", "-4", "4"], capsys)


def test_kernel_and_point_dimensions_must_agree(tmp_path, capsys):
    # a kernel with e = 2 on points in R^1 used to print an expansion of
    # truncated monomials (measure-only) or end in an IndexError traceback
    # (spatial); found by the kernel/point contents fuzz
    kernel = PolyFunctional(PolyKernel(2, 1, 1, True, [MPoly(4, {(0, 0, 0, 1): F(1)})]))
    kpath = tmp_path / "k2.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    measure = PolyFunctional(PolyKernel(2, 1, 1, False, [MPoly(2, {(1, 1): F(1)})]))
    mpath = tmp_path / "m2.json"
    mpath.write_text(json.dumps(measure.to_json()))
    save_points(tmp_path / "x1.csv", [(F(1, 2),), (F(1),)])
    save_points(tmp_path / "x2.csv", [(F(1, 2), F(0)), (F(1), F(1))])
    x1, x2 = str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv")
    graded = ["--grading", "5/2", "1", "1", "--x0=0,0", "--y0=1,0"]
    on = lambda k, x: ["expand", "--kernel", str(k), "--points", x, "--points2", x]
    assert_one_line_exit_two(on(kpath, x1) + graded, capsys)
    assert_one_line_exit_two(on(mpath, x1) + ["--order", "1"], capsys)
    short = ["--grading", "5/2", "1", "1", "--x0=0", "--y0=1"]
    assert_one_line_exit_two(on(kpath, x2) + short, capsys)
    assert run_cli(on(kpath, x2) + graded)[0] == 0


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


def test_converge_rejects_directions_of_another_dimension(tmp_path, capsys):
    # a 2-d direction for a 1-d point used to be cut to its first coordinate
    # by zip, and the 1-d study came out with exit 0
    kpath, xpath, _ = _expand_inputs(tmp_path)
    save_points(tmp_path / "dirs.csv", [(F(1), F(2)), (F(1), F(-1))])
    args = ["converge", "--kernel", kpath, "--points", xpath,
            "--directions", str(tmp_path / "dirs.csv"), "--order", "1"]
    assert_one_line_exit_two(args, capsys)
    spatial = PolyFunctional(PolyKernel(1, 1, 1, True, [MPoly(2, {(1, 2): F(1)})]))
    (tmp_path / "spatial.json").write_text(json.dumps(spatial.to_json()))
    args = ["converge", "--kernel", str(tmp_path / "spatial.json"), "--points", xpath,
            "--directions", xpath, "--grading", "5/2", "1", "1", "--x0=0"]
    assert run_cli(args + ["--x0-direction=1"])[0] == 0
    assert_one_line_exit_two(args + ["--x0-direction=1,2"], capsys)


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


@pytest.mark.parametrize(
    "extra",
    [["--grading", "9/4", "1/2", "1"], ["--x0=1/4", "--y0=1/2"]],
    ids=["grading", "spatial-points"],
)
def test_expand_order_rejects_graded_options(tmp_path, capsys, extra):
    # these used to be ignored: the plain order-2 expansion was printed
    kpath, xpath, ypath = _expand_inputs(tmp_path)
    args = ["expand", "--kernel", kpath, "--points", xpath, "--points2", ypath, "--order", "2"]
    assert run_cli(args)[0] == 0
    assert_one_line_exit_two(args + extra, capsys)


def test_expand_coupling_rejects_points(tmp_path, capsys):
    # the points used to be ignored, never read
    kpath, xpath, ypath = _expand_inputs(tmp_path)
    cpath = str(tmp_path / "c.json")
    save_coupling(cpath, pair_coupling([(F(0),), (F(1, 2),)], [(F(1, 3),), (F(1),)]))
    args = ["expand", "--kernel", kpath, "--coupling", cpath, "--order", "2"]
    assert run_cli(args)[0] == 0
    assert_one_line_exit_two(args + ["--points", ypath, "--points2", xpath], capsys)


@pytest.mark.parametrize(
    "extra",
    [["--grading", "9/4", "1/2", "1"], ["--x0", "1/4", "--x0-direction", "1"]],
    ids=["grading", "spatial-point"],
)
def test_converge_order_rejects_graded_options(tmp_path, capsys, extra):
    # these used to be ignored: the order-2 study was printed
    kpath, xpath, _ = _expand_inputs(tmp_path)
    args = ["converge", "--kernel", kpath, "--points", xpath, "--directions", xpath,
            "--order", "2", "--h-list", "1/2,1/4"]
    assert run_cli(args)[0] == 0
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


def test_replay_of_an_unknown_identity_exits_two(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dict(make_instance("empirical", 1), identity="bogus")))
    assert_one_line_exit_two(["verify", "--replay", str(path)], capsys)


@pytest.mark.parametrize("identity", ["fullsystem", "empirical"])
def test_replay_of_points_of_another_dimension_exits_two(tmp_path, capsys, identity):
    seed = next(s for s in range(5, 100) if make_instance(identity, s)["kernel"]["e"] == 2)
    inst = make_instance(identity, seed)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    assert run_cli(["verify", "--replay", str(path)])[0] == 0
    inst["points"] = [p[:1] for p in inst["points"]]
    path.write_text(json.dumps(inst))
    assert_one_line_exit_two(["verify", "--replay", str(path)], capsys)


@pytest.mark.parametrize(
    "field, bad",
    [("x0", ["0", "1"]), ("points", [["1", "0"]] * 4), ("dirs", [[], [], []]),
     ("dirs", [["1"], ["1"], ["1", "2"]])],
    ids=["x0", "points", "empty-dirs", "long-dir"],
)
def test_replay_of_schwarz_data_of_another_dimension_exits_two(tmp_path, capsys, field, bad):
    # seed 3000 has an e = 1 kernel and three directions: a 2-coordinate x0
    # used to pass, and empty directions ended in an IndexError traceback
    inst = make_instance("schwarz", 3000)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    assert run_cli(["verify", "--replay", str(path)])[0] == 0
    inst[field] = bad
    path.write_text(json.dumps(inst))
    assert_one_line_exit_two(["verify", "--replay", str(path)], capsys)



@pytest.mark.parametrize("order", [True, 2.5, "2", 0], ids=repr)
@pytest.mark.parametrize("seed", [1000, 1002], ids=["measure", "spatial"])
def test_replay_of_an_order_that_is_no_integer_exits_two(tmp_path, capsys, seed, order):
    # "order": true used to exit 0 and print "order": true
    inst = make_instance("expansion", seed)
    assert ("grading" in inst) == (seed == 1002)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    assert run_cli(["verify", "--replay", str(path)])[0] == 0
    inst["order"] = order
    path.write_text(json.dumps(inst))
    assert_one_line_exit_two(["verify", "--replay", str(path)], capsys)


@pytest.mark.parametrize("token", ["1e400", "NaN", "-Infinity"])
def test_non_finite_coordinates_in_files_exit_two(tmp_path, capsys, token):
    # json reads 1e400 as inf and NaN as nan; expand and converge used to
    # exit 0 and print NaN or Infinity, which is not JSON
    kpath, xpath, _ = _expand_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(f"[[{token}], [0.5]]")
    coupling = tmp_path / "coupling.json"
    coupling.write_text(f"[[[0], [{token}]], [[0.5], [1]]]")
    for args in (
        ["expand", "--kernel", kpath, "--points", xpath, "--points2", str(bad), "--order", "1"],
        ["expand", "--kernel", kpath, "--coupling", str(coupling), "--order", "1"],
        ["converge", "--kernel", kpath, "--points", xpath, "--directions", str(bad),
         "--order", "2", "--output", "json"],
        ["converge", "--kernel", kpath, "--points", str(bad), "--directions", xpath,
         "--order", "2"],
    ):
        assert_one_line_exit_two(args, capsys)


def _spatial_expand_args(tmp_path):
    """expand of the kernel x0^2 + x0 u1 (e = 1, arity 1) from --x0=1/3 to
    --y0=1/2; the caller adds the grading and the mode."""
    kernel = PolyFunctional(PolyKernel(1, 1, 1, True, [MPoly(2, {(2, 0): F(1), (1, 1): F(1)})]))
    kpath = tmp_path / "spatial.json"
    kpath.write_text(json.dumps(kernel.to_json()))
    _, xpath, ypath = _expand_inputs(tmp_path)
    return ["expand", "--kernel", str(kpath), "--points", xpath, "--points2", ypath,
            "--x0=1/3", "--y0=1/2"]


def _expand_entries(out):
    """Every tensor entry of an `expand` JSON result."""

    def entries(x):
        return [v for item in x for v in entries(item)] if isinstance(x, list) else [x]

    tensors = [term[k] for term in out["jet"].values() for k in ("value", "raw")]
    tensors += [out[k] for k in ("predicted", "actual", "remainder_exact")]
    tensors += [t for family in out["remainder_terms"].values() for t in family.values()]
    return [v for t in tensors for v in entries(t)]


def test_expand_float_mode_converts_every_point(tmp_path):
    # --x0, --y0, --free-x and --free-y stayed rational, so jet 0,0 of this
    # kernel printed "1/36"; an exact zero (jet 1,1 and 1,2 here) printed
    # "0" beside the floats and now prints 0.0
    args = _spatial_expand_args(tmp_path) + ["--grading", "5/2", "1", "1", "--mode", "float"]
    for extra in ([], ["--seq", "1", "--free-x", "1/3", "--free-y", "1/5"]):
        code, text = run_cli(args + extra)
        assert code == 0
        out = json.loads(text)
        values = _expand_entries(out)
        assert any(isinstance(v, float) and v for v in values)
        assert all(isinstance(v, float) for v in values)
        if not extra:
            assert out["jet"]["1,1"]["value"] == out["jet"]["1,2"]["value"] == [0.0]


def test_expand_float_mode_prints_floats_when_no_entry_is_a_float(tmp_path):
    # every cell of the second x0-derivative of x0^2 + x0 u1 is a constant,
    # so no entry of the result turns into a float; float mode printed "2"
    # and "0", and now prints 2.0 and 0.0. Rational mode prints as before.
    args = _spatial_expand_args(tmp_path) + ["--grading", "4", "1", "1", "--seq", "0,0"]
    code, text = run_cli(args + ["--mode", "float"])
    assert code == 0
    out = json.loads(text)
    assert all(isinstance(v, float) for v in _expand_entries(out))
    assert out["jet"][""]["value"] == out["actual"] == [[[2.0]]]
    assert out["jet"]["1"]["value"] == [[[0.0]]]
    code, text = run_cli(args)
    assert code == 0
    out = json.loads(text)
    assert all(isinstance(v, str) for v in _expand_entries(out))
    assert out["jet"][""]["value"] == out["actual"] == [[["2"]]]
    assert out["jet"]["1"]["value"] == [[["0"]]]


def test_expand_float_points_with_rational_targets(tmp_path):
    # float starts from a JSON file, rational targets from a CSV file: the
    # jet contracts float data, the value at the targets is exact
    kpath, _, ypath = _expand_inputs(tmp_path)
    xpath = tmp_path / "x.json"
    xpath.write_text(json.dumps([[0.25], [-0.5]]))
    code, text = run_cli(["expand", "--kernel", kpath, "--points", str(xpath),
                          "--points2", ypath, "--order", "2"])
    assert code == 0
    out = json.loads(text)
    total = out["predicted"][0] + sum(t[0] for t in out["remainder_terms"]["star"].values())
    assert isinstance(out["predicted"][0], float) and out["actual"] == ["5/9"]
    assert math.isclose(total, 5 / 9, rel_tol=1e-12)


@pytest.mark.parametrize(
    "identity, seed, field",
    [("empirical", 1, "points"), ("fullsystem", 1, "points"), ("expansion", 1000, "points2"),
     ("expansion", 1002, "x0"), ("schwarz", 3000, "x0"), ("schwarz", 3000, "dirs")],
)
def test_replay_of_a_coordinate_past_float_range_exits_two(tmp_path, capsys, identity, seed,
                                                           field):
    # "1.5e400" parses as a float, inf: replays used to pass or print NaN
    inst = make_instance(identity, seed, "float")
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    assert run_cli(["verify", "--replay", str(path)])[0] == 0
    point = inst[field] if field == "x0" else inst[field][0]
    point[0] = "1.5e400"
    path.write_text(json.dumps(inst))
    assert_one_line_exit_two(["verify", "--replay", str(path)], capsys)

def test_verify_pool_starts_no_more_workers_than_it_can_use(monkeypatch):
    # a fork pool starts every worker on first use, so --jobs 5000 would
    # start 5000 processes; a fake pool records the count instead
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    args = ["verify", "empirical", "--seed", "7"]
    serial = {n: run_cli(args + ["--trials", str(n)]) for n in (2, 6)}
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    for trials, jobs, workers in ((2, 5000, 2), (6, 5000, 4), (6, 3, 3), (2, 2, 2)):
        assert run_cli(args + ["--trials", str(trials), "--jobs", str(jobs)]) == serial[trials]
        assert started.pop() == workers
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run_cli(args + ["--trials", "6", "--jobs", "8"]) == serial[6]
    assert started == [1]


def test_float_verify_expansion_runs_the_graded_identity():
    # before the tolerance was applied, a float trial's pass flag was
    # worst == 0, so most spatial trials skipped the graded taylor2 identity
    graded = 0
    for seed in range(1000, 1200):
        inst = make_instance("expansion", seed, "float")
        if "grading" in inst:
            rep = run_instance(inst)
            assert rep.passed and "graded_identity_gap" in rep.details, seed
            graded += 1
    assert graded == 110


def test_converge_needs_two_distinct_positive_scales(tmp_path, capsys):
    kpath, xpath, _ = _expand_inputs(tmp_path)
    args = ["converge", "--kernel", kpath, "--points", xpath, "--directions", xpath,
            "--order", "1", "--box", "-4", "4"]
    assert run_cli(args + ["--h-list", "1/2,1/4"])[0] == 0
    for h_list in ("1/2", "1/2,1/2", "1/2,0", "-1/2,1/4"):
        for output in ("csv", "json"):
            assert_one_line_exit_two(args + [f"--h-list={h_list}", "--output", output], capsys)


def test_converge_without_a_fit_exits_two(tmp_path, capsys):
    # k(u) = u^4 + u^2: the remainder at h = 1e-8 is nonzero but under the
    # fit floor, so one row is left to fit; that used to print "exact"
    quartic = PolyFunctional(PolyKernel(1, 1, 1, False, [MPoly(1, {(4,): F(1), (2,): F(1)})]))
    kpath = tmp_path / "quartic.json"
    kpath.write_text(json.dumps(quartic.to_json()))
    save_points(tmp_path / "x.csv", [(F(1, 2),), (F(3, 4),)])
    save_points(tmp_path / "d.csv", [(F(1),), (F(-1),)])
    args = ["converge", "--kernel", str(kpath), "--points", str(tmp_path / "x.csv"),
            "--directions", str(tmp_path / "d.csv"), "--order", "1", "--h-list", "1/2,1e-8"]
    for output in ("csv", "json"):
        assert_one_line_exit_two(args + ["--output", output], capsys)
    # a remainder that is exactly zero at every scale is still "exact"
    kpath, xpath, _ = _expand_inputs(tmp_path)
    code, text = run_cli(["converge", "--kernel", kpath, "--points", xpath, "--directions",
                          xpath, "--order", "2", "--h-list", "1/2,1e-8"])
    assert code == 0 and text.splitlines()[-1] == "# slope: exact"


def test_replay_malformed_instance_exits_two(tmp_path, capsys):
    inst = make_instance("empirical", 5)
    del inst["kernel"]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    assert_one_line_exit_two(["verify", "--replay", str(path)], capsys)


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
        assert run_cli(["verify", "--replay", str(ipath)])[0] == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_enum_graded_rejects_other_families(capsys):
    for extra in (["--kn", "1"], ["--tagged"], ["--kn", "0", "--tagged"]):
        assert_one_line_exit_two(["enum", "3", "--graded", "5/2", "1", "1"] + extra, capsys)
    assert run_cli(["enum", "0", "--graded", "9/2", "1", "1/2"])[0] == 0
    assert run_cli(["enum", "5", "--kn", "2"])[0] == 0


def test_enum_kn_rejects_tagged(capsys):
    # --kn lists tagged sequences already; --tagged used to be ignored
    assert_one_line_exit_two(["enum", "2", "--kn", "1", "--tagged"], capsys)
    assert run_cli(["enum", "2", "--kn", "1"])[0] == 0


def test_enum_graded_rejects_a_length(capsys):
    # the grading sets the lengths; N used to be ignored without a word
    for n in ("3", "1", "-1"):
        assert_one_line_exit_two(["enum", n, "--graded", "5/2", "1", "1"], capsys)
    assert run_cli(["enum", "0", "--graded", "5/2", "1", "1"])[0] == 0


def test_bad_command_line_is_one_error_line(capsys):
    for args in (["enum", "abc"], ["enum", "3", "--bogus"], ["grade", "--seq", "-1,2",
                 "--grading", "2", "1", "1"], [], ["grade", "--grading", "1/0", "1", "1"]):
        assert_one_line_exit_two(args, capsys)


def test_grade_families_does_not_enumerate():
    # the grading is deeper than the cap allows enum_graded to list
    args = ["grade", "--seq", "0,1,1", "--grading", "13", "1", "1/2", "--families"]
    code, text = run_cli(args)
    assert code == 0
    assert json.loads(text) == {"grade": "2", "families": ["core"]}
    assert run_cli(["enum", "0", "--graded", "13", "1", "1/2"])[0] == 2


def test_crashing_verify_trial_is_a_dumped_failure(monkeypatch):
    def run_or_raise(inst):
        if inst["seed"] == 8:
            raise ZeroDivisionError("trial blew up")
        return run_instance(inst)

    monkeypatch.setattr(cli, "run_instance", run_or_raise)
    code, text = run_cli(["verify", "empirical", "--seed", "7", "--trials", "3", "--jobs", "1"])
    lines = text.splitlines()
    assert code == 1
    assert lines[0].startswith("ok seed=7 ") and lines[3].startswith("ok seed=9 ")
    assert lines[1] == "FAIL seed=8 identity=empirical max_abs_difference=inf"
    assert json.loads(lines[2]) == make_instance("empirical", 8)
    assert lines[-1] == "2/3 passed"
    inst, rep = cli._trial(("empirical", 8, "rational"))
    assert rep.max_abs_difference == math.inf and not rep.passed
    assert rep.details == {"error": "ZeroDivisionError('trial blew up')"}


def _depth(tokens):
    """gamma / min(alpha, beta) of a (gamma, alpha, beta) token triple, or
    None when the tokens are not a positive grading."""
    try:
        gamma, alpha, beta = (Fraction(t) for t in tokens)
    except (ValueError, ZeroDivisionError):
        return None
    if alpha <= 0 or beta <= 0:
        return None
    return gamma / min(alpha, beta)


_small_int = st.integers(-3, 7)
_rational = st.one_of(
    _small_int.map(str),
    st.builds("{}/{}".format, _small_int, st.integers(0, 4)),
    st.sampled_from(["x", "", "1.5", "-1/2"]),
)
_seq = st.lists(
    st.one_of(st.integers(-2, 7).map(str), st.sampled_from(["", "x", "1/2"])), max_size=7
).map(",".join)


@st.composite
def _enum_or_grade_argv(draw):
    grading = draw(st.lists(_rational, min_size=3, max_size=3))
    depth = _depth(grading)
    assume(depth is None or depth <= 7)
    if draw(st.booleans()):
        n = draw(_small_int)
        argv = ["enum", str(n)]
        if draw(st.booleans()):
            argv.append("--tagged")
        if draw(st.booleans()):
            k = draw(_small_int)
            assume(n + max(k, 0) <= 7)
            argv += ["--kn", str(k)]
        if draw(st.booleans()):
            argv += ["--graded", *grading]
        if draw(st.booleans()):
            argv += ["--output", draw(st.sampled_from(["text", "json", "csv"]))]
    else:
        argv = ["grade"]
        if draw(st.booleans()):
            seq = draw(_seq)
            argv += draw(st.sampled_from([["--seq", seq], [f"--seq={seq}"]]))
        argv += ["--grading", *grading]
        if draw(st.booleans()):
            argv.append("--families")
    return argv


@settings(max_examples=150, deadline=None)
@given(_enum_or_grade_argv())
def test_enum_and_grade_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""


def test_malformed_input_files_exit_two(tmp_path, capsys):
    # each parses as JSON but is not a kernel, point set or coupling: they
    # used to end in a KeyError, IndexError or TypeError traceback
    kpath, xpath, _ = _expand_inputs(tmp_path)
    kernel = json.loads(Path(kpath).read_text())
    kernel["terms"][0]["out"] = 1
    (tmp_path / "out.json").write_text(json.dumps(kernel))
    (tmp_path / "numbers.json").write_text("[1, 2]")
    (tmp_path / "object.json").write_text(json.dumps({"identity": "empirical"}))
    out, numbers, obj = (str(tmp_path / n) for n in ("out.json", "numbers.json", "object.json"))
    points = ["--points", xpath, "--points2", xpath, "--order", "1"]
    for bad in (out, numbers, obj):
        assert_one_line_exit_two(["expand", "--kernel", bad] + points, capsys)
    for bad in (numbers, obj):
        assert_one_line_exit_two(["expand", "--kernel", kpath, "--coupling", bad, "--order", "1"], capsys)
    assert_one_line_exit_two(["expand", "--kernel", kpath, "--points", numbers,
                              "--points2", xpath, "--order", "1"], capsys)
    assert_one_line_exit_two(["converge", "--kernel", obj, "--points", xpath,
                              "--directions", xpath, "--order", "1"], capsys)
    assert_one_line_exit_two(["converge", "--kernel", kpath, "--points", xpath,
                              "--directions", numbers, "--order", "1"], capsys)
    assert run_cli(["expand", "--kernel", kpath] + points)[0] == 0


_SQUARE = {"out": 0, "coeff": "1", "exps": [[2]]}


@pytest.mark.parametrize(
    "fields, command",
    [
        # the term used to land in the last component
        ({"d": 2, "terms": [{**_SQUARE, "out": -1}]}, "order"),
        # the term used to land in component 1
        ({"d": 2, "terms": [{**_SQUARE, "out": True}]}, "order"),
        ({"arity": -1, "terms": []}, "order"),
        # every tensor used to come out empty
        ({"d": 0, "terms": []}, "order"),
        ({"e": True}, "order"),
        # used to be read as a spatial kernel
        ({"spatial": "no", "terms": [{**_SQUARE, "exps": [[1], [1]]}]}, "grading"),
    ],
    ids=["out-negative", "out-bool", "arity-negative", "d-zero", "e-bool", "spatial-string"],
)
def test_kernel_of_a_wrong_shape_exits_two(tmp_path, capsys, fields, command):
    # each of these used to expand with exit 0
    _, xpath, ypath = _expand_inputs(tmp_path)
    kpath = tmp_path / "shape.json"
    kernel = {"e": 1, "d": 1, "arity": 1, "spatial": False, "terms": [_SQUARE]}
    kpath.write_text(json.dumps({**kernel, **fields}))
    args = ["expand", "--kernel", str(kpath), "--points", xpath, "--points2", ypath]
    if command == "order":
        args += ["--order", "1"]
    else:
        args += ["--grading", "2", "1", "1", "--x0", "0", "--y0", "1/2"]
    assert_one_line_exit_two(args, capsys)


@pytest.mark.parametrize("exponent", [2.7, True, "2"], ids=["float", "bool", "string"])
def test_kernel_exponent_that_is_not_an_integer_exits_two(tmp_path, capsys, exponent):
    # these used to load as u^2, u^1 and u^2 and expand with exit 0
    kpath, xpath, ypath = _expand_inputs(tmp_path)
    data = json.loads(Path(kpath).read_text())
    assert data["terms"] == [_SQUARE]
    data["terms"][0]["exps"] = [[exponent]]
    Path(kpath).write_text(json.dumps(data))
    args = ["expand", "--kernel", kpath, "--points", xpath, "--points2", ypath, "--order", "1"]
    assert_one_line_exit_two(args, capsys)


def test_converge_on_a_high_degree_kernel(tmp_path, capsys):
    # the power tables of u^1999 used to be built by one recursive call per
    # unit of exponent, which ended in a RecursionError and exit 1
    kpath = tmp_path / "high.json"
    kpath.write_text(json.dumps({
        "e": 1, "d": 1, "arity": 1, "spatial": False,
        "terms": [{"out": 0, "coeff": "1", "exps": [[2000]]}],
    }))
    save_points(tmp_path / "x.csv", [(F(1),), (F(-1),)])
    save_points(tmp_path / "v.csv", [(F(1, 1000),), (F(1, 500),)])
    code, text = run_cli(["converge", "--kernel", str(kpath), "--points", str(tmp_path / "x.csv"),
                          "--directions", str(tmp_path / "v.csv"), "--order", "1",
                          "--h-list", "1/8,1/16"])
    assert code == 0 and capsys.readouterr().err == ""
    header, *rows, slope = text.splitlines()
    assert header == "h,remainder,bound" and len(rows) == 2
    assert float(slope.split(": ")[1]) == pytest.approx(2, abs=0.1)


def test_float_expand_on_a_kernel_past_the_float_binomials(tmp_path, capsys):
    # u^1100 on float points: C(1100, 550) is past the float range, so a
    # path power that multiplied a float row by the int C(p, k) ended in
    # "int too large to convert to float" and exit 2; float paths keep the
    # one-factor-at-a-time product, and the output is the bytes recorded
    # before the closed form existed
    kpath = tmp_path / "high.json"
    kpath.write_text(json.dumps({
        "e": 1, "d": 1, "arity": 1, "spatial": False,
        "terms": [{"out": 0, "coeff": "1", "exps": [[1100]]}],
    }))
    (tmp_path / "x.csv").write_text("1.0\n-1.0\n")
    (tmp_path / "y.csv").write_text("1.001\n-0.998\n")
    code, text = run_cli(["expand", "--kernel", str(kpath), "--points", str(tmp_path / "x.csv"),
                          "--points2", str(tmp_path / "y.csv"), "--order", "1", "--mode", "float"])
    assert code == 0 and capsys.readouterr().err == ""
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "11beedcac225d8486a2dfd6a21df67e85e6d62e4938bfa9ca40088e99500fd15"
    )


def test_expand_prints_exact_numbers_past_the_int_text_limit(tmp_path):
    # u^3 over points with 1,500-digit denominators: entries of more than
    # the 4,300 digits that Python converts between int and text by
    # default used to end in exit 2; each printed entry parses back to the
    # library's value
    kpath = tmp_path / "cube.json"
    kpath.write_text(json.dumps({
        "e": 1, "d": 1, "arity": 1, "spatial": False,
        "terms": [{"out": 0, "coeff": "1", "exps": [[3]]}],
    }))
    x, y = [(F(1),), (F(-1),)], [(1 + F(1, 10**1500 + 7),), (F(-1, 2) - F(1, 3**3000),)]
    save_points(tmp_path / "x.csv", x)
    save_points(tmp_path / "y.csv", y)
    code, text = run_cli(["expand", "--kernel", str(kpath), "--points", str(tmp_path / "x.csv"),
                          "--points2", str(tmp_path / "y.csv"), "--order", "1"])
    assert code == 0
    data = json.loads(text)
    c = pair_coupling(x, y)
    res = taylor1(PolyFunctional.from_json(json.loads(kpath.read_text())), c.left(), c, 1)
    for key in ("predicted", "actual", "remainder_exact"):
        assert [parse_rational(v) for v in data[key]] == getattr(res, key).data
    assert max(len(v) for v in data["actual"]) > 4300


def test_a_dumped_instance_with_5000_digit_points_replays(tmp_path):
    inst = make_instance("empirical", 3)
    points = cli._parse_points(inst["points"])
    points[0] = (F(1, (10**5000 - 1) // 3),) + points[0][1:]
    inst["points"] = cli._points_json(points)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    code, text = run_cli(["verify", "--replay", str(path)])
    assert code == 0 and json.loads(text)["pass"] is True


def test_bare_json_ints_past_the_int_text_limit_load(tmp_path):
    # a kernel, a coupling or a replayed instance holding a bare JSON int
    # literal of 5,000 digits used to exit 2 with "Exceeds the limit (4300
    # digits)"; each loads as an int of that size and runs
    big = 10**5000
    literal = "1" + "0" * 5000
    kpath = tmp_path / "big.json"
    kpath.write_text(
        '{"e": 1, "d": 1, "arity": 1, "spatial": false, "terms": '
        f'[{{"out": 0, "coeff": {literal}, "exps": [[2]]}}, {{"out": 0, "coeff": 1, "exps": [[1]]}}]}}'
    )
    f = cli._load_functional(kpath)
    assert f.kernel.components[0].terms[(2,)] == big
    assert type(f.kernel.e) is int and type(f.kernel.arity) is int
    x, y = [(F(1),), (F(-1),)], [(F(1, 2),), (F(2),)]
    save_points(tmp_path / "x.csv", x)
    save_points(tmp_path / "y.csv", y)
    code, text = run_cli(["expand", "--kernel", str(kpath), "--points", str(tmp_path / "x.csv"),
                          "--points2", str(tmp_path / "y.csv"), "--order", "1"])
    assert code == 0
    c = pair_coupling(x, y)
    want = taylor1(f, c.left(), c, 1)
    assert [parse_rational(v) for v in json.loads(text)["actual"]] == want.actual.data

    digits = "3" * 5000  # a coordinate of 5,000 digits
    cpath = tmp_path / "coupling.json"
    cpath.write_text(f'[[[{digits}], [1]], [[-1], ["1/2"]]]')
    code, text = run_cli(["expand", "--kernel", str(kpath), "--coupling", str(cpath), "--order", "1"])
    assert code == 0
    c = pair_coupling([(F((10**5000 - 1) // 3),), (F(-1),)], [(F(1),), (F(1, 2),)])
    want = taylor1(f, c.left(), c, 1)
    assert [parse_rational(v) for v in json.loads(text)["actual"]] == want.actual.data

    inst = make_instance("empirical", 3)
    inst["kernel"]["terms"][0]["coeff"] = "BIG"
    text = json.dumps(inst).replace('"BIG"', literal)
    ipath = tmp_path / "instance.json"
    ipath.write_text(text)
    code, text = run_cli(["verify", "--replay", str(ipath)])
    assert code == 0 and json.loads(text)["pass"] is True


def test_verify_rejects_empty_batches(capsys):
    # --trials -1 used to print "0/0 passed" and exit 0
    for extra in (["--trials", "0"], ["--trials", "-1"], ["--jobs", "0"], ["--jobs", "-2"]):
        assert_one_line_exit_two(["verify", "empirical"] + extra, capsys)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Kernel, point, coupling and instance files for the command fuzz
    tests, good and bad, by name."""
    tmp = tmp_path_factory.mktemp("fuzz")
    kpath, xpath, ypath = _expand_inputs(tmp)
    spatial = PolyFunctional(PolyKernel(1, 1, 1, True, [MPoly(2, {(1, 1): F(1)})]))
    (tmp / "spatial.json").write_text(json.dumps(spatial.to_json()))
    save_points(tmp / "y3.csv", [(F(1),), (F(0),), (F(-1),)])
    save_points(tmp / "xy2d.csv", [(F(0), F(1)), (F(1, 2), F(-1))])
    save_coupling(tmp / "coupling.json", pair_coupling([(F(0),)], [(F(1, 2),)]))
    (tmp / "bad.json").write_text("{not json")
    # files that parse as JSON but hold the wrong structure
    (tmp / "numbers.json").write_text("[1, 2]")
    data = spatial.to_json()
    data["terms"][0]["out"] = 3
    (tmp / "out-of-range.json").write_text(json.dumps(data))
    (tmp / "instance.json").write_text(json.dumps(make_instance("empirical", 5)))
    malformed = make_instance("schwarz", 5)
    del malformed["sigma"]
    (tmp / "malformed.json").write_text(json.dumps(malformed))
    names = ("spatial.json", "y3.csv", "xy2d.csv", "coupling.json", "bad.json",
             "numbers.json", "out-of-range.json", "instance.json", "malformed.json",
             "missing.csv")
    files = {name: str(tmp / name) for name in names}
    files.update({"kernel.json": kpath, "x.csv": xpath, "y.csv": ypath})
    return files


_point_tok = st.sampled_from(["0", "1/2", "-1/2", "1,0", "1/3,-1", "x", "", "1/0", "0.5"])
_h_list = st.lists(st.sampled_from(["1/2", "1/4", "1/8", "1", "0", "-1/2", "x", "1/0", ""]),
                   min_size=1, max_size=3).map(",".join)
_small_order = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["x", "1.5"]))


def _shallow_grading(draw):
    grading = draw(st.lists(_rational, min_size=3, max_size=3))
    depth = _depth(grading)
    assume(depth is None or depth <= 4)
    return grading


@st.composite
def _expand_converge_verify_argv(draw, files):
    def pick(*names):
        return files[draw(st.sampled_from(names))]

    def maybe(*tokens):
        return list(tokens) if draw(st.booleans()) else []

    command = draw(st.sampled_from(["expand", "converge", "verify"]))
    if command == "verify":
        argv = ["verify", *maybe(draw(st.sampled_from(["empirical", "fullsystem", "expansion",
                                                       "schwarz", "bogus"])))]
        argv += maybe("--seed", str(draw(st.integers(-3, 40))))
        argv += maybe("--trials", str(draw(st.integers(-1, 2))))
        argv += maybe("--jobs", draw(st.sampled_from(["-1", "0", "1"])))
        argv += maybe("--mode", draw(st.sampled_from(["rational", "float", "exact"])))
        argv += maybe("--replay", pick("instance.json", "malformed.json", "bad.json",
                                       "numbers.json", "missing.csv", "x.csv"))
        return argv
    points = ("x.csv", "y.csv", "y3.csv", "xy2d.csv", "bad.json", "numbers.json",
              "instance.json", "missing.csv")
    argv = [command, "--kernel", pick("kernel.json", "spatial.json", "bad.json", "numbers.json",
                                      "out-of-range.json", "instance.json", "missing.csv")]
    argv += maybe("--points", pick(*points))
    argv += maybe("--order", draw(_small_order))
    argv += maybe("--grading", *_shallow_grading(draw))
    argv += maybe("--box", draw(_rational), draw(_rational))
    argv += maybe("--x0=" + draw(_point_tok))
    if command == "expand":
        argv += maybe("--points2", pick(*points))
        argv += maybe("--coupling", pick("coupling.json", "bad.json", "numbers.json",
                                         "instance.json", "missing.csv", "x.csv"))
        argv += maybe("--y0=" + draw(_point_tok))
        argv += maybe("--seq", draw(_seq))
        argv += maybe("--free-x", *draw(st.lists(_point_tok, max_size=2)))
        argv += maybe("--free-y", *draw(st.lists(_point_tok, max_size=2)))
        argv += maybe("--mode", draw(st.sampled_from(["rational", "float"])))
    else:
        argv += maybe("--directions", pick(*points))
        argv += maybe("--x0-direction=" + draw(_point_tok))
        argv += maybe("--h-list", draw(_h_list))
        argv += maybe("--output", draw(st.sampled_from(["csv", "json", "text"])))
    return argv


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_expand_converge_verify_fuzz_exit_codes(fuzz_files, data):
    argv = data.draw(_expand_converge_verify_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        if argv[0] == "expand" or "json" in argv or "--replay" in argv:
            _parse_strict(out.getvalue())


# -- fuzzing the contents of kernel and point files ---------------------------

_BAD_VALUES = {
    "e": [-1, 0, "1", 1.5, None],
    "d": [0, 2, -1, "1", None],
    "arity": [-1, 0, 3, "2", 1.5, None],
    "spatial": ["yes", None, 2],
    "out": [-1, 1, "0", 0.5, None],
    "coeff": ["x", "", "1/0", "0.5", "nan", "inf", "1e400", 1.5, None, [1]],
}
_DEFECTS = [None] * 5 + ["ragged", "negative", "row", "missing"] + sorted(_BAD_VALUES)


@st.composite
def _kernel_document(draw):
    """A kernel JSON document with at most one defect: a bad value of e, d,
    arity, spatial, out or coeff; a ragged, negative or non-integral
    exponent row; a row too many; or a missing key."""
    defect = draw(st.sampled_from(_DEFECTS))
    e, arity = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    spatial = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        exps = [[draw(st.integers(0, 2)) for _ in range(e)] for _ in range(arity + spatial)]
        coeff = draw(st.sampled_from(["1", "-1/2", "3/4", "2", 1]))
        terms.append({"out": 0, "coeff": coeff, "exps": exps})
    doc = {"e": e, "d": 1, "arity": arity, "spatial": spatial, "terms": terms}
    term, row = terms[0], draw(st.integers(0, arity + spatial - 1))
    if defect in ("e", "d", "arity", "spatial"):
        doc[defect] = draw(st.sampled_from(_BAD_VALUES[defect]))
    elif defect in ("out", "coeff"):
        term[defect] = draw(st.sampled_from(_BAD_VALUES[defect]))
    elif defect == "ragged":
        term["exps"][row] = term["exps"][row][:-1] + [1, 1]
    elif defect == "negative":
        term["exps"][row][0] = draw(st.sampled_from([-1, 1.5, "1", None]))
    elif defect == "row":
        term["exps"].append([0] * e)
    elif defect == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


_CELLS = ["0", "1", "-1", "1/2", "-2/3"]
_BAD_CELLS = ["x", "", "1/0", "0.5", "nan", "inf", "1e400", " 1"]


@st.composite
def _point_file(draw, width):
    """CSV point-file contents of rows of `width` cells with at most one
    defect: an unparsable cell, a ragged row, or an empty or JSON file."""
    defect = draw(st.sampled_from([None, None, None, "cell", "ragged", "file"]))
    if defect == "file":
        return draw(st.sampled_from(["", "\n", "[]", "[[1], [2, 3]]", '[["1/2"], [1]]']))
    n_rows = draw(st.integers(1, 3))
    rows = [[draw(st.sampled_from(_CELLS)) for _ in range(width)] for _ in range(n_rows)]
    if defect == "cell":
        rows[-1][0] = draw(st.sampled_from(_BAD_CELLS))
    elif defect == "ragged":
        rows[-1] = rows[-1] + ["1"] if draw(st.booleans()) else rows[-1][:-1]
    return "".join(",".join(r) + "\n" for r in rows)


@pytest.fixture(scope="module")
def content_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contents")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_and_point_contents_fuzz_exit_codes(content_dir, data):
    kernel, x, y = (content_dir / n for n in ("kernel.json", "x.csv", "y.csv"))
    kernel.write_text(json.dumps(data.draw(_kernel_document())))
    width = data.draw(st.sampled_from([1, 2]))
    x.write_text(data.draw(_point_file(width)))
    y.write_text(data.draw(_point_file(width)))
    common = ["--kernel", str(kernel), "--points", str(x)]
    if data.draw(st.booleans()):
        argv = ["expand", *common, "--points2", str(y)]
        if data.draw(st.booleans()):
            argv += ["--order", data.draw(st.sampled_from(["1", "2"]))]
        else:
            argv += ["--grading", "5/2", "1", "1", "--x0=0", "--y0=1/2"]
        argv += ["--box", "-4", "4"] if data.draw(st.booleans()) else []
    else:
        argv = ["converge", *common, "--directions", str(y), "--h-list", "1/2,1/4"]
        if data.draw(st.booleans()):
            argv += ["--order", "1"]
        else:
            argv += ["--grading", "5/2", "1", "1", "--x0=0", "--x0-direction=1"]
        argv += ["--output", "json"] if data.draw(st.booleans()) else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        if argv[0] == "expand" or "json" in argv:
            _parse_strict(out.getvalue())


# -- enum writes from the searches' text ---------------------------------------

def _text(values):
    return ",".join(map(str, values))


@pytest.mark.parametrize("n", range(9))
def test_enum_formats_the_library_sequences(n):
    for extra, seqs in (([], enum_A(n)), (["--tagged"], enum_A0(n))):
        values = [a.values for a in seqs]
        text = "".join((_text(v) or "()") + "\n" for v in values)
        assert run_cli(["enum", str(n), *extra]) == (0, text)
        json_text = json.dumps([list(v) for v in values]) + "\n"
        assert run_cli(["enum", str(n), *extra, "--output", "json"]) == (0, json_text)


@pytest.mark.parametrize(
    "grading",  # (gamma, alpha, beta)
    [("5/2", "1/2", "1"), ("3", "1", "1"), ("5/2", "1", "1/2")],
    ids=["alpha<beta", "alpha=beta", "alpha>beta"],
)
def test_enum_graded_text_formats_the_library_families(grading):
    gamma, alpha, beta = grading
    fam = enum_graded(Grading(alpha, beta, gamma))
    text = "".join(
        f"{name}\t{_text(a.values)}\n"
        for name in ("core", "star", "plus", "cross")
        for a in getattr(fam, name)
    )
    assert run_cli(["enum", "0", "--graded", *grading]) == (0, text)


def test_enum_over_the_cap_writes_nothing(capsys):
    for args in (
        ["enum", "13"],
        ["enum", "13", "--tagged"],
        ["enum", "13", "--output", "json"],
        ["enum", "0", "--graded", "13", "1", "1/2"],
    ):
        assert_one_line_exit_two(args, capsys)


# -- verify --replay runs the file alone ----------------------------------------

@pytest.mark.parametrize(
    "extra,name",
    [
        (["empirical"], "the identity"),
        (["--seed", "0"], "--seed"),
        (["--trials", "5"], "--trials"),
        (["--jobs", "2"], "--jobs"),
        (["--mode", "float"], "--mode"),
        (["--dump-dir", "."], "--dump-dir"),
    ],
    ids=["identity", "seed", "trials", "jobs", "mode", "dump-dir"],
)
def test_replay_refuses_batch_arguments(tmp_path, capsys, extra, name):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(make_instance("fullsystem", 3)))
    assert run_cli(["verify", "--replay", str(path)])[0] == 0
    code, text = run_cli(["verify", *extra, "--replay", str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: --replay takes no {name}\n"


def test_verify_needs_an_identity_without_replay(capsys):
    for args in (["verify"], ["verify", "--seed", "1", "--trials", "1"]):
        assert_one_line_exit_two(args, capsys)


def test_commands_run_without_scipy():
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from lionsjet.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(lionsjet.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for args in (
        ["enum", "4"],
        ["enum", "0", "--graded", "9/2", "1", "1/2"],
        ["verify", "fullsystem", "--trials", "2"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
