"""Golden CLI outputs: the SHA-256 of stdout and the exit code of a fixed set
of invocations. A refactor that keeps behaviour must keep every byte."""

import hashlib
import io
import json
from fractions import Fraction

import pytest

from lionsjet.cli import main
from lionsjet.functional import PolyFunctional, PolyKernel
from lionsjet.measures import save_points
from lionsjet.poly import MPoly

F = Fraction

# measure-only kernel k(u1, u2) = u1^2 u2 + u1^3/2 - u2 + 1
MEASURE_KERNEL = PolyKernel(
    1, 1, 2, False,
    [MPoly(2, {(2, 1): F(1), (3, 0): F(1, 2), (0, 1): F(-1), (0, 0): F(1)})],
)
# spatial kernel k(x0, u1, u2) = x0 u1 u2 + x0^2 u1 + u1^2/3
SPATIAL_KERNEL = PolyKernel(
    1, 1, 2, True,
    [MPoly(3, {(1, 1, 1): F(1), (2, 1, 0): F(1), (0, 2, 0): F(1, 3)})],
)

INVOCATIONS = {
    "enum": ["enum", "6"],
    "enum-tagged-json": ["enum", "5", "--tagged", "--output", "json"],
    "enum-kn": ["enum", "3", "--kn", "2"],
    "enum-graded": ["enum", "0", "--graded", "9/2", "1", "1/2"],
    "enum-graded-json": ["enum", "0", "--graded", "9/2", "1", "1/2", "--output", "json"],
    "enum-graded-equal": ["enum", "0", "--graded", "5/2", "1", "1"],
    "enum-json": ["enum", "7", "--output", "json"],
    "enum-zero": ["enum", "0"],
    "enum-zero-tagged": ["enum", "0", "--tagged"],
    "grade-families": ["grade", "--seq", "0,1,1", "--grading", "9/2", "1", "1/2", "--families"],
    "expand-order": ["expand", "--kernel", "{measure}", "--points", "{x}",
                     "--points2", "{y}", "--order", "3"],
    "expand-graded": ["expand", "--kernel", "{spatial}", "--points", "{x}",
                      "--points2", "{y}", "--grading", "9/4", "1/2", "1",
                      "--x0=1/4", "--y0=-1/2"],
    "expand-float": ["expand", "--kernel", "{measure}", "--points", "{x}",
                     "--points2", "{y}", "--order", "3", "--mode", "float"],
    "expand-seq": ["expand", "--kernel", "{spatial}", "--points", "{x}",
                   "--points2", "{y}", "--grading", "3", "1/2", "1",
                   "--x0=1/4", "--y0=-1/2", "--seq", "1",
                   "--free-x", "1/3", "--free-y", "2/3"],
    "expand-box": ["expand", "--kernel", "{measure}", "--points", "{x}",
                   "--points2", "{y}", "--order", "2", "--box", "-4", "4"],
    "expand-graded-box": ["expand", "--kernel", "{spatial}", "--points", "{x}",
                          "--points2", "{y}", "--grading", "9/4", "1/2", "1",
                          "--x0=1/4", "--y0=-1/2", "--box", "-4", "4"],
    "expand-graded-box-float": ["expand", "--kernel", "{spatial}", "--points", "{x}",
                                "--points2", "{y}", "--grading", "9/4", "1/2", "1",
                                "--x0=1/4", "--y0=-1/2", "--box", "-4", "4",
                                "--mode", "float"],
    "converge-csv": ["converge", "--kernel", "{measure}", "--points", "{x}",
                     "--directions", "{dirs}", "--order", "2",
                     "--h-list", "1/2,1/4,1/8", "--box", "-4", "4"],
    "converge-json": ["converge", "--kernel", "{measure}", "--points", "{x}",
                      "--directions", "{dirs}", "--order", "2",
                      "--h-list", "1/2,1/4,1/8", "--box", "-4", "4",
                      "--output", "json"],
    "converge-graded": ["converge", "--kernel", "{spatial}", "--points", "{x}",
                        "--directions", "{dirs}", "--grading", "9/4", "1/2", "1",
                        "--x0=1/4", "--x0-direction=1",
                        "--h-list", "1/2,1/4,1/8", "--box", "-4", "4"],
    "verify-expansion": ["verify", "expansion", "--trials", "5", "--seed", "1000"],
    "verify-expansion-float": ["verify", "expansion", "--trials", "5", "--seed", "1000",
                               "--mode", "float"],
}

GOLDEN = {
    "converge-csv": (0, "65beabae1d15abb733fbc060b85cee658b7f1bfea9267dd42f33c55787781a29"),
    "converge-json": (0, "c40351bc63d2d5ee7db3711ae6a8628eed42512bd539b7cc12b7ac16b460cd62"),
    "converge-graded": (0, "3e9dec77ee683efef2adbc284f91926f1fcc3937f181649e7939c538e399bd3c"),
    "enum": (0, "08d4f6e3bd4a589f8c381987372bfc88e9739cb6cad6af0686efb5ad88c9be5f"),
    "enum-graded": (0, "b56cfadc59dc2e3d91674b0e55d663e057f16c8cdc39ca41bd55461daf5880c4"),
    "enum-graded-equal": (0, "2777f6361ff42a2cc2f63f2b417258b5b43dee05e8c685a623a66d3dbb7335d9"),
    "enum-graded-json": (0, "145b6ff6f78d26ee905f4567dd394b3cd4501e5722a95a8c5adf542073fbc8f3"),
    "enum-json": (0, "432e892545c9e183ad9de6b4a5a4b2bc027f5a04ea3985e764c686789acdb1aa"),
    "enum-kn": (0, "9b45a4bae332df0ce31a2ffe81dcbb07e1ae369560e0e3da8bb50100d9e8db49"),
    "enum-tagged-json": (0, "d3f0dcce16c46263eac5044c7da59a3fd7d3a3c68892b24b256126913cdd8bdd"),
    "enum-zero": (0, "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b"),
    "enum-zero-tagged": (0, "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b"),
    "expand-box": (0, "e9016d49d97fa91ce73430cf549bdb36ec8042df1f713d2077391f4e2a6127a7"),
    "expand-graded": (0, "50e974f46d4ce15a2f06f3c10eef099a39de0415bb93cdc9cb5d7e74b1bde193"),
    "expand-float": (0, "62210bee24957ca7f5e97f528ad540b449190aa73b2be8d46f488df8677f31c0"),
    "expand-graded-box-float": (0, "98140c8c70a642203bfc7dfd5fb5d611d6fc0bb7bbeb21b4a41bf2b6c181c7fc"),
    "expand-graded-box": (0, "9f4df174e24d8f818f13d962b9b8a8e43a3fb392069b40fd5caf427651cd7c15"),
    "expand-order": (0, "04726b0f71dbc016a0afacb39b328378788beb23f092fcb3cb198a492391d5de"),
    "expand-seq": (0, "df667393a3a9d4ba516cbd3cb7dc02ffa91921a282c6b87fc34688108f9c40ce"),
    "grade-families": (0, "2afe51baf4344e0ad49f49a57d6f377d67cc2d7e44a4840d0a2ecd1f08aa6ef0"),
    "verify-expansion": (0, "5fd77539456db8ffbb4bd8f4a9d975e3c5eb3f0626dc7bf5dfa280555c493b48"),
    "verify-expansion-float": (0, "c50484498002d34fc933fce1051b52e9b69798ae8b14ef079f0891ea3b01be7e"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, kernel in (("measure", MEASURE_KERNEL), ("spatial", SPATIAL_KERNEL)):
        paths[name] = d / f"{name}.json"
        paths[name].write_text(json.dumps(PolyFunctional(kernel).to_json()))
    for name, pts in (
        ("x", [(F(0),), (F(1, 2),), (F(-1),)]),
        ("y", [(F(1, 3),), (F(1),), (F(-1, 2),)]),
        ("dirs", [(F(1),), (F(-1, 2),), (F(1, 3),)]),
    ):
        paths[name] = d / f"{name}.csv"
        save_points(paths[name], pts)
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_is_byte_identical(name, inputs):
    argv = [arg.format(**inputs) for arg in INVOCATIONS[name]]
    out = io.StringIO()
    code = main(argv, out=out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[name]
