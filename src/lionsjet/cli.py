"""Command-line front end: enumeration, grading, verification batches,
expansion evaluation, and convergence studies.

Verification batches are driven by a seed: every trial is a pure function of
(base seed + trial index), so runs are reproducible byte for byte and a
failing trial can be dumped as a self-contained JSON instance and replayed.

Exit codes: 0 success, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from .errors import ValidationError
from .expansion import convergence_study, taylor1, taylor2, taylor_derivative
from .functional import PolyFunctional, PolyKernel
from .measures import _as_point, _coordinate_text, load_coupling, load_points, pair_coupling
from .oracle import (
    Report,
    schwarz_check,
    verify_empirical_deriv,
    verify_expansion_match,
    verify_fullsystem,
)
from .poly import MPoly, format_rational, json_int, parse_rational
from .tagged import Grading, TaggedSeq, enum_A0, enum_Akn0, enum_graded, families_of, grade
from .tagged import _graded_value_families, _sequences


# ---------------------------------------------------------------------------
# seeded instance generation

def gen_kernel(rng, e, d, arity, spatial, degree=3):
    """Random polynomial kernel with small rational coefficients: four
    monomial draws per component (a repeated exponent keeps the last)."""
    nvars = (arity + spatial) * e
    comps = []
    for _ in range(d):
        terms = {}
        for _ in range(4):
            exps = [0] * nvars
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(nvars)] += 1
            num = rng.randint(-3, 3) or 1
            terms[tuple(exps)] = Fraction(num, rng.randint(1, 2))
        comps.append(MPoly(nvars, terms))
    return PolyFunctional(PolyKernel(e, d, arity, spatial, comps))


def gen_point(rng, e, as_float=False):
    pt = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(e))
    return tuple(map(float, pt)) if as_float else pt


def gen_points(rng, n, e, as_float=False):
    return [gen_point(rng, e, as_float) for _ in range(n)]


_GRADING_POOL = [
    (1, 1, Fraction(5, 2)),
    (1, 1, Fraction(7, 2)),
    (Fraction(1, 2), 1, Fraction(9, 4)),
    (Fraction(1, 2), 1, Fraction(3, 2)),
    (1, Fraction(1, 2), Fraction(9, 4)),
    (1, Fraction(1, 2), Fraction(3, 2)),
    (Fraction(1, 3), 1, Fraction(5, 3)),
    (1, 3, Fraction(3, 2)),
    (3, 1, Fraction(3, 2)),
    (Fraction(2, 3), 1, 3),
]


def _tolerance(mode):
    return 0.0 if mode == "rational" else 1e-9


def make_instance(identity, seed, mode="rational"):
    """Deterministic instance payload for one verification trial."""
    rng = random.Random(seed)
    as_float = mode == "float"
    inst = {"identity": identity, "seed": seed, "mode": mode}
    if identity in ("empirical", "fullsystem"):
        spatial = identity == "fullsystem"  # a spatial slot, and the distinguished particle i
        e = rng.choice([1, 1, 2])
        n_particles = rng.randint(1, 5)
        f = gen_kernel(rng, e, 1, rng.randint(1, 2 if spatial else 3), spatial, degree=3)
        idx = tuple(rng.randint(1, n_particles) for _ in range(rng.randint(1, 3)))
        inst.update(
            kernel=f.to_json(),
            points=_points_json(gen_points(rng, n_particles, e, as_float)),
            idx=list(idx),
        )
        if spatial:
            inst["i"] = rng.randint(1, n_particles)
    elif identity == "expansion":
        e = rng.choice([1, 1, 1, 2])
        n_particles = rng.randint(1, 3)
        spatial = rng.random() < 0.5
        f = gen_kernel(rng, e, 1, rng.randint(1, 2), spatial, degree=3)
        inst.update(
            kernel=f.to_json(),
            points=_points_json(gen_points(rng, n_particles, e, as_float)),
            points2=_points_json(gen_points(rng, n_particles, e, as_float)),
            order=rng.randint(1, 2),
        )
        if spatial:
            a, b, g = rng.choice(_GRADING_POOL)
            inst["grading"] = Grading(a, b, g).to_json()
            inst["x0"] = _point_json(gen_point(rng, e, as_float))
            inst["y0"] = _point_json(gen_point(rng, e, as_float))
    elif identity == "schwarz":
        e = rng.choice([1, 2])
        f = gen_kernel(rng, e, 1, rng.randint(1, 2), True, degree=4)
        n = rng.randint(0, 3)
        seqs = [a for a in enum_A0(n)]
        a = rng.choice(seqs)
        sigma = list(range(n))
        rng.shuffle(sigma)
        n_particles = rng.randint(max(1, a.m), 4)
        pts = gen_points(rng, n_particles, e, as_float)
        inst.update(
            kernel=f.to_json(),
            points=_points_json(pts),
            seq=list(a.values),
            sigma=sigma,
            x0=_point_json(gen_point(rng, e, as_float)),
            dirs=_points_json(gen_points(rng, n, e, as_float)),
            free_labels=[rng.randrange(n_particles) for _ in range(a.m)],
        )
    else:
        raise ValidationError(f"unknown identity {identity}")
    return inst


def _point_json(p):
    return list(map(_coordinate_text, p))


def _points_json(pts):
    return [_point_json(p) for p in pts]


def _parse_point(p):
    return _as_point(c if "/" in c or "." not in c else float(c) for c in p)


def _parse_points(pts):
    return [_parse_point(p) for p in pts]


def run_instance(inst):
    """Run one dumped or generated instance; returns a Report."""
    from .measures import EmpiricalMeasure

    identity = inst["identity"]
    seed = inst.get("seed")
    tol = _tolerance(inst.get("mode", "rational"))
    f = PolyFunctional.from_json(inst["kernel"])
    points = _parse_points(inst["points"])
    if identity == "empirical":
        rep = verify_empirical_deriv(
            f, len(points), tuple(inst["idx"]), points=points, seed=seed
        )
    elif identity == "fullsystem":
        rep = verify_fullsystem(
            f, len(points), inst["i"], tuple(inst["idx"]), points=points, seed=seed
        )
    elif identity == "expansion":
        y = _parse_points(inst["points2"])
        rep = verify_expansion_match(f, points, y, inst["order"], seed=seed)
        if rep.max_abs_difference <= tol and "grading" in inst:
            g = Grading.from_json(inst["grading"])
            c = pair_coupling(points, y)
            res = taylor2(
                f, _parse_point(inst["x0"]), _parse_point(inst["y0"]), c, g
            )
            gap = float(res.identity_gap())
            rep.details["graded_identity_gap"] = gap
            rep.max_abs_difference = max(rep.max_abs_difference, gap)
    elif identity == "schwarz":
        mu = EmpiricalMeasure(points)
        a = TaggedSeq(tuple(inst["seq"]))
        free = [mu.atoms[j] for j in inst["free_labels"]]
        rep = schwarz_check(
            f,
            a,
            tuple(inst["sigma"]),
            _parse_point(inst["x0"]),
            mu,
            free,
            _parse_points(inst["dirs"]),
            seed=seed,
        )
    else:
        raise ValidationError(f"unknown identity {identity}")
    rep.passed = rep.max_abs_difference <= tol
    return rep


def _trial(args):
    """One batch trial. A trial that raises is a failure like any other: its
    report carries an infinite difference and the error, and the batch goes
    on."""
    identity, seed, mode = args
    inst = make_instance(identity, seed, mode)
    try:
        rep = run_instance(inst)
    except Exception as exc:
        rep = Report(identity, math.inf, False, seed, {"error": repr(exc)})
    return inst, rep


# ---------------------------------------------------------------------------
# commands

def _strict(data):
    """JSON data with every non-finite float replaced by its name, the
    string "inf", "-inf" or "nan"."""
    if isinstance(data, float):
        return data if math.isfinite(data) else repr(data)
    if isinstance(data, dict):
        return {key: _strict(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_strict(value) for value in data]
    return data


def _print_json(data, out, indent=None):
    """Print `data` as strict JSON: a non-finite float as its name."""
    print(json.dumps(_strict(data), indent=indent, allow_nan=False), file=out)


def _grading_arg(values):
    gamma, alpha, beta = (parse_rational(v) for v in values)
    return Grading(alpha, beta, gamma)


def _cmd_enum(args, out):
    """Writes the texts the searches build, prefix by prefix; `--kn` and
    graded JSON format the library's objects instead."""
    if args.graded:
        if args.kn is not None or args.tagged:
            raise ValidationError("--graded cannot be combined with --kn or --tagged")
        if args.n != 0:
            raise ValidationError(
                f"enum --graded lists every length up to the grading; pass 0, not {args.n}"
            )
        g = _grading_arg(args.graded)
        if args.output == "json":
            print(json.dumps(enum_graded(g).to_json(), indent=2), file=out)
            return 0
        families = _graded_value_families(g.alpha, g.beta, g.gamma, 0, 0, ",")
        # each text ends in its separator; the replace drops it
        out.write("".join(
            f"{name}\t" + f"\n{name}\t".join(family) + "\n"
            for name, family in zip(("core", "star", "plus", "cross"), families)
            if family
        ).replace(",\n", "\n"))
        return 0
    if args.kn is not None and args.tagged:
        raise ValidationError("--kn lists tagged sequences and takes no --tagged")
    sep = ", " if args.output == "json" else ","
    if args.kn is not None:
        texts = [sep.join(map(str, a.values)) for a in enum_Akn0(args.kn, args.n)]
    else:
        texts = _sequences(args.n, 0 if args.tagged else 1, 0, sep)
    if args.output == "json":
        out.write("[[" + "], [".join(texts) + "]]\n")
    else:
        out.write(("\n".join(texts) or "()") + "\n")
    return 0


def _cmd_grade(args, out):
    g = _grading_arg(args.grading)
    a = TaggedSeq(tuple(int(v) for v in args.seq.split(",")) if args.seq else ())
    value = grade(a, g)
    if args.families:
        membership = families_of(a, g)
        print(json.dumps({"grade": format_rational(value), "families": membership}), file=out)
    else:
        print(format_rational(value), file=out)
    return 0


def _cmd_verify(args, out):
    if args.replay:
        batch = zip(
            ("the identity", "--seed", "--trials", "--jobs", "--mode", "--dump-dir"),
            (args.identity, args.seed, args.trials, args.jobs, args.mode, args.dump_dir),
        )
        given = [name for name, value in batch if value is not None]
        if given:
            raise ValidationError(f"--replay takes no {', '.join(given)}")
        with open(args.replay) as fh:
            inst = json.load(fh, parse_int=json_int)
        try:
            rep = run_instance(inst)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed instance: {exc!r}") from exc
        _print_json(rep.to_json(), out)
        return 0 if rep.passed else 1
    if args.identity is None:
        raise ValidationError("verify needs an identity or --replay")
    seed = 0 if args.seed is None else args.seed
    n_trials = 100 if args.trials is None else args.trials
    jobs = 1 if args.jobs is None else args.jobs
    mode = args.mode or "rational"
    if n_trials < 1 or jobs < 1:
        raise ValidationError("--trials and --jobs must be at least 1")
    trials = [(args.identity, seed + k, mode) for k in range(n_trials)]
    if jobs > 1:
        # a fork pool starts all its workers at once: no more than can run
        workers = min(jobs, len(trials), os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial, trials))
    else:
        results = [_trial(t) for t in trials]
    failures = 0
    for inst, rep in results:
        status = "ok" if rep.passed else "FAIL"
        print(
            f"{status} seed={inst['seed']} identity={rep.identity} "
            f"max_abs_difference={rep.max_abs_difference}",
            file=out,
        )
        if not rep.passed:
            failures += 1
            if args.dump_dir:
                path = f"{args.dump_dir}/failure-{inst['identity']}-{inst['seed']}.json"
                with open(path, "w") as fh:
                    json.dump(inst, fh, indent=2)
                print(f"instance dumped to {path}", file=out)
            else:
                _print_json(inst, out)
    print(f"{len(results) - failures}/{len(results)} passed", file=out)
    return 1 if failures else 0


def _load_functional(path):
    with open(path) as fh:
        return PolyFunctional.from_json(json.load(fh, parse_int=json_int))


def _read(load, path, what):
    """load(path), where a file that parses but does not hold a `what` (a
    missing key, an index out of range, a value of the wrong type) is bad
    input like any other."""
    try:
        return load(path)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValidationError(f"malformed {what} file {path}: {exc!r}") from None


def _cmd_expand(args, out):
    if args.order is None and args.grading is None:
        raise ValidationError("expand needs --order or --grading")
    if args.order is None and (args.x0 is None or args.y0 is None):
        raise ValidationError("--grading needs --x0 and --y0")
    if not args.coupling and None in (args.points, args.points2):
        raise ValidationError("expand needs --coupling or --points and --points2")
    if args.coupling and (args.points, args.points2) != (None, None):
        raise ValidationError("--coupling takes no --points or --points2")
    if args.order is not None and (args.grading, args.x0, args.y0, args.seq) != (None,) * 4:
        raise ValidationError("--order takes no --grading, --x0, --y0 or --seq")
    if args.seq is None and (args.free_x, args.free_y) != (None, None):
        raise ValidationError("--free-x and --free-y need --seq")
    if args.seq and args.box:
        raise ValidationError("--box bounds are not available for --seq expansions")
    f = _read(_load_functional, args.kernel, "kernel")
    if args.coupling:
        c = _read(load_coupling, args.coupling, "coupling")
    else:
        x = _read(load_points, args.points, "point")
        y = _read(load_points, args.points2, "point")
        c = pair_coupling(x, y)
    if args.mode == "float":
        c = pair_coupling(
            [tuple(map(float, p)) for p, _ in c.pairs],
            [tuple(map(float, q)) for _, q in c.pairs],
        )
    box = tuple(float(v) for v in args.box) if args.box else None
    num = float if args.mode == "float" else Fraction
    point = lambda s: tuple(num(parse_rational(v)) for v in s.split(","))
    if args.order is not None:
        result = taylor1(f, c.left(), c, args.order, box=box)
    else:
        g = _grading_arg(args.grading)
        x0, y0 = point(args.x0), point(args.y0)
        if args.seq:
            a = TaggedSeq(tuple(int(v) for v in args.seq.split(",")))
            fx = [point(s) for s in (args.free_x or [])]
            fy = [point(s) for s in (args.free_y or [])]
            result = taylor_derivative(f, a, x0, y0, fx, fy, c, g)
        else:
            result = taylor2(f, x0, y0, c, g, box=box)
    _print_json(result.to_json(floats=args.mode == "float"), out, indent=2)
    return 0


def _cmd_converge(args, out):
    if args.order is None and args.grading is None:
        raise ValidationError("converge needs --order or --grading")
    if args.order is None and (args.x0 is None or args.x0_direction is None):
        raise ValidationError("--grading needs --x0 and --x0-direction")
    if args.order is not None and (args.grading, args.x0, args.x0_direction) != (None,) * 3:
        raise ValidationError("--order takes no --grading, --x0 or --x0-direction")
    f = _read(_load_functional, args.kernel, "kernel")
    pts = _read(load_points, args.points, "point")
    dirs = _read(load_points, args.directions, "point")
    if len(dirs) != len(pts):
        raise ValidationError(
            f"{len(dirs)} direction rows for {len(pts)} points; need one per point"
        )
    hs = [parse_rational(h) for h in args.h_list.split(",")]
    if args.order is not None:
        spec = args.order
        x0 = dx0 = None
    else:
        spec = _grading_arg(args.grading)
        x0 = tuple(parse_rational(v) for v in args.x0.split(","))
        dx0 = tuple(parse_rational(v) for v in args.x0_direction.split(","))
    box = tuple(float(v) for v in args.box) if args.box else None
    rows, slope = convergence_study(
        f, pts, dirs, spec, hs, x0=x0, x0_direction=dx0, box=box
    )
    if args.output == "json":
        _print_json({"rows": rows, "slope": "exact" if slope is None else slope}, out, indent=2)
        return 0
    print("h,remainder,bound", file=out)
    for row in rows:
        bound = "" if row["bound"] is None else row["bound"]
        print(f"{row['h']},{row['remainder']},{bound}", file=out)
    print(f"# slope: {'exact' if slope is None else slope}", file=out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, like any other bad
    input, instead of the usage text and an error line."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="lionsjet",
        description="partition-sequence combinatorics and exact jet expansions "
        "for polynomial measure functionals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate partition sequences")
    p.add_argument("n", type=int)
    p.add_argument("--tagged", action="store_true")
    p.add_argument("--kn", type=int, default=None, help="zeros count for the shuffle family")
    p.add_argument("--graded", nargs=3, metavar=("GAMMA", "ALPHA", "BETA"))
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("grade", help="grade a tagged sequence")
    p.add_argument("--seq", default="", help="comma-separated entries, empty for the empty sequence")
    p.add_argument("--grading", nargs=3, metavar=("GAMMA", "ALPHA", "BETA"), required=True)
    p.add_argument("--families", action="store_true")

    # None defaults, so that --replay can refuse them; _cmd_verify applies the real ones
    p = sub.add_parser("verify", help="run a seeded verification batch")
    p.add_argument(
        "identity", nargs="?", choices=("empirical", "fullsystem", "expansion", "schwarz")
    )
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--trials", type=int, help="default 100")
    p.add_argument("--jobs", type=int, help="default 1")
    p.add_argument("--mode", choices=("rational", "float"), help="default rational")
    p.add_argument("--dump-dir")
    p.add_argument("--replay", help="re-run a dumped instance file, alone")

    p = sub.add_parser("expand", help="evaluate one expansion")
    p.add_argument("--kernel", required=True)
    p.add_argument("--coupling")
    p.add_argument("--points")
    p.add_argument("--points2")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--grading", nargs=3, metavar=("GAMMA", "ALPHA", "BETA"))
    p.add_argument("--x0")
    p.add_argument("--y0")
    p.add_argument("--seq", default=None, help="expand this derivative instead")
    p.add_argument("--free-x", nargs="*")
    p.add_argument("--free-y", nargs="*")
    p.add_argument("--box", nargs=2, metavar=("LO", "HI"))
    p.add_argument("--mode", choices=("rational", "float"), default="rational")
    p.add_argument("--output", choices=("json",), default="json")

    p = sub.add_parser("converge", help="remainder decay study, CSV output")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--directions", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--grading", nargs=3, metavar=("GAMMA", "ALPHA", "BETA"))
    p.add_argument("--x0")
    p.add_argument("--x0-direction")
    p.add_argument("--h-list", default="1/2,1/4,1/8,1/16,1/32,1/64")
    p.add_argument("--box", nargs=2, metavar=("LO", "HI"))
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    return parser


_parser = functools.cache(build_parser)  # one parser per process


def main(argv=None, out=None):
    """Execute one command line; returns the process exit status."""
    out = out or sys.stdout
    commands = {
        "enum": _cmd_enum,
        "grade": _cmd_grade,
        "verify": _cmd_verify,
        "expand": _cmd_expand,
        "converge": _cmd_converge,
    }
    try:
        args = _parser().parse_args(argv)
        return commands[args.command](args, out)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except (ValueError, OSError, OverflowError) as exc:
        # ValidationError and json.JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
