"""lionsjet benchmark: seeded closed-loop workloads over the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lionsjet checkout; the package is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, measured with tracing off; with `--trace 1` half the
time runs untraced and half traced, and the metrics are the per-layer ones
plus the tracing overhead. Op times are scaled to a reference host speed
(see CAL_REF); the unscaled figures are printed beside them. `--workload all`
runs every workload in turn.

Other modes: `--replay I` re-runs op I of a workload and seed and checks it;
`--write-reference` recomputes `reference.json`, the SHA-256 digests (first
32 hex digits) of the exact outputs of every op of the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_STARTS = 11
# Host speed. On a shared machine the same op can take 1.8x longer for
# seconds at a time, and a fixed calibration loop slows in step with it, so
# op times are scaled by CAL_REF / (the loop's CPU time measured next to the
# op): they read as at the speed where the loop takes CAL_REF seconds.
CAL_EVERY = 0.1  # seconds of wall time between calibrations
CAL_REF = 0.0025

SCALING = (
    "taylor1_o2_n4", "taylor1_o2_n8", "taylor1_o2_n16", "taylor1_o2_n32",
    "taylor1_o3_n4", "taylor1_o3_n8", "taylor2_n4", "taylor2_n8", "taylor2_n16",
)


def metric_units():
    """(end-to-end, per-layer) metric names and units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


@dataclass(slots=True)
class Record:
    index: int
    label: str
    cpu: float  # seconds
    wall: float  # seconds
    error: str | None  # why the op failed
    ratio: float | None  # bound / remainder norm, for bound ops
    digest: str | None  # of the exact outputs, when computed
    scale: float = 1.0  # host-speed factor applied to cpu and wall


# ---------------------------------------------------------------------------
# running ops


def _load_reference(seed):
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    try:
        return json.loads(REFERENCE.read_text())["workloads"]
    except (OSError, ValueError, KeyError):
        return {}


def run_op(wl, index, reference=None, tracer=None, digest=False):
    """Run op `index` once: time it, check its output and, with a reference,
    compare the digest of its exact outputs. Never raises."""
    op = wl.op(index)
    if tracer is not None:
        tracer.op = index
    error = ratio = sha = None
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        error = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if error is None:
        try:
            ratio = op.check(output)
            if (digest or reference is not None) and op.exact is not None:
                sha = hashlib.sha256(op.exact(output).encode()).hexdigest()[:32]
            if reference is not None and sha is not None:
                refs = reference.get(wl.name) or []
                i = wl.pool_index(index)
                if sha != (refs[i] if i < len(refs) else None):
                    error = "digest of exact outputs differs from reference.json"
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    return Record(index, op.label, cpu, wall, error, ratio, sha)


def calibrate():
    """CPU seconds of a fixed `Fraction` loop that uses no lionsjet code."""
    start = time.process_time()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1) * 3
    return time.process_time() - start


def run_loop(wl, seconds, min_cycles, reference=None, tracer=None):
    """Closed loop from op 0: one op at a time until `seconds` have passed
    and at least `min_cycles` cycles are complete. Every CAL_EVERY seconds
    the host speed is measured, and the ops since the last measurement get
    the mean of the two measurements around them as their scale."""
    need = min_cycles * wl.cycle_len
    records, pending = [], []
    before, last = calibrate(), time.perf_counter()
    start = time.perf_counter()
    while len(records) < need or time.perf_counter() - start < seconds:
        records.append(run_op(wl, len(records), reference, tracer))
        pending.append(records[-1])
        if time.perf_counter() - last >= CAL_EVERY:
            after, last = calibrate(), time.perf_counter()
            for r in pending:
                r.scale = 2 * CAL_REF / (before + after)
            pending, before = [], after
    after = calibrate()
    for r in pending:
        r.scale = 2 * CAL_REF / (before + after)
    return records


def complete_cycles(wl, records):
    return records[: len(records) // wl.cycle_len * wl.cycle_len]


def ops_per_s(wl, records):
    done = complete_cycles(wl, records) or records
    return len(done) / sum(r.wall * r.scale for r in done)


def tail(values):
    """The value at the highest percentile with at least ten samples beyond
    it, and that percentile."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return statistics.median(values), 50.0
    return values[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# measurements outside the loop


def setup_seconds(name, seed):
    """Median wall time from starting a fresh interpreter to the point where
    the first op would run: interpreter start, `import lionsjet` and the
    generation of the workload's inputs."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed")
    return statistics.median(times)


def source_lines():
    out = {}
    for path in sorted((SRC / "lionsjet").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        out[f"{name}.src_lines"] = sum(1 for line in path.read_text().splitlines() if line.strip())
    out["lionsjet.src_lines"] = sum(out.values())
    return out


def loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(wl, seed, seconds):
    records = run_loop(wl, seconds, wl.sample_cycles, _load_reference(seed))
    sample = records[: wl.sample_cycles * wl.cycle_len]
    cpu_ms = [r.cpu * r.scale * 1e3 for r in sample]
    tail_ms, tail_pct = tail(cpu_ms)
    done = complete_cycles(wl, records)
    raw_ms = [r.cpu * 1e3 for r in sample]
    metrics = {
        "ops_per_s": ops_per_s(wl, records),
        "op_p50_ms": statistics.median(cpu_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_seconds(wl.name, seed),
    }
    notes = {
        "ops_per_s": f"{len(done)} ops in {len(done) // wl.cycle_len} complete cycles; "
        f"unscaled {len(done) / sum(r.wall for r in done):.6g}",
        "op_p50_ms": f"CPU time, {len(sample)} samples; unscaled {statistics.median(raw_ms):.6g}; "
        f"median host-speed scale {statistics.median(r.scale for r in sample):.3f}",
        "op_tail_ms": f"CPU time, p{tail_pct:.1f} of {len(sample)} samples; unscaled {tail(raw_ms)[0]:.6g}",
        "setup_s": f"median of {SETUP_STARTS} starts, unscaled",
    }
    return records, metrics, notes, metric_units()[0]


def traced(wl, seed, seconds):
    from tracing import Tracer

    reference = _load_reference(seed)
    untraced = run_loop(wl, seconds / 2, wl.trace_cycles, reference)
    tracer = Tracer()
    tracer.install()
    try:
        with_spans = run_loop(wl, seconds / 2, wl.trace_cycles, reference, tracer)
    finally:
        tracer.remove()
    ops = range(wl.trace_cycles * wl.cycle_len)
    layers = tracer.summary({r.index: r.scale for r in with_spans[: len(ops)]})
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.txt")

    by_label = {}
    for r in complete_cycles(wl, untraced):
        by_label.setdefault(r.label, []).append(r.cpu * r.scale * 1e3)
    for label in SCALING:
        layers[f"expansion.{label}_ms"] = statistics.median(by_label.get(label, [0.0]))
    o2 = [by_label.get(f"taylor1_o2_n{n}") for n in (4, 8, 16, 32)]
    layers["expansion.taylor1_o2_n_slope"] = (
        loglog_slope((4, 8, 16, 32), [statistics.median(v) for v in o2]) if all(o2) else 0.0
    )
    ratios = sorted(r.ratio for r in untraced if r.index in ops and r.ratio is not None)
    layers["expansion.bound_ratio_p50"] = statistics.median(ratios) if ratios else 0.0
    layers["expansion.bound_ratio_max"] = max(ratios, default=0.0)
    layers.update(source_lines())
    base = sum(r.wall * r.scale for r in untraced[: len(ops)])
    layers["trace.overhead_pct"] = 100.0 * (sum(r.wall * r.scale for r in with_spans[: len(ops)]) / base - 1)
    layers["trace.ops_per_s_untraced"] = ops_per_s(wl, untraced)
    layers["trace.ops_per_s_traced"] = ops_per_s(wl, with_spans)

    units = metric_units()[1]
    metrics = {name: layers.get(name, 0) for name in units}
    (OUT / f"layers-{wl.name}-seed{seed}.json").write_text(json.dumps(layers, indent=1, sort_keys=True))
    notes = {
        "trace.overhead_pct": f"wall time of ops 0-{len(ops) - 1}, traced vs untraced",
    }
    print(f"figures of workload {wl.name} not in BENCHMARK.json:")
    for extra in sorted(set(layers) - set(units)):
        print(f"  {extra:40s} {layers[extra]:.6g}")
    return untraced + with_spans, metrics, notes, units


# ---------------------------------------------------------------------------
# entry points


def report(wl, seed, records, metrics, notes, units):
    failed = [r for r in records if r.error]
    print(f"workload {wl.name} seed {seed}: {len(records)} ops attempted, {len(failed)} failed")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:.6g} {units[name]}{note}")
    print(f"  {'failed_frac':40s} {len(failed) / len(records):.6g}  ({len(failed)}/{len(records)})")
    for r in failed:
        msg = (
            f"FAILED workload={wl.name} seed={seed} op={r.index} ({r.label}): {r.error}; replay: "
            f"python3 perfbench/run.py --workload {wl.name} --seed {seed} --replay {r.index}"
        )
        print(msg)
        print(msg, file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    status, total = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return status


def replay(wl, seed, index):
    """Re-run op `index`, after the ops before it in its cycle (a bound op
    checks against the expansion the op before it computed)."""
    reference = _load_reference(seed)
    for i in range(index - index % wl.cycle_len, index):
        run_op(wl, i, reference)
    record = run_op(wl, index, reference)
    status = "FAILED: " + record.error if record.error else "ok"
    print(f"workload {wl.name} seed {seed} op {index} ({record.label}): {record.cpu * 1e3:.3f} ms CPU, {status}")
    return 1 if record.error else 0


def write_reference(names):
    from workloads import DEFAULT_SEED, WORKLOADS

    try:
        data = json.loads(REFERENCE.read_text())
    except OSError:
        data = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in names:
        wl = WORKLOADS[name](DEFAULT_SEED)
        records = [run_op(wl, index, digest=True) for index in range(wl.pool_size())]
        for record in records:
            if record.error:
                print(f"op {record.index} ({record.label}) failed: {record.error}", file=sys.stderr)
                return 1
        digests = [record.digest for record in records]
        data["workloads"][name] = digests
        print(f"{name}: {sum(d is not None for d in digests)} digests")
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, default=None, metavar="I")
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lionsjet" / "__init__.py").is_file():
        print(f"perfbench: no lionsjet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    if args.write_reference:
        return write_reference(list(WORKLOADS) if args.workload == "all" else [args.workload])
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.replay is not None:
        return replay(wl, args.seed, args.replay)
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    return report(wl, args.seed, *run(wl, args.seed, args.seconds))


if __name__ == "__main__":
    sys.exit(main())
