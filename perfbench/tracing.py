"""Spans around the public functions of every lionsjet module.

`Tracer.install` replaces each function in `TRACED` by a wrapper that records
one span per call: (name, start, end, parent span, op index). The function is
replaced in every lionsjet module that bound it by name, so that calls from
one module into another are traced too; `remove` puts the originals back.
Methods in `COUNTED` are called too often for a span each and are only
counted. Spans stay in memory until `write` saves them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("partitions", "tagged", "poly", "functional", "measures", "expansion", "oracle", "cli")

TRACED = (
    "partitions.enum_A",
    "tagged.enum_A0",
    "tagged.enum_Akn0",
    "tagged.enum_graded",
    "tagged.graded_families_ext",
    "functional.lions_derivative",
    "functional.eval_derivative",
    "functional.contract_derivative",
    "functional.norms_on_box",
    "measures.coupling_moment",
    "expansion.taylor1",
    "expansion.taylor2",
    "expansion.taylor_derivative",
    "expansion.remainder_bound1",
    "expansion.remainder_bound2",
    "oracle.lift",
    "oracle.verify_empirical_deriv",
    "oracle.verify_fullsystem",
    "oracle.verify_expansion_match",
    "oracle.schwarz_check",
    "oracle.convergence_study",
    "cli.make_instance",
    "cli.run_instance",
    "cli.main",
)
COUNTED = ("poly.MPoly.diff", "poly.XiPoly.integrate_weighted")


def _jet_or_remainder(frame):
    """Whether a contract_derivative call serves a jet term or a remainder
    term of an expansion, from the names of the frames that called it."""
    for _ in range(3):
        if frame is None:
            return None
        name = frame.f_code.co_name
        if name == "diff":
            return "remainder_terms"
        if name in ("<lambda>", "eval_Da"):
            return "jet_terms"
        if name == "taylor1":
            return "remainder_terms" if "remainder_terms" in frame.f_locals else "jet_terms"
        frame = frame.f_back
    return None


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span, op)
        self.stack = []
        self.op = -1
        # Observations keyed by (metric, op), so that totals can be taken
        # over any set of ops.
        self.counts = Counter()
        self.ms = Counter()
        self.keys = defaultdict(list)  # (name, op) -> derivative keys seen
        self.keep = {}  # functionals seen, kept alive so their ids stay unique
        self._patches = []

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"lionsjet.{m}") for m in MODULES]
        modules.append(importlib.import_module("lionsjet"))
        for dotted in TRACED:
            mod, name = dotted.split(".")
            original = getattr(importlib.import_module(f"lionsjet.{mod}"), name)
            wrapper = self._span_wrapper(dotted, original, self._observer(dotted))
            for m in modules:
                if getattr(m, name, None) is original:
                    self._patches.append((m, name, original))
                    setattr(m, name, wrapper)
        for dotted in COUNTED:
            mod, cls_name, name = dotted.split(".")
            cls = getattr(importlib.import_module(f"lionsjet.{mod}"), cls_name)
            original = cls.__dict__[name]
            self._patches.append((cls, name, original))
            setattr(cls, name, self._count_wrapper(dotted + ".calls", original))

    def remove(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _count_wrapper(self, metric, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric, self.op] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, dotted, fn, observe):
        nid = len(self.names)
        self.names.append(dotted)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
            if observe is not None:
                observe(args, result, end - start, sys._getframe(1))
            return result

        return wrapper

    def _observer(self, dotted):
        """Extra counts for some functions: sequences an enumerator returned,
        terms and distinct derivatives built, and the jet/remainder split of
        the contraction time."""
        name = dotted.split(".")[1]
        counts, keys = self.counts, self.keys
        if name.startswith("enum_") or name == "graded_families_ext":
            if name == "enum_graded":
                size = lambda r: len(r.core) + len(r.star) + len(r.plus) + len(r.cross)
            elif name == "graded_families_ext":
                size = lambda r: sum(len(fam) for fam in r)
            else:
                size = len

            def observe(args, result, seconds, frame):
                counts[dotted + ".seqs", self.op] += size(result)

            return observe
        if name == "lions_derivative":

            def observe(args, result, seconds, frame):
                f, a = args[0], args[1]
                self.keep[id(f)] = f
                counts[dotted + ".terms", self.op] += len(result.terms)
                keys[dotted, self.op].append((id(f), tuple(getattr(a, "values", a))))

            return observe
        if name == "norms_on_box":

            def observe(args, result, seconds, frame):
                ts = args[0]
                self.keep[id(ts.functional)] = ts.functional
                keys[dotted, self.op].append((id(ts.functional), ts.seq.values))

            return observe
        if name == "contract_derivative":

            def observe(args, result, seconds, frame):
                phase = _jet_or_remainder(frame)
                if phase:
                    self.ms[f"expansion.{phase}.ms", self.op] += seconds * 1e3

            return observe
        return None

    # -- results ------------------------------------------------------------

    def summary(self, scales):
        """Totals over the ops in `scales`, a map from op index to the
        host-speed factor for that op's times. Per traced function: calls,
        inclusive ms (outermost calls only) and self ms; then the extra counts
        and the distinct-derivative shares."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in self.names:
            out[name + ".calls"] = 0
            out[name + ".ms"] = 0.0
            out[name + ".self_ms"] = 0.0
        for i, (nid, start, end, parent, op) in enumerate(spans):
            if op not in scales:
                continue
            name = self.names[nid]
            scale = scales[op] * 1e3
            out[name + ".calls"] += 1
            out[name + ".self_ms"] += (end - start - child[i]) * scale
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                out[name + ".ms"] += (end - start) * scale
        for (metric, op), value in self.counts.items():
            if op in scales:
                out[metric] = out.get(metric, 0) + value
        for (metric, op), value in self.ms.items():
            if op in scales:
                out[metric] = out.get(metric, 0.0) + value * scales[op]
        for name in ("functional.lions_derivative", "functional.norms_on_box"):
            seen = [k for (n, op), ks in self.keys.items() if n == name and op in scales for k in ks]
            out[name + ".distinct_frac"] = len(set(seen)) / len(seen) if seen else 0.0
        return out

    def write(self, path):
        """Save every span, one line each, after a JSON header line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_s", "end_s", "parent", "op"]}, fh)
            fh.write("\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{nid} {start:.9f} {end:.9f} {parent} {op}\n")
