"""The exact outputs of the benchmark's first cycles match its reference.

`perfbench/run.py` compares the SHA-256 of every exact op's output with
`perfbench/reference.json`. This runs the first cycle of `jet-large-n` and
`certified-small-n` at the reference seed through `perfbench/workloads.py`,
loaded by its path and left as it is, so that a change that moves an output
byte fails here and not first in a benchmark run."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["jet-large-n", "certified-small-n"])
def test_the_first_cycle_matches_the_reference_digests(name, monkeypatch):
    workloads = _workloads(monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference["seed"] == workloads.DEFAULT_SEED
    wl = getattr(workloads, name.replace("-", "_"))(workloads.DEFAULT_SEED)
    digests = []
    for op in wl.pool[0]:  # in order: a bound op checks the expansion before it
        output = op.run()
        op.check(output)
        if op.exact is not None:
            digests.append(hashlib.sha256(op.exact(output).encode()).hexdigest()[:32])
        else:
            digests.append(None)
    assert any(digests)
    assert digests == reference["workloads"][name][: wl.cycle_len]
