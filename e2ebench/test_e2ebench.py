"""The benchmark's own tests: inputs, tiny runs, metric catalogue.

Run from the repository root with ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402
from repro.tree.io import tree_to_dict  # noqa: E402

TINY = 0.05


def _paper_inputs(seed):
    libraries, rounds = corpus.paper_corpus(seed, 1, TINY)
    return (
        {b: lib.size for b, lib in libraries.items()},
        [(label, b, tree_to_dict(tree)) for label, b, tree in rounds[0].cells],
        [[tree_to_dict(t) for t in group] for group in rounds[0].groups],
    )


def _eco_inputs(seed):
    lib, sessions = corpus.eco_corpus(seed, 2, 3, TINY)
    return lib, [(s.net, s.requests) for s in sessions]


@pytest.mark.parametrize("make", [
    _paper_inputs,
    lambda seed: corpus.serve_corpus(seed, 1, 4, 3, 1, 2, TINY),
    _eco_inputs,
])
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def _run(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_has_no_failures_and_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: entry[0] for name, entry in catalogue.items()
    }
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    header = json.loads(out.stdout.split("run: ", 1)[1].splitlines()[0])
    for key in ("commit", "python", "numpy", "cpu_count", "seed", "seconds"):
        assert key in header


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["e2ebench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: entry[0] for name, entry in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: entry[0] for name, entry in run.PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("paper_solve", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
