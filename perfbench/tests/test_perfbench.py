"""Plumbing test of the benchmark at tiny sizes (a few seconds in all).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, Crossover, Enumerate, Sweep  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload):
    job = workload.job
    if isinstance(job, Sweep):
        job = dataclasses.replace(job, n=2000 if job.n > 10**4 else 200, trials=3)
    elif isinstance(job, Crossover):
        job = dataclasses.replace(job, n=10**4, trials=2)
    else:
        job = Enumerate(8)
    return dataclasses.replace(workload, job=job, digest=None)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", {n: _tiny(w) for n, w in WORKLOADS.items()})
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, name, trace, section):
    result = _result(capsys, "--workload", name, "--seed", "7", "--seconds", "0.1",
                     "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_output_counts_as_failed(tiny, capsys, monkeypatch):
    real = run.run_process
    calls = []

    def corrupt_first(argv, out_path):
        command = real(argv, out_path)
        calls.append(argv)
        if len(calls) == 1:
            command.output = command.output.replace(b"1", b"2", 1)
        return command

    monkeypatch.setattr(run, "run_process", corrupt_first)
    result = _result(capsys, "--workload", "sparse-trials", "--seed", "7", "--seconds", "1.5",
                     "--trace", "0")
    assert result["attempted"] >= 2
    assert result["failed"] == 1 and not result["correct"]


def test_digest_mismatch_is_a_wrong_output():
    workload = dataclasses.replace(_tiny(WORKLOADS["exhaustive"]), digest="0" * 64)
    checker = run.Checker(workload)
    good = workload.job.expected_output().encode()
    assert checker.failure(run.Command(0, 1.0, 1.0, 1.0, good), 0).startswith("wrong output")
    assert run.Checker(workload).failure(run.Command(0, 1.0, 1.0, 1.0, good), 1) is None
