import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

import sumdiff
from sumdiff import ExperimentAborted, LinearForm, SamplerSeed, form_image, sample, verify_bounds
from sumdiff.bounds import bound_report
from sumdiff.cli import main
from sumdiff.experiments import BoundCheck


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    # the child imports sumdiff from where this process did, which pytest's
    # pythonpath setting may have put on sys.path without PYTHONPATH
    src = os.path.dirname(os.path.dirname(sumdiff.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "sumdiff.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_enumerate_small(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "8")
    assert code == 0
    assert "sum_dominated=0" in out
    assert "subsets=512" in out


def test_enumerate_above_cap_is_runtime_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "27")
    assert code == 2
    assert "error" in err


def test_enumerate_pinned_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "20")
    assert code == 0
    # the digest perfbench records for the exhaustive workload
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "f835f6951f0e96abc6f78d66cd06d644e4d4e931af1ef6236c52589d9d67947a"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "14")
    assert code == 0
    assert out == (
        "N=14 subsets=32768\n"
        "sum_dominated=4\n"
        "balanced=4476\n"
        "difference_dominated=28288\n"
    )


def test_compare_sharp_threshold_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "--form", "4,-3", "--form", "5,-1")
    assert code == 0
    assert "case=case-ii" in out
    assert "c_threshold=0.95706" in out


def test_compare_needs_two_forms(capsys):
    code, _, err = run_cli(capsys, "compare", "--form", "4,-3")
    assert code == 1
    assert "error" in err


def test_predict_threshold_regime(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--n", "1000000", "--c", "1", "--delta", "0.5"
    )
    assert code == 0
    assert "S_pred=426122.6" in out
    assert "D_pred=735758.8" in out
    assert "regime=at" in out


def test_predict_prints_each_form(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--n", "1000000", "--c", "1", "--delta", "0.5", "--form", "2,-1"
    )
    assert code == 0
    assert out == (
        "N=1000000 p=0.001 regime=at c=1\n"
        "S_pred=426122.638851 D_pred=735758.882343\n"
        "Sc_pred=1573878.361149 Dc_pred=1264242.117657\n"
        "form (2,-1): Df_pred=819591.979138 Dfc_pred=2180408.020862\n"
    )


def test_predict_at_tiny_c_takes_the_limit_zero(capsys):
    # c^2 underflows to 0 here, so the sizes take their limit 0
    code, out, _ = run_cli(capsys, "predict", "--n", "1000000", "--c", "1e-200", "--delta", "0.5")
    assert code == 0
    assert out == (
        "N=1000000 p=1e-203 regime=at c=9.9999999999999998e-201\n"
        "S_pred=0.000000 D_pred=0.000000\n"
        "Sc_pred=2000001.000000 Dc_pred=2000001.000000\n"
    )


def test_predict_explicit_requires_regime(capsys):
    code, _, err = run_cli(capsys, "predict", "--n", "1000", "--p", "0.5")
    assert code == 1
    assert "regime" in err


def test_sample_deterministic_output(capsys):
    args = ("sample", "--n", "500", "--p", "0.2", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "classification=" in out1


def test_sample_with_form(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--n", "200", "--c", "1", "--delta", "0.5", "--form", "2,-1"
    )
    assert code == 0
    # the size printed is that of the image built in full
    a = sample(200, 200**-0.5, SamplerSeed(0))
    assert f"form_2_-1_size={form_image(a, LinearForm((2, -1))).count}" in out


def test_sample_prints_the_sweep_row(capsys):
    # one name=value line per statistic column, each the cell sweep writes
    flags = ("--n", "1000", "--p", "0.1", "--seed", "7", "--form", "2,-1", "--form", "1,1,-1")
    code, out, _ = run_cli(capsys, "sample", *flags)
    assert code == 0
    code, table, _ = run_cli(capsys, "sweep", *flags, "--trials", "1", "--threads", "1")
    assert code == 0
    (row,) = csv.DictReader(table.splitlines())
    statistics = [f"{name}={cell}" for name, cell in row.items()][4:]  # after the key columns
    lines = out.splitlines()
    assert len(statistics) == 9
    assert lines[0] == "N=1000 p=0.10000000000000001 seed=7 trial=0"
    assert lines[1:-1] == statistics
    assert lines[-1].startswith("classification=")


def test_trial_index_beyond_64_bits_is_usage_error():
    proc = run_module("sample", "--n", "100", "--p", "0.5", "--trial-index", str(2**64))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sumdiff: error:")


def test_form_beyond_int64_is_usage_error():
    # u * members overflowed into a traceback
    proc = run_module("sample", "--n", "10", "--p", "0.5", "--form", f"{2**70 + 1},-1")
    assert proc.returncode == 1
    assert proc.stderr == (
        f"sumdiff: error: the image of [0, 10] under the form ({2**70 + 1}, -1) does not fit int64\n"
    )


def test_sweep_form_beyond_int64_is_usage_error():
    # refused with the N list, before any worker starts, as sample refuses it
    proc = run_module(
        "sweep", "--n", "10", "--p", "0.5", "--form", f"{2**70 + 1},-1", "--trials", "1", "--threads", "1"
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"sumdiff: error: the image of [0, 10] under the form ({2**70 + 1}, -1) does not fit int64\n"
    )


def test_crossover_form_beyond_int64_is_usage_error(capsys, monkeypatch):
    # drew about 2e18 sampler words before the kernel refused the image
    from sumdiff import experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may be sampled or started before the check")

    monkeypatch.setattr(experiments, "_run_tasks", forbidden)
    monkeypatch.setattr(experiments, "_nested_draw", forbidden)
    n = 2 * 10**18
    argv = ("crossover", "--form", "4,-3", "--form", "5,-1", "--n", str(n), "--c-grid", "0.5,1",
            "--trials", "1", "--threads", "1")
    assert run_cli(capsys, *argv) == (
        1, "", f"sumdiff: error: the image of [0, {n}] under the form (4, -3) does not fit int64\n"
    )


def test_crossover_over_memory_budget_is_runtime_error(capsys, monkeypatch):
    # a class of (4,-3)'s marks over the memory budget was refused inside
    # the first trial, after its draw, as "trial failed after 0 of 1 records"
    from sumdiff import experiments, sets

    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may be sampled or started before the check")

    monkeypatch.setattr(sets, "PAIR_MEMORY_BUDGET", 10**6)
    monkeypatch.setattr(experiments, "_nested_draw", forbidden)
    argv = ("crossover", "--form", "4,-3", "--form", "5,-1", "--n", str(10**7), "--c-grid", "0.8,1",
            "--trials", "1", "--threads", "1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "trial failed" not in err
    assert err.startswith("sumdiff: error: a class of (4, -3)'s marks at N = 10000000 needs 17 MiB > memory budget")


def test_usage_errors(capsys):
    assert run_cli(capsys, "sample", "--n", "100")[0] == 1  # family missing
    assert run_cli(capsys, "sample", "--n", "100", "--p", "0.5", "--c", "1", "--delta", "0.3")[0] == 1
    assert run_cli(capsys, "predict", "--n", "100", "--p", "2.0", "--regime", "above")[0] == 1
    # N*p^2 = 8.2: "below" would predict more sums than there are values
    assert run_cli(capsys, "predict", "--n", "54321", "--p", "0.0123", "--regime", "below")[0] == 1
    assert run_cli(capsys, "sample", "--n", "100", "--p", "0.5", "--form", "2,-1", "--form", "2,-1")[0] == 1
    assert run_cli(capsys, "compare", "--form", "1,2")[0] == 1  # invalid form
    assert run_cli(capsys, "nonsense")[0] == 1


def test_sweep_csv_file(tmp_path, capsys):
    out_path = tmp_path / "records.csv"
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--n", "300",
        "--p", "0.1",
        "--trials", "6",
        "--seed", "4",
        "--stats", "sizes,missing,xk:2,y",
        "--form", "2,-1",
        "--output-path", str(out_path),
    )
    assert code == 0
    assert "wrote 6 records" in err
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "schema_version"
    assert len(rows) == 7
    assert rows[1][1] == "300"


def test_sweep_json_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n", "200", "--c", "1", "--delta", "0.5",
        "--trials", "4", "--out", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["generator"] == "philox4x64"
    assert len(doc["records"]) == 4


def test_sweep_config_file(tmp_path, capsys):
    config = {
        "n_list": [150],
        "family": {"variant": "explicit", "p": 0.2},
        "trials": 3,
        "seed": 1,
        "statistics": {"sizes": True, "missing": False, "xk": 0, "forms": [], "y": False},
        "output": "csv",
        "threads": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    assert out.splitlines()[0].startswith("schema_version,N,p,trial_index")
    assert len(out.splitlines()) == 4


def test_sweep_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_list": [10], "family": {"variant": "explicit", "p": 0.5}, "trials": 1, "oops": 2}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 1
    assert "unknown" in err


_CONFIG = {"n_list": [30], "family": {"variant": "explicit", "p": 0.5}, "trials": 1, "threads": 1}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "field, doc",
    [
        ("sizes", {**_CONFIG, "statistics": {"sizes": "false"}}),
        ("missing", {**_CONFIG, "statistics": {"missing": 0}}),
        ("'y'", {**_CONFIG, "statistics": {"y": "yes"}}),
        ("xk", {**_CONFIG, "statistics": {"xk": 2.0}}),
        ("forms", {**_CONFIG, "statistics": {"forms": [[2.5, -1]]}}),
        ("n_list", {**_CONFIG, "n_list": [300.7]}),
        ("n_list", {**_CONFIG, "n_list": 300}),
        ("n_list", {**_CONFIG, "n_list": [True]}),
        ("trials", {**_CONFIG, "trials": 2.9}),
        ("trials", {**_CONFIG, "trials": "3"}),
        ("trials", {**_CONFIG, "trials": True}),
        ("trials", _without(_CONFIG, "trials")),
        ("seed", {**_CONFIG, "seed": 1.0}),
        ("threads", {**_CONFIG, "threads": 1.5}),
        ("threads", {**_CONFIG, "threads": True}),
        ("family", _without(_CONFIG, "family")),
        ("'p'", {**_CONFIG, "family": {"variant": "explicit", "p": "0.5"}}),
        ("'c'", {**_CONFIG, "family": {"variant": "power-law", "c": True, "delta": 0.5}}),
        ("delta", {**_CONFIG, "family": {"variant": "power-law", "c": 1.0}}),
        ("'variant' is required", {**_CONFIG, "family": {"p": 0.5}}),
        ("JSON object", [_CONFIG]),
        ("the explicit family takes no c, got 3",
         {**_CONFIG, "family": {"variant": "explicit", "p": 0.5, "c": 3, "delta": 7}}),
        ("N = 30 is repeated", {**_CONFIG, "n_list": [30, 30]}),
    ],
    ids=[
        "sizes-string", "missing-int", "y-string", "xk-float", "forms-float",
        "n_list-float", "n_list-number", "n_list-bool", "trials-float", "trials-string",
        "trials-bool", "trials-missing", "seed-float", "threads-float", "threads-bool", "family-missing",
        "p-string", "c-bool", "delta-missing", "variant-missing", "list-document",
        "explicit-family-with-c-delta", "n_list-repeated",
    ],
)
def test_sweep_config_field_types(tmp_path, capsys, field, doc):
    # JSON booleans for flags, integers (not floats or booleans) for counts,
    # numbers for the family; a missing field is named, not a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("sumdiff: error:") and err.count("\n") == 1
    assert field in err


def test_sweep_config_rejects_other_sweep_flags(tmp_path, capsys):
    # a flag next to --config was ignored; now it is named, even at its default
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_CONFIG))
    argv = ("sweep", "--config", str(path))
    code, out, err = run_cli(capsys, *argv, "--n", "5", "--out", "json", "--trials", "7")
    assert (code, out) == (1, "")
    assert err == "sumdiff: error: --config replaces the other sweep flags, got --n --trials --out\n"
    code, out, err = run_cli(capsys, *argv, "--seed", "0")
    assert (code, out) == (1, "") and err.endswith("got --seed\n")
    out_path = tmp_path / "records.csv"
    code, out, err = run_cli(capsys, *argv, "--output-path", str(out_path))
    assert (code, out) == (0, "") and "wrote 1 records" in err


@pytest.mark.parametrize(
    "message, argv",
    [
        ("--threads needs an integer",
         ("sweep", "--n", "30", "--p", "0.5", "--trials", "1", "--threads", "1.5")),
        ("--stats xk: needs an integer",
         ("sweep", "--n", "30", "--p", "0.5", "--trials", "1", "--stats", "xk:two")),
        ("--threads needs an integer", ("crossover", "--form", "4,-3", "--form", "5,-1", "--n",
                                        "1000", "--c-grid", "1", "--trials", "1", "--threads", "two")),
        ("--c-grid needs comma-separated numbers, got '1,,2'\n",
         ("crossover", "--form", "4,-3", "--form", "5,-1", "--n", "1000", "--c-grid", "1,,2")),
    ],
    ids=["sweep-threads", "sweep-xk", "crossover-threads", "crossover-c-grid"],
)
def test_bad_number_names_its_flag(capsys, message, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"sumdiff: error: {message}") and err.count("\n") == 1


def test_sweep_rejects_repeated_form(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--n", "300", "--p", "0.05", "--trials", "2",
        "--stats", "sizes", "--form", "2,-1", "--form", "2,-1",
    )
    assert code == 1
    assert out == ""
    assert "repeated form" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "--n", "10", "--n", "1000", "--c", "5", "--delta", "0.1", "--trials", "2"),
         "outside (0, 1) for N = 10"),
        (("crossover", "--form", "4,-3", "--form", "5,-1", "--n", "10000",
          "--c-grid", "1,nan", "--trials", "2", "--threads", "1"), "c must be a number in (0, 100), got nan"),
    ],
    ids=["sweep-p-above-1", "crossover-nan-c"],
)
def test_bad_parameters_are_usage_errors(capsys, argv, message):
    # refused while the command is set up, before any trial runs
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("sumdiff: error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "100", "--p", "0.5", "--c", "1"), "the explicit family takes no c, got 1.0\n"),
        (("--n", "100", "--n", "100", "--c", "1", "--delta", "0.5"),
         "N = 100 is repeated in n_list [100, 100]\n"),
    ],
    ids=["p-with-c", "repeated-n"],
)
def test_sweep_refuses_what_the_library_refuses(capsys, argv, message):
    argv = ("sweep", *argv, "--trials", "3", "--threads", "1", "--stats", "sizes")
    assert run_cli(capsys, *argv) == (1, "", f"sumdiff: error: {message}")


def test_sweep_needs_n_or_config(capsys):
    assert run_cli(capsys, "sweep", "--p", "0.5", "--trials", "1") == (
        1, "", "sumdiff: error: sweep needs --config or at least one --n\n"
    )


def test_sweep_rejects_unknown_statistic(capsys):
    argv = ("sweep", "--n", "100", "--p", "0.1", "--trials", "1", "--stats", "sizes,bogus")
    assert run_cli(capsys, *argv) == (1, "", "sumdiff: error: unknown statistic 'bogus'\n")


def test_sweep_at_tiny_c(capsys):
    # run_experiment predicts the summary after the trials; c^2 underflows to 0
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "1000", "--c", "1e-200", "--delta", "0.5", "--trials", "2", "--threads", "1"
    )
    assert code == 0
    assert out == (
        "schema_version,N,p,trial_index,set_size,sumset_size,diffset_size,missing_sums,missing_diffs\n"
        "1,1000,3.1622776601683791e-202,0,0,0,0,2001,2001\n"
        "1,1000,3.1622776601683791e-202,1,0,0,0,2001,2001\n"
    )


def test_sweep_dense_histograms_within_budget(capsys):
    # |A| ~ 5e4: 2.5e9 pairs per histogram, but each FFT costs ~4e6
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n", "100000", "--p", "0.5", "--stats", "xk:3", "--trials", "2", "--threads", "1",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][4:] == ["set_size", "x1", "x2", "x3", "xp1", "xp2", "xp3"]
    assert len(rows) == 3
    for row in rows[1:]:
        size = int(row[4])
        assert int(row[5]) == size * (size + 1) // 2  # X_1 counts every pair once
        assert int(row[8]) == size * (size - 1)  # X'_1 counts every nonzero difference


def test_crossover_command(capsys):
    argv = ("crossover", "--form", "4,-3", "--form", "5,-1",
            "--n", "10000", "--c-grid", "0.05,0.1", "--trials", "20", "--seed", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "crossover=inconclusive" in out
    for threads in ("1", "2", "auto"):
        assert run_cli(capsys, *argv, "--threads", threads) == (0, out, "")
    for threads in ("0", "two"):
        code, _, err = run_cli(capsys, *argv, "--threads", threads)
        assert code == 1 and "error" in err


def test_crossover_needs_two_forms(capsys):
    argv = ("crossover", "--form", "4,-3", "--n", "10000", "--c-grid", "0.5,1", "--trials", "2")
    assert run_cli(capsys, *argv) == (
        1, "", "sumdiff: error: crossover needs exactly two --form arguments\n"
    )


def test_crossover_refuses_a_repeated_grid_point(capsys):
    # exited 0 and printed c=1 twice
    argv = ("crossover", "--form", "4,-3", "--form", "5,-1", "--n", "10000", "--c-grid", "1,1",
            "--trials", "2")
    assert run_cli(capsys, *argv) == (1, "", "sumdiff: error: c = 1 is repeated in c_grid\n")


@pytest.mark.parametrize(
    "seed, message",
    [("-1", "seed must be >= 0, got -1"),
     ("18446744073709551616", "seed must be <= 18446744073709551615, got 18446744073709551616")],
    ids=["-1", "18446744073709551616"],
)
def test_crossover_rejects_seed_outside_uint64(capsys, seed, message):
    code, out, err = run_cli(
        capsys,
        "crossover", "--form", "4,-3", "--form", "5,-1", "--n", "10000",
        "--c-grid", "0.5,1", "--trials", "2", "--seed", seed,
    )
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_crossover_golden_digest(capsys, threads):
    # a grid that crosses 1/2, three seeds; digest recorded before the
    # crossover grew its images incrementally and ran on the trial pool
    out = ""
    for seed in ("1", "2", "3"):
        code, text, _ = run_cli(
            capsys,
            "crossover", "--form", "4,-3", "--form", "5,-1", "--n", "10000",
            "--c-grid", "0.1,0.3,0.6,1,2,5", "--trials", "30", "--seed", seed,
            "--threads", threads,
        )
        assert code == 0
        out += text
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "781902fbc8192f6bd835669b782e13fcdfb0b49855d4c51a8fa06c9e4a09799d"


def test_verify_bounds_ok(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-bounds", "--c", "1", "--delta", "0.6", "--g-exp", "0.2",
        "--n", "1000", "--trials", "300", "--seed", "5", "--alt",
    )
    assert code == 0
    assert "P1=" in out and "P2=" in out and "alt:" in out
    assert "VIOLATION" not in out


def test_verify_bounds_alt_trivial_above_three_quarters(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-bounds", "--c", "1", "--delta", "0.8", "--g-exp", "0.2",
        "--n", "1000", "--trials", "20", "--alt",
    )
    assert code == 0
    assert out == (
        "c=1 delta=0.8 g_exp=0.2 N=1000 trials=20\n"
        "P1=1.00475 empirical_cardinality_rate=0.2\n"
        "P2=0.125893 empirical_collision_rate=0\n"
        "card_interval=[1.99054, 5.97161] Y_threshold=35.8296\n"
        "ratio_claim: 2 + O(N^-0.2) outside with prob <= 1.13065\n"
        "alt: bound trivial for delta >= 3/4; almost surely no repeated sums or differences (Sidon set)\n"
    )


def test_verify_bounds_violation_exits_3(monkeypatch, capsys):
    flag = "cardinality-interval failure rate 0.5 exceeds P1 = 0.252"
    check = BoundCheck(bound_report(1.0, 0.6, 0.2, 1000), 20, 0.5, 0.0, (flag,))
    monkeypatch.setattr("sumdiff.cli.verify_bounds", lambda *args: check)
    code, out, _ = run_cli(
        capsys,
        "verify-bounds", "--c", "1", "--delta", "0.6", "--g-exp", "0.2", "--n", "1000", "--trials", "20",
    )
    assert code == 3
    assert out == (
        "c=1 delta=0.6 g_exp=0.2 N=1000 trials=20\n"
        "P1=0.252383 empirical_cardinality_rate=0.5\n"
        "P2=0.251189 empirical_collision_rate=0\n"
        "card_interval=[7.92447, 23.7734] Y_threshold=567.862\n"
        "ratio_claim: 2 + O(N^-0.2) outside with prob <= 0.503572\n"
        f"VIOLATION: {flag}\n"
    )


def test_verify_bounds_bad_params(capsys):
    code, _, err = run_cli(
        capsys,
        "verify-bounds", "--c", "1", "--delta", "0.8", "--g-exp", "0.6",
        "--n", "1000", "--trials", "10",
    )
    assert code == 1
    assert "g_exp" in err


def test_verify_bounds_failure_names_the_trial(monkeypatch, capsys):
    import sumdiff.experiments as exp

    real = exp.run_trial

    def flaky(config, n, trial_index):
        if trial_index == 3:
            raise RuntimeError("synthetic trial failure")
        return real(config, n, trial_index)

    monkeypatch.setattr(exp, "run_trial", flaky)
    with pytest.raises(ExperimentAborted, match="seed=17 N=1000 trial_index=3: synthetic"):
        verify_bounds(1.0, 0.6, 0.2, 1000, trials=400, seed=17)
    code, out, err = run_cli(
        capsys,
        "verify-bounds", "--c", "1", "--delta", "0.6", "--g-exp", "0.2",
        "--n", "1000", "--trials", "400", "--seed", "17",
    )
    assert (code, out) == (2, "")
    assert "seed=17 N=1000 trial_index=3: synthetic trial failure" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--c", "5", "--delta", "0.6", "--g-exp", "0.2", "--n", "10"),  # p(10) > 1
        ("--c", "1", "--delta", "0.6", "--g-exp", "0.2", "--n", "1000", "--seed", "-1"),
    ],
)
def test_verify_bounds_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, "verify-bounds", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("sumdiff: error:")


def test_console_entry_point():
    proc = run_module("enumerate", "--n", "4")
    assert proc.returncode == 0
    assert "balanced=" in proc.stdout
