import csv
import hashlib
import json
import subprocess
import sys

import pytest

from sumdiff import LinearForm, SamplerSeed, form_image, sample
from sumdiff.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_trial_index_beyond_64_bits_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "sumdiff.cli", "sample", "--n", "100", "--p", "0.5",
         "--trial-index", str(2**64)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sumdiff: error:")


def test_usage_errors(capsys):
    assert run_cli(capsys, "sample", "--n", "100")[0] == 1  # family missing
    assert run_cli(capsys, "sample", "--n", "100", "--p", "0.5", "--c", "1", "--delta", "0.3")[0] == 1
    assert run_cli(capsys, "predict", "--n", "100", "--p", "2.0", "--regime", "above")[0] == 1
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


def test_sweep_rejects_repeated_form(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--n", "300", "--p", "0.05", "--trials", "2",
        "--stats", "sizes", "--form", "2,-1", "--form", "2,-1",
    )
    assert code == 1
    assert out == ""
    assert "repeated form" in err


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


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_crossover_rejects_seed_outside_uint64(capsys, seed):
    code, out, err = run_cli(
        capsys,
        "crossover", "--form", "4,-3", "--form", "5,-1", "--n", "10000",
        "--c-grid", "0.5,1", "--trials", "2", "--seed", seed,
    )
    assert code == 1
    assert out == ""
    assert "seed must fit in an unsigned 64-bit integer" in err


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


def test_verify_bounds_bad_params(capsys):
    code, _, err = run_cli(
        capsys,
        "verify-bounds", "--c", "1", "--delta", "0.8", "--g-exp", "0.6",
        "--n", "1000", "--trials", "10",
    )
    assert code == 1
    assert "g_exp" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sumdiff.cli", "enumerate", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "balanced=" in proc.stdout
