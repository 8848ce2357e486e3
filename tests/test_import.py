import json
import os
import resource
import subprocess
import sys

import pytest

import sumdiff

VARIABLE = "OPENBLAS_THREAD_TIMEOUT"


def run_python(code, **env):
    """The JSON that ``code`` prints in a fresh interpreter, whose environment
    is this one's with ``env`` added and OPENBLAS_THREAD_TIMEOUT unset unless
    ``env`` names it."""
    # the child imports sumdiff from where this process did, which pytest's
    # pythonpath setting may have put on sys.path without PYTHONPATH
    src = os.path.dirname(os.path.dirname(sumdiff.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    base = {k: v for k, v in os.environ.items() if k != VARIABLE}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**base, "PYTHONPATH": path, **env},
    )
    return json.loads(done.stdout)


def test_import_loads_no_process_pool():
    # a serial run never starts a pool, so the import leaves multiprocessing out
    loaded = run_python(
        "import json, sys, sumdiff\n"
        "print(json.dumps([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]))"
    )
    assert loaded == []


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="no per-thread CPU time")
def test_idle_blas_threads_do_not_spin():
    # OpenBLAS's threads would busy-wait about 0.13 CPU-s each after numpy
    # loads; every thread but the main one should stay asleep through the import
    # and the sleep after it
    others = run_python(
        "import json, resource, time, sumdiff\n"
        "time.sleep(0.3)\n"
        "process, main = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_THREAD))\n"
        "print(json.dumps(process.ru_utime + process.ru_stime - main.ru_utime - main.ru_stime))"
    )
    assert others < 0.05


def test_import_leaves_the_variable_unset():
    assert run_python(f"import json, os, sumdiff; print(json.dumps(os.environ.get({VARIABLE!r})))") is None


@pytest.mark.parametrize(
    "prelude, env",
    [("", {VARIABLE: "30"}), ("import numpy", {})],
    ids=["caller-value", "numpy-first"],
)
def test_import_writes_no_environment(prelude, env):
    # with the caller's own value, or with numpy loaded before sumdiff, the
    # import must not write to os.environ at all
    seen = run_python(
        f"{prelude}\n"
        "import json, os\n"
        "class Unwritable(dict):\n"
        "    def __setitem__(self, key, value):\n"
        "        raise AssertionError(f'{key} written')\n"
        "    def __delitem__(self, key):\n"
        "        raise AssertionError(f'{key} removed')\n"
        "environ, os.environ = os.environ, Unwritable(os.environ)\n"
        "import sumdiff\n"
        "os.environ = environ\n"
        f"print(json.dumps(os.environ.get({VARIABLE!r})))",
        **env,
    )
    assert seen == env.get(VARIABLE)
