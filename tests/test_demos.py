"""Every demo script runs to completion against the library in src/, and
prints the same output as when it was recorded: the demos show the plan, the
base cases, the graceful labels and the built systems, so a change to any of
them shows here."""

import glob
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# sha256 of each demo's stdout.  The output is deterministic: no demo reads
# the clock or an unseeded random source.
STDOUT_SHA256 = {
    "01_build_and_verify.py": "ef871bc209784acc2522b40170dcf0df8f97640e01e1c18455a53f26d859eabd",
    "02_cubic_rerouting.py": "5083488113408ecdbb513330b943433acf8b3a320eb48632ab28853272f51161",
    "03_complete_bipartite.py": "c3a6de17de7d4279c0ed1b0a27ce420500f065d6d68f2339cfeb8d1e30a93b75",
    "04_exact_minima.py": "a686e77563522862f0ffadb4e9fec4adb0e71e86d19635ac8046d990e27dd90b",
    "05_lower_bound_curve.py": "1aaa57013cdc8b791b47c61deb371fe72be725ed7f66a0de911ba19c033c3402",
}


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, demo], env=env, cwd=tmp_path,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[os.path.basename(demo)]
