"""The command entry points: ``python -m pathsep``, ``python -m pathsep.cli``
and the ``pathsep`` console script that ``pyproject.toml`` declares."""

import importlib
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("module", ["pathsep", "pathsep.cli"])
def test_module_entry_prints_the_version(module, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, "-m", module, "--version"], env=env,
                            cwd=tmp_path, capture_output=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"pathsep 0.1.0\n", b"")


def _console_script_target() -> str:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        text = f.read()
    if sys.version_info >= (3, 11):
        import tomllib
        return tomllib.loads(text.decode())["project"]["scripts"]["pathsep"]
    return re.search(rb'^pathsep = "(.*)"$', text, re.MULTILINE).group(1).decode()


def test_console_script_target_prints_the_version(monkeypatch, capsys):
    target = _console_script_target()
    assert target == "pathsep.cli:_console"
    module, _, name = target.partition(":")
    console = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["pathsep", "--version"])
    with pytest.raises(SystemExit) as exited:
        console()
    assert exited.value.code == 0
    assert capsys.readouterr() == ("pathsep 0.1.0\n", "")
