"""The repo's pytest settings: warnings are errors, yet a falsified
hypothesis property fails as one test and the run goes on."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 10


def test_passes():
    pass
'''


def test_falsified_property_fails_alone(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import; as
    # an error inside the plugin's hook that warning would end the run
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
