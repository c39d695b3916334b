import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=50, derandomize=True, deadline=None)
settings.register_profile("thorough", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def fresh_python():
    """Run Python code in a fresh interpreter that imports this grassdef;
    returns the CompletedProcess, with text output."""
    import grassdef

    src = str(Path(grassdef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
        )

    return run
