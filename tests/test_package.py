import os
import subprocess
import sys
from pathlib import Path

import slopeforge

PROBE = """
import sys
import slopeforge.fixtures
loaded = sorted(m for m in ("mpmath", "slopeforge.markov") if m in sys.modules)
assert not loaded, loaded
import slopeforge
missing = [name for name in slopeforge.__all__ if not hasattr(slopeforge, name)]
assert not missing, missing
assert set(slopeforge.__all__) <= set(dir(slopeforge))
from slopeforge.entropy import entropy
assert slopeforge.entropy is entropy
"""


def test_fixtures_import_loads_no_numeric_module():
    # a fresh interpreter: this process has imported everything already
    env = dict(os.environ, PYTHONPATH=str(Path(slopeforge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
