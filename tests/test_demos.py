"""The narrated demos print the same bytes as recorded.

``data/demos.json`` maps each script name in ``demos/`` to its standard
output.  Each script runs in a fresh interpreter with ``src`` on the path,
so cold caches and import order are those of a user running it.  To
re-record after an intended change of output, run this file as a script.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "demos.json"


def demo_output(script: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script)], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def test_every_demo_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == [d.name for d in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda d: d.name)
def test_demo_prints_the_recorded_output(script):
    assert demo_output(script) == json.loads(GOLDEN.read_text())[script.name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({d.name: demo_output(d) for d in DEMOS},
                                 indent=1) + "\n")
