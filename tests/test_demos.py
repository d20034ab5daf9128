"""Every demo runs to completion in a child process and prints the same
bytes as when its output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_ferrers_basics.py": "7ba6d345265926f6005acdba3a1fe36cb536ad857604db5de2df374c524dc7be",
    "02_counting_tables.py": "92d2c95a11ad060dcaeb48427bc5304fbc2ec816f88839fc84e3446978729243",
    "03_series_and_inversion.py": "c53a078aa0ab409d734f3878539b7525e978d8aa81fb80c4ee736cc0dc45eb06",
    "04_schemes.py": "06262721c92afaae1fd77ca387d5430a87393368dd34b99a9dcddf387b106510",
    "05_lattices.py": "b70ae8df3a457fbe6a7988d0dbae9d16ec96378ed41c2516d6484e35fd677ff0",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output(name):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
