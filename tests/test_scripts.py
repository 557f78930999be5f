"""Smoke tests of the measurement scripts."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from tomopick.volgrid import read_heatmap

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_paper_scale_memory_runs_at_a_tiny_size(tmp_path):
    """Both phases run in their own process and report; XY 20 x 22 is padded to 40."""
    argv = [sys.executable, str(SCRIPTS / "paper_scale_memory.py"), "--dims", "12", "20", "22",
            "--workdir", str(tmp_path)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line.get("phase") for line in lines] == ["infer+write", "read+pick", None]
    assert all(line["wall_s"] > 0 and line["peak_rss_mb"] > 0 for line in lines[:2])
    path = tmp_path / "heatmap.hmc"
    assert lines[2] == {"heatmap_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert read_heatmap(path).data.shape == (6, 12, 20, 22)
    assert (tmp_path / "heatmap.picks").read_text().startswith("class,x,y,z,score")
