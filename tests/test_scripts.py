"""Smoke tests of the measurement scripts."""

import hashlib
import importlib.util
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


def test_train_step_profile_runs_at_a_tiny_window():
    """One line per variant with its window, a step time and three tracemalloc
    figures; no timing is asserted."""
    argv = [sys.executable, str(SCRIPTS / "train_step_profile.py"), "--steps", "1",
            "--a-window", "8", "16", "--b-window", "8", "16"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(line["variant"], line["window"], line["steps"]) for line in lines] == [("A", [8, 16, 16], 1),
                                                                                   ("B", [8, 16, 16], 1)]
    for line in lines:
        assert line["step_ms"] > 0
        assert 0 < line["forward_held_mb"] <= min(line["forward_peak_mb"], line["backward_peak_mb"])


def test_nms_profile_runs_at_a_tiny_size():
    """One line per channel kind with a time, a memory ratio and a peak count;
    no timing is asserted."""
    argv = [sys.executable, str(SCRIPTS / "nms_profile.py"), "--repeats", "1", "--shape", "4", "8", "8"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(line["kind"], line["shape"]) for line in lines] == [
        (kind, [4, 8, 8]) for kind in ("ones", "noise", "zeros", "smoothed")]
    assert all(line["median_ms"] > 0 and line["peak_channels"] > 0 for line in lines)
    assert [line["peaks"] for line in lines][::2] == [1, 0]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_stdout(wall_s, fbeta, src_lines):
    """A canned `perfbench/run.py` stdout: the environment line, then the result."""
    env = {"workload": "toy_chain", "seed": 700, "env": {"numpy": "2.0", "src_lines": src_lines}}
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "fbeta": {"value": fbeta, "unit": "score"}}
    return "\n".join(json.dumps(line) for line in
                     (env, {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}))


def test_bench_pairs_summary_counts_wins_and_medians():
    """Canned run outputs, no benchmark run: B is faster in 2 of 4 pairs,
    ties one and loses one; fbeta is higher-is-better and ties in every pair;
    the last line gives each side's `src/` line count."""
    bench = load_script("bench_pairs")
    walls = [(2.0, 1.5), (2.2, 1.6), (1.9, 1.9), (2.4, 2.5)]
    pairs = [(bench.parse_run(run_stdout(a, 0.7, 2438)), bench.parse_run(run_stdout(b, 0.7, 2425)))
             for a, b in walls]
    assert pairs[0][0] == {"correct": True, "src_lines": 2438, "wall_s": 2.0, "fbeta": 0.7}
    wall, fbeta, lines = bench.summarize(pairs, {"wall_s": "lower", "fbeta": "higher"})
    assert wall.startswith("wall_s (lower is better): A 2.1 [1.975, 2.25]  B 1.75 [1.575, 2.05]")
    assert "change -16.7%" in wall and wall.endswith("B better in 2 of 4 pairs, 1 ties")
    assert fbeta.endswith("change +0.0%  B better in 0 of 4 pairs, 4 ties")
    assert lines == "src_lines 2438 → 2425"
    assert bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
