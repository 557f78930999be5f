"""Self-tests of the benchmark: BENCHMARK.json against its contract and the
metric catalogue, the result schema of untraced and traced runs, and failure
counting.

Run from the repository root: python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tomopick import nets  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(json.dumps(bench)) <= 64 * 1024
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and not path.startswith("/")
        assert ".." not in path.split("/") and (ROOT / path).is_dir()
    assert 1 <= len(bench["command"]) <= 32 and all(len(a) <= 200 for a in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_matches_catalogue(bench):
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [tuple(m.values()) for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [tuple(m.values()) for m in bench["per_layer"]] == list(spec.PER_LAYER)
    assert sorted(workloads.WORKLOADS) == sorted(n for n, _ in spec.WORKLOADS)
    for name, _, _ in spec.PER_LAYER:
        assert spec.expected_effect(name)


@pytest.mark.parametrize("variant, names", [("A", spec.VARIANT_A_LAYERS), ("B", spec.VARIANT_B_LAYERS)])
def test_layer_names_match_net_registry(variant, names):
    net = nets.build_net(nets.NetConfig(variant=variant, in_depth=16, window_hw=64,
                                        widths=(8, 16, 32, 32)))
    assert tuple(net._layers) == names


def small_oracle():
    return workloads.OracleDense(dims=(40, 64, 64), per_class=3, ties_per_class=2)


def _check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [name for name, unit, *_ in expected]
    for name, unit, *_ in expected:
        m = result["metrics"][name]
        assert set(m) == {"value", "unit"} and m["unit"] == unit
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    json.dumps(result, allow_nan=False)


def test_untraced_result_schema(tmp_path):
    result, info = harness.run_workload(small_oracle(), 3, 0.01, False, tmp_path / "work")
    _check_result(result, spec.END_TO_END)
    assert result["correct"] and result["failed"] == 0, info["errors"]
    assert all(m["value"] != 0 for m in result["metrics"].values())
    assert info["inputs"]["ties_planted"] == 2 * 6
    for key in ("numpy", "scipy", "blas", "blas_threads", "nproc", "git_commit", "src_lines"):
        assert key in info["env"]


def test_traced_result_schema(tmp_path):
    result, info = harness.run_workload(small_oracle(), 3, 0.01, True, tmp_path / "work")
    _check_result(result, spec.PER_LAYER)
    assert result["correct"], info["errors"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("tiler.aggregate_s", "postproc.local_maxima_s", "metric.match_class_s",
                 "synthdata.generate_tomogram_s", "volgrid.write_heatmap_s"):
        assert values[name] > 0, name
    assert values["tiler.windows"] == 2 * 4  # two models, four z windows
    assert values["layers.stem.forward_s"] == 0  # no net on this workload
    assert 0.9 < values["trace.stage_coverage"] <= 1.0
    spans = (tmp_path / "trace-oracle_dense-seed3.jsonl").read_text().splitlines()
    assert any(json.loads(s).get("name") == "tiler.aggregate" for s in spans)


def test_corrupted_stage_output_counts_as_failed(tmp_path, monkeypatch):
    real = workloads.postproc.extract_picks

    def shifted_picks(*args, **kwargs):
        picks = real(*args, **kwargs)
        moved = tuple(dataclasses.replace(r, x=r.x + 1e4) for r in picks.records)
        return dataclasses.replace(picks, records=moved)

    monkeypatch.setattr(workloads.postproc, "extract_picks", shifted_picks)
    result, info = harness.run_workload(small_oracle(), 3, 0.01, False, tmp_path / "work")
    _check_result(result, spec.END_TO_END)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0
    assert any("unmatched ground truth" in e for e in info["errors"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
