"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the
repository root. The smoke runs take a few seconds each."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_runner():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert [tuple(m.values()) for m in spec["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [tuple(m.values()) for m in spec["per_layer"]] == [m[:3] for m in spans.LAYER_METRICS]


def test_names_and_units_are_well_formed():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(trace, section):
    proc = _smoke(trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"perfbench smoke {name} = " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _smoke(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _fake_run(tmp_path, accuracy=1.0, top=("f000", "f016", "f032", "f048")):
    (tmp_path / "eval.csv").write_text(f"metric,value\naccuracy,{accuracy}\nmacro_f1,{accuracy}\n")
    (tmp_path / "features.csv").write_text("node_id," + ",".join(f"f{j:03d}" for j in range(64)) + "\n")
    rows = ["feature,modality,class,shap_raw,shap_normalized"]
    for b, feature in enumerate(top):
        rows += [f"{feature},features,block{b},0.5,1.0", f"f063,features,block{b},0.1,0.2"]
    (tmp_path / "importance.csv").write_text("\n".join(rows) + "\n")
    names = ("eval", "features", "importance")
    return {"rc": 0, "artifacts": {n: str(tmp_path / f"{n}.csv") for n in names}}


def test_check_run_accepts_a_good_run(tmp_path):
    problems, q, hashes = run.check_run(run.WORKLOADS["sbm_ref"], 7, _fake_run(tmp_path), None)
    assert problems == []
    assert q == {"test_accuracy": 1.0, "macro_f1": 1.0, "shap_top_hit": 1.0}
    assert run.check_run(run.WORKLOADS["sbm_ref"], 7, _fake_run(tmp_path), hashes)[0] == []


def test_check_run_flags_each_failure(tmp_path):
    sbm = run.WORKLOADS["sbm_ref"]
    good = _fake_run(tmp_path)
    _, _, hashes = run.check_run(sbm, 7, good, None)
    assert run.check_run(sbm, 7, dict(good, rc=1), None)[0]
    missing = dict(good, artifacts=dict(good["artifacts"], images=str(tmp_path / "nope")))
    assert "missing artifacts" in run.check_run(sbm, 7, missing, None)[0][0]
    assert "accuracy" in run.check_run(sbm, 7, _fake_run(tmp_path, accuracy=0.5), None)[0][0]
    assert "differ" in run.check_run(sbm, 7, good, dict(hashes, eval="0"))[0][0]
    off_plan = _fake_run(tmp_path, top=("f000", "f016", "f032", "f000"))
    assert "planted" in run.check_run(sbm, 7, off_plan, None)[0][0]
    # the planted-feature half of criterion 10 is checked at the reference seed only
    problems, q, _ = run.check_run(sbm, 1, off_plan, None)
    assert problems == [] and q["shap_top_hit"] == 0.75


def _span(i, name, start, end, parent=None, **extra):
    return {"id": i, "name": name, "run": "r", "parent": parent, "start": start, "end": end, **extra}


def test_layer_metrics_self_time_and_coalitions():
    trace = [
        _span(0, "cli.explain", 0.0, 10.0, rss_mb=50.0, cpu_s=9.0),
        _span(1, "attribution.class_global_importance", 1.0, 9.0, 0),
        _span(2, "attribution.shapley_sample", 2.0, 8.0, 1, expected_coalitions=6),
        _span(3, "cnn.forward", 3.0, 6.0, 2, images=6),
        _span(4, "cnn.forward", 9.5, 9.75, 0, images=4),
    ]
    m = spans.layer_metrics(trace)
    assert m["attribution.coalitions"] == 6
    assert m["cnn.forward_images"] == 10
    assert m["attribution.self_s"] == pytest.approx((8.0 - 6.0) + (6.0 - 3.0))
    assert m["cli.explain_s"] == 10.0 and m["cli.explain_rss_mb"] == 50.0
    trace[3]["images"] = 5
    with pytest.raises(ValueError, match="coalitions"):
        spans.layer_metrics(trace)


def test_combine_runs_requires_counts_to_repeat():
    a = spans.layer_metrics([])
    b = dict(a, **{"community.kmeans_iters": 3})
    _, problems = spans.combine_runs([a, a], [1.0, 1.2], [1.0])
    assert problems == []
    _, problems = spans.combine_runs([a, b], [1.0, 1.2], [1.0])
    assert problems and "community.kmeans_iters" in problems[0]
