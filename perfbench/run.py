"""End-to-end benchmark of the g2i pipeline, with a traced per-layer run.

Run from the root of a source checkout (the program is taken from ``src/``):

  python3 perfbench/run.py --workload sbm_ref --seed 7 --seconds 26 --trace 0

A run makes the workload's inputs from ``--seed`` with ``g2i synth`` in
several fresh processes (``setup_s`` is their median wall time), then runs
``g2i run`` on them in fresh processes, one at a time, for about
``--seconds`` seconds, and checks every run's outputs. With ``--trace 1``
the runs alternate between traced and untraced, and the per-layer metrics
of ``spans.py`` are reported instead of the end-to-end ones. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and record the run environment. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS, combine_runs, layer_metrics  # noqa: E402

# One BLAS thread for every child process, so that both commits of a
# comparison run the same way; the pipeline gains nothing from a second
# thread on its small matrices.
OPENBLAS_THREADS = 1
INSTANCES = 2
HARD_LIMIT_S = 170.0
REFERENCE_SEED = 7

# (name, unit, better, bound): what a user of g2i sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("test_accuracy", "frac", "higher", 0.2),
    ("macro_f1", "frac", "higher", 0.2),
    ("shap_top_hit", "frac", "higher", 0.25),
)


@dataclass(frozen=True)
class Workload:
    synth: tuple            # flags of `g2i synth`, which writes the inputs
    run: tuple              # flags of `g2i run`
    why: str
    criterion10: bool = False


WORKLOADS = {
    "sbm_ref": Workload(
        synth=(),
        run=("--restarts", "2", "--n-permutations", "4", "--max-epochs", "10"),
        why="the paper's experiment (4x60 nodes, k=64) on a smaller budget: explain, "
            "i.e. Shapley sampling and cnn inference, takes half the run",
        criterion10=True,
    ),
    "wide_features": Workload(
        synth=("--k", "121"),
        run=("--restarts", "2", "--n-permutations", "1", "--n-hvf", "32", "--max-epochs", "6"),
        why="feature-rich input (k=121, 11x11 images): the epsilon=0 transport layout "
            "takes 40% of the run, against 7% on sbm_ref",
    ),
    "many_nodes": Workload(
        synth=("--blocks", "300,300,300,300", "--k", "16", "--p-in", "0.1", "--p-out", "0.01"),
        run=("--epsilon", "0.5", "--restarts", "2", "--n-permutations", "1", "--max-epochs", "8"),
        why="node-rich input (1200 nodes): cnn training takes two thirds of the run, "
            "layout takes the Sinkhorn path and O(n^2) metrics set peak memory",
    ),
    # seconds long; for the benchmark's own tests, not in BENCHMARK.json
    "smoke": Workload(
        synth=("--blocks", "12,12", "--k", "9", "--signal", "2.0", "--p-in", "0.8",
               "--p-out", "0.05"),
        run=("--restarts", "2", "--n-permutations", "2", "--max-epochs", "2"),
        why="seconds-long run of every stage, for the benchmark's tests",
    ),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label, problems, attempt=True):
        self.attempted += attempt
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            for p in problems:
                print(f"perfbench FAIL {label}: {p}", file=sys.stderr)


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(OPENBLAS_THREADS),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_child(spec, deadline):
    """Run child.py with ``spec``; returns (exit code, wall seconds, stderr).
    A child still running at ``deadline`` is killed and waited for."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, "timed out"
    return proc.returncode, time.perf_counter() - start, proc.stderr


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def quality(paths):
    """(metrics, per-class top SHAP rows) read from a run's artifacts."""
    from g2i.graph import sbm_signal_coords

    with open(paths["eval"], encoding="utf-8") as fh:
        ev = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}
    with open(paths["importance"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(paths["features"], encoding="utf-8") as fh:
        k = len(next(csv.reader(fh))) - 1
    classes = sorted({r["class"] for r in rows})
    tops = {c: max((r for r in rows if r["class"] == c), key=lambda r: float(r["shap_raw"]))
            for c in classes}
    coords = [set(c.tolist()) for c in sbm_signal_coords(len(classes), k)]
    hits = [float(tops[c]["shap_raw"]) > 0 and int(tops[c]["feature"][1:]) in coords[b]
            for b, c in enumerate(classes)]
    return {"test_accuracy": ev["accuracy"], "macro_f1": ev["macro_f1"],
            "shap_top_hit": sum(hits) / len(hits)}, tops


def check_run(workload, seed, result, reference):
    """Problems with one run's outputs, and its quality metrics. ``reference``
    holds the artifact hashes of the first good run of this seed."""
    if result is None:
        return ["no result"], None, None
    if result["rc"] != 0:
        return [f"g2i run exited with {result['rc']}"], None, None
    paths = result["artifacts"]
    missing = sorted(name for name, p in paths.items() if not Path(p).is_file())
    if missing:
        return [f"missing artifacts: {missing}"], None, None
    hashes = {name: sha256(p) for name, p in paths.items()}
    problems = []
    if reference is not None:
        differ = sorted(n for n in hashes if hashes[n] != reference.get(n))
        if differ:
            problems.append(f"artifacts differ from an earlier run of seed {seed}: {differ}")
    try:
        q, tops = quality(paths)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return problems + [f"unreadable quality artifacts: {exc!r}"], None, hashes
    if any(float(t["shap_raw"]) <= 0 for t in tops.values()):
        problems.append("a class's top SHAP feature is not positive")
    if workload.criterion10:
        if q["test_accuracy"] < 0.90 or q["macro_f1"] < 0.88:
            problems.append(f"criterion 10: accuracy {q['test_accuracy']:.3f} < 0.90 "
                            f"or macro-F1 {q['macro_f1']:.3f} < 0.88")
        # The planted-feature half of criterion 10 is defined at the reference
        # seed; at this budget other seeds may miss a class (see shap_top_hit).
        if seed == REFERENCE_SEED and q["shap_top_hit"] < 1.0:
            problems.append(f"criterion 10: top SHAP feature planted for only "
                            f"{q['shap_top_hit']:.2f} of classes")
    return problems, q, hashes


def environment(root, seed, workload):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "openblas_threads": OPENBLAS_THREADS, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "openblas": blas.get("version"), "commit": commit, "source_sha256": source.hexdigest(),
    }


def instance_seeds(seed):
    """Seeds of the inputs of one untraced run: ``seed`` and ones derived from it."""
    return [seed] + [zlib.crc32(f"{seed}/{j}".encode()) & 0x7FFFFFFF for j in range(1, INSTANCES)]


def bench(root, work, name, seed, seconds, trace):
    """Set up, run and check one workload; returns (metrics, tally, artifact
    hashes by input seed)."""
    workload = WORKLOADS[name]
    src = str(root / "src")
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    tally = Tally()
    # Untraced runs cycle through several inputs, so that the end-to-end
    # metrics average over inputs; traced runs repeat one input, so that its
    # counts can be compared across runs.
    inputs, input_hashes, setup_s = {}, {}, []
    seeds = [seed] if trace else instance_seeds(seed)
    # The first input is set up once more at the end, so that set-up time is a
    # median of several set-ups and a seed is seen to give the same inputs.
    for n, s in enumerate([*seeds, seed]):
        out = work / f"inputs{n}"
        rc, wall, err = run_child({"mode": "setup", "src": src, "out": str(out), "seed": s,
                                   "flags": list(workload.synth)}, deadline)
        problems = [] if rc == 0 else [f"g2i synth exited with {rc}: {err.strip()[-500:]}"]
        if not problems:
            hashes = {p.name: sha256(p) for p in sorted(out.iterdir())}
            if input_hashes.setdefault(s, hashes) != hashes:
                problems.append(f"g2i synth wrote different inputs for seed {s}")
            inputs.setdefault(s, out)
            setup_s.append(wall)
            print(f"perfbench set-up of seed {s}: {wall:.4f} s", file=sys.stderr)
        tally.record(f"set-up {n + 1} (seed {s})", problems)
    if not inputs:
        return None, tally, {}

    order = list(inputs)
    min_runs = 3 if trace else len(order)
    good = []                # (input seed, traced, result, quality) of good runs
    layers, reference = [], {}
    measure_start = time.monotonic()
    last = 0.0
    i = 0
    while True:
        if i >= min_runs and time.monotonic() - measure_start + last > seconds:
            break
        if time.monotonic() - start + last > HARD_LIMIT_S:
            break
        s = order[i % len(order)]
        traced = bool(trace) and i % 2 == 0
        label = f"run {i + 1} (seed {s}, {'traced' if traced else 'untraced'})"
        result_path = work / f"result{i}.json"
        spec = {"mode": "run", "src": src, "out": str(work / f"run{i}"), "seed": s,
                "flags": list(workload.run), "inputs": str(inputs[s]), "trace": traced,
                "run_id": f"{name}-{s}-{i}", "result": str(result_path)}
        rc, last, err = run_child(spec, deadline)
        result = json.loads(result_path.read_text()) if rc == 0 and result_path.exists() else None
        if result is None and err:
            print(err.strip()[-2000:], file=sys.stderr)
        problems, q, hashes = check_run(workload, s, result, reference.get(s))
        if traced and not problems:
            try:
                layers.append(layer_metrics(result["spans"]))
            except ValueError as exc:
                problems.append(str(exc))
        tally.record(label, problems)
        if not problems:
            reference.setdefault(s, hashes)
            good.append((s, traced, result, q))
            print(f"perfbench {label}: run_s {result['run_s']:.4f} s, "
                  f"peak {result['peak_rss_mb']:.1f} MB", file=sys.stderr)
        shutil.rmtree(work / f"run{i}", ignore_errors=True)
        i += 1

    untraced = [result for _, traced, result, _ in good if not traced]
    if trace:
        if not layers or not untraced:
            tally.problems.append("no good traced and untraced run pair")
            return None, tally, reference
        traced_s = [result["run_s"] for _, traced, result, _ in good if traced]
        metrics, count_problems = combine_runs(layers, traced_s, [r["run_s"] for r in untraced])
        tally.record("traced runs", count_problems, attempt=False)
        return metrics, tally, reference
    if not untraced:
        return None, tally, reference
    # quality is exact for each input, so it is averaged over the inputs
    quality = {s: q for s, _, _, q in reversed(good)}
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        **{k: statistics.fmean(q[k] for q in quality.values()) for k in next(iter(quality.values()))},
    }
    return metrics, tally, reference


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "g2i" / "cli.py").is_file():
        print(f"perfbench: no g2i sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = environment(root, args.seed, args.workload)
    print("perfbench env " + json.dumps(env, sort_keys=True))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, tally, hashes = bench(root, work, args.workload, args.seed, args.seconds,
                                       args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = {m[0]: m[1] for m in (LAYER_METRICS if args.trace else END_TO_END)}
    out = {name: {"value": (metrics or {}).get(name), "unit": unit} for name, unit in units.items()}
    for name, m in out.items():
        print(f"perfbench {args.workload} {name} = {m['value']} {m['unit']}")
    print(f"perfbench {args.workload} error_rate = "
          f"{tally.failed / max(tally.attempted, 1)} ({tally.failed} failed of {tally.attempted})")
    for s, artifact_hashes in hashes.items():
        print(f"perfbench artifacts {s} " + json.dumps(artifact_hashes, sort_keys=True))
    correct = metrics is not None and not tally.problems
    for p in tally.problems:
        print(f"perfbench problem: {p}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
