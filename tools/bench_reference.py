"""Stage timings of the reference run and microbenchmarks of the CNN kernels and
of Shapley sampling, written to one BENCH_*.json file.

Run from the root of a source checkout:

  python3 tools/bench_reference.py --out BENCH_11.json --runs 3 \
      --tree parent=/path/to/parent/src --tree change=src

Each ``--tree LABEL=SRC`` names a ``src/`` directory holding a ``g2i``
package; with no ``--tree`` the script measures ``src/`` as ``change``. The
reference run is ``g2i synth`` followed by every stage, each in its own
``python -m g2i.cli`` process, with ``--seed 7`` and the default settings
(4x60 nodes, k=64) and one BLAS thread. The runs cycle through the trees, so
that drift on a shared machine affects each tree alike. For every stage the
file records the wall time, CPU time and peak RSS of its process (median and
quartiles over the runs; CPU time sums the process and the workers it reaped,
such as explain's, and peak RSS is the largest of them), and for every tree
the sha256 of each file under ``--out`` and whether the runs wrote the same
bytes; the exit code is 1 when they did not. The kernel microbenchmarks time
the conv forward, weight-gradient and input-gradient kernels and the FC
products at the shapes that explain and train give them, in float64 and
float32, and ``shapley_sample`` on one image of the reference shape with
every feature cell a player and M=4: each round times every kernel in a
fresh process per tree, the rounds alternate between the trees, and the file
keeps each kernel's median over the rounds. The FC products call numpy
alone, not g2i, so their differences between trees show the noise of the
machine.

This script is not part of the test suite; a default run takes several
minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

SEED = 7
# fresh processes per tree that time every kernel; the file keeps their median
KERNEL_ROUNDS = 3
STAGES = ("synth", "ingest", "cluster", "layout", "render", "train", "eval", "explain", "metrics")

# (name, batch, channels in, image side, filters): the conv shapes of the
# reference network, in explain's 65-image batches and train's 32-image ones
CONV_SHAPES = (
    ("explain_first", 65, 2, 8, 16),
    ("explain_hidden", 65, 16, 8, 16),
    ("train_hidden", 32, 16, 8, 16),
    ("train_hidden_11x11", 32, 16, 11, 16),
)
# (name, batch, fan in, fan out): the first two FC layers at image sides 8 and 11
FC_SHAPES = (
    ("explain_fc0", 65, 8 * 8 * 16, 768),
    ("train_fc0", 32, 8 * 8 * 16, 768),
    ("train_fc0_11x11", 32, 11 * 11 * 16, 768),
    ("train_fc1", 32, 768, 512),
)


def child_env(src):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    return env


def timed_process(argv, env):
    """(wall s, CPU s, peak RSS MB) of one child process, which must succeed."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code      # reaped by wait4; keeps Popen from waiting again
        if code != 0:
            err.seek(0)
            message = err.read().decode(errors="replace")[-2000:]
            raise RuntimeError(f"{' '.join(argv)} exited with {code}: {message}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def reference_run(src, out):
    """Per-stage (wall s, CPU s, peak RSS MB) of one reference run into ``out``,
    and the sha256 of every file it wrote."""
    env = child_env(src)
    data = ["--edges", str(out / "edges.tsv"), "--features", str(out / "features.csv"),
            "--labels", str(out / "labels.csv")]
    stages = {}
    for stage in STAGES:
        argv = [sys.executable, "-m", "g2i.cli", stage, "--out", str(out), "--seed", str(SEED)]
        stages[stage] = timed_process(argv + ([] if stage == "synth" else data), env)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return stages, hashes


def summary(values):
    """Median and quartiles of a few samples, with the samples."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def source_sha256(src):
    digest = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _per_call_s(fn, repeats=7, min_s=0.05):
    """Median seconds per call of ``fn`` over ``repeats`` timed loops, each
    at least ``min_s`` long, after one warm-up call."""
    fn()
    number, t = 1, 0.0
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        t = time.perf_counter() - start
        if t >= min_s:
            break
        number *= 2
    samples = [t / number]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def kernel_benchmarks():
    """Microseconds per call of the conv kernels and FC products of the g2i
    package on sys.path, by kernel, shape and dtype."""
    import numpy as np

    from g2i import attribution, cnn

    rng = np.random.default_rng(0)
    out = {}
    for dtype in ("float64", "float32"):
        for name, B, C, side, F in CONV_SHAPES:
            x = rng.normal(size=(B, C, side, side)).astype(dtype)
            w = rng.normal(size=(F, C, 5, 5)).astype(dtype)
            b = rng.normal(size=F).astype(dtype)
            dout = rng.normal(size=(B, F, side, side)).astype(dtype)
            shape = f"B={B} C={C} {side}x{side} F={F}"
            for kernel, call in (
                ("_conv_same", lambda: cnn._conv_same(x, w, b)),
                ("_conv_same_param_grads", lambda: cnn._conv_same_param_grads(x, w, dout)),
                ("_conv_same_input_grad", lambda: cnn._conv_same_input_grad(w, dout)),
            ):
                out[f"{kernel} {name} {dtype}"] = {
                    "shape": shape, "us": 1e6 * _per_call_s(call)}
        for name, B, n_in, n_out in FC_SHAPES:
            a = rng.normal(size=(B, n_in)).astype(dtype)
            w = rng.normal(size=(n_out, n_in)).astype(dtype)
            b = rng.normal(size=n_out).astype(dtype)
            grad = rng.normal(size=(B, n_out)).astype(dtype)
            shape = f"B={B} {n_in}->{n_out}"
            for kernel, call in (
                ("fc_forward", lambda: a @ w.T + b),        # as in cnn._forward_cached
                ("fc_weight_grad", lambda: grad.T @ a),     # as in cnn.loss_and_grad
                ("fc_input_grad", lambda: grad @ w),
            ):
                out[f"{kernel} {name} {dtype}"] = {
                    "shape": shape, "us": 1e6 * _per_call_s(call)}
    # one image's Shapley sampling as explain runs it: the reference network in
    # float32, a 2x8x8 image, every one of the k=64 feature cells a player
    config = cnn.ConvNetConfig(input_side=8, input_channels=2, classes=4)
    params = cnn.init_params(config, seed=0).astype(np.float32)
    image = rng.normal(size=(2, 8, 8)).astype(np.float32)
    background = rng.normal(size=(2, 8, 8))
    players = np.column_stack([np.ones(64, dtype=np.int64), *np.divmod(np.arange(64), 8)])
    out["shapley_sample reference float32"] = {
        "shape": "64 players M=4 2x8x8",
        "us": 1e6 * _per_call_s(lambda: attribution.shapley_sample(
            lambda batch: cnn.predict_proba(params, batch), image, 1, background, players,
            4, 0))}
    return out


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "openblas_threads": 1,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "openblas": blas.get("version"),
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="the BENCH_*.json file to write")
    parser.add_argument("--runs", type=int, default=3, help="reference runs per tree (>= 3)")
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=SRC: a src/ directory to measure; repeatable")
    parser.add_argument("--kernels", action="store_true",
                        help="print the kernel microbenchmarks of the g2i on PYTHONPATH "
                             "as JSON and exit")
    args = parser.parse_args(argv)
    if args.kernels:
        print(json.dumps(kernel_benchmarks()))
        return 0
    if not args.out:
        parser.error("--out is required")
    if args.runs < 3:
        parser.error("--runs must be at least 3: quartiles of fewer runs mean nothing")
    trees = {}
    for entry in args.tree or ["change=src"]:
        label, _, src = entry.partition("=")
        if not src or not (Path(src) / "g2i" / "cli.py").is_file():
            parser.error(f"--tree {entry!r}: expected LABEL=SRC with SRC/g2i/cli.py")
        trees[label] = Path(src).resolve()

    samples = {label: [] for label in trees}
    hashes = {label: [] for label in trees}
    with tempfile.TemporaryDirectory(prefix="g2i-bench-") as work:
        for run in range(args.runs):
            # alternate which tree goes first
            for label in (list(trees) if run % 2 == 0 else list(trees)[::-1]):
                out = Path(work) / f"{label}-{run}"
                stages, files = reference_run(trees[label], out)
                samples[label].append(stages)
                hashes[label].append(files)
                total = sum(s[0] for s in stages.values())
                explain_wall, explain_cpu, _ = stages["explain"]
                print(f"run {run + 1} {label}: {total:.2f} s, explain {explain_wall:.2f} s"
                      f" (CPU {explain_cpu:.2f} s), train {stages['train'][0]:.2f} s",
                      file=sys.stderr)

    result = {"environment": environment(), "seed": SEED, "runs": args.runs,
              "method": "g2i synth, then each stage in its own `python -m g2i.cli` process, "
                        "seed 7, default settings, OPENBLAS_NUM_THREADS=1; wall time from "
                        "process start to exit (interpreter start and imports included), "
                        "CPU time and peak RSS from os.wait4 of that process, which counts the "
                        "worker processes it reaped",
              "trees": {}}
    for label, src in trees.items():
        runs = samples[label]
        stages = {
            stage: {metric: summary([r[stage][i] for r in runs])
                    for i, metric in enumerate(("wall_s", "cpu_s", "peak_rss_mb"))}
            for stage in STAGES
        }
        stages["sum"] = {"wall_s": summary([sum(s[0] for s in r.values()) for r in runs])}
        deterministic = all(h == hashes[label][0] for h in hashes[label])
        if not deterministic:
            print(f"{label}: the runs wrote different bytes", file=sys.stderr)
        result["trees"][label] = {
            "source_sha256": source_sha256(src), "stages": stages,
            "artifacts_sha256": hashes[label][0], "deterministic": deterministic,
        }
    # kernel rounds alternate between the trees like the reference runs
    rounds = {label: [] for label in trees}
    for n in range(KERNEL_ROUNDS):
        for label in (list(trees) if n % 2 == 0 else list(trees)[::-1]):
            proc = subprocess.run([sys.executable, __file__, "--kernels"],
                                  env=child_env(trees[label]), capture_output=True, text=True,
                                  check=True)
            rounds[label].append(json.loads(proc.stdout))
    for label, runs in rounds.items():
        result["trees"][label]["kernels_us"] = {
            name: {"shape": bench["shape"],
                   "median": statistics.median(r[name]["us"] for r in runs),
                   "rounds": [r[name]["us"] for r in runs]}
            for name, bench in runs[0].items()
        }
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0 if all(tree["deterministic"] for tree in result["trees"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
