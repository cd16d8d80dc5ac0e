"""Stage timings of the reference run and microbenchmarks of the CNN kernels, of
Shapley sampling, of k-means and the silhouette and of plan resolution, written
to one BENCH_*.json file.

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
such as explain's, and peak RSS is the largest of them), the machine's
1-minute load average when the process ended, which shows a run that other
load disturbed, and for every tree
the sha256 of each file under ``--out`` and whether the runs wrote the same
bytes; the exit code is 1 when they did not. The kernel microbenchmarks time
the conv forward, weight-gradient and input-gradient kernels and the FC
products at the shapes that explain and train give them, in float64 and
float32, one train batch of the reference network and of many_nodes' 4x4
one (the per-layer SGDM step of ``cnn.train`` on 32 images) in float64 and
float32, ``shapley_sample`` on one image of the reference shape with every
feature cell a player and M=4, and
``kmeans`` (on the SBM graph's sparse matrix, ``generate_sbm(...).csr``, or
on its dense ``adjacency`` in a tree that has no ``csr``) and ``silhouette`` at
the node counts of the reference run (240) and of the many_nodes workload
(1,200), and ``resolve_assignment`` on a
permutation plan and a dense plan at the feature counts of the reference run
(64) and of the wide_features workload (121): each round times every kernel in a
fresh process per tree, the rounds alternate between the trees, and the file
keeps each kernel's median over the rounds. The k-means and silhouette rows
also hold ``peak_mb``, the most memory one call allocates, as numpy reports
its buffers to tracemalloc. The FC products call numpy alone, not g2i, so
their differences between trees show the noise of the machine. The script
times the im2col conv kernels and the ``ConvNetParams.flat`` buffers, so it
measures no tree older than those.

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
import tracemalloc
from importlib import metadata
from pathlib import Path

SEED = 7
# fresh processes per tree that time every kernel; the file keeps their median
KERNEL_ROUNDS = 3
STAGES = ("synth", "ingest", "cluster", "layout", "render", "train", "eval", "explain", "metrics")

# (name, batch, channels in, image side, filters): the conv shapes of the
# reference network, in explain's 65-image batches and train's 32-image ones,
# of wide_features' 11x11 images and of many_nodes' 4x4 images (k=16, so
# explain scores 17 coalitions per batch)
CONV_SHAPES = (
    ("explain_first", 65, 2, 8, 16),
    ("explain_hidden", 65, 16, 8, 16),
    ("train_hidden", 32, 16, 8, 16),
    ("train_hidden_11x11", 32, 16, 11, 16),
    ("train_first_4x4", 32, 2, 4, 16),
    ("train_hidden_4x4", 32, 16, 4, 16),
    ("explain_hidden_4x4", 17, 16, 4, 16),
)
# (name, image side): train batches of the reference network and of many_nodes'
TRAIN_SIDES = (("reference", 8), ("many_nodes", 4))
# (nodes, P, p_in, p_out, embedding width): k-means on the SBM adjacency that
# cluster sees, at P = ceil(sqrt(k)), and the silhouette of the metrics
# stage's image embedding, on the reference run (k=64, 2x8x8 images) and the
# many_nodes workload (k=16, 2x4x4 images)
CLUSTER_SHAPES = ((240, 8, 0.3, 0.02, 128), (1200, 4, 0.1, 0.01, 32))
# (name, batch, fan in, fan out): the first two FC layers at image sides 8 and 11
FC_SHAPES = (
    ("explain_fc0", 65, 8 * 8 * 16, 768),
    ("train_fc0", 32, 8 * 8 * 16, 768),
    ("train_fc0_11x11", 32, 11 * 11 * 16, 768),
    ("train_fc1", 32, 768, 512),
)
# plan sizes m of resolve_assignment: the reference run's k=64 and wide_features' k=121
RESOLVE_SIZES = (64, 121)


def child_env(src):
    """The environment of a ``python -m g2i.cli`` process of the tree ``src``:
    one BLAS thread, fixed hash seed, no bytecode written."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0",
                PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))


def parse_trees(parser, entries):
    """{label: resolved src/ directory} of ``--tree LABEL=SRC`` entries."""
    trees = {}
    for entry in entries:
        label, _, src = entry.partition("=")
        if not src or not (Path(src) / "g2i" / "cli.py").is_file():
            parser.error(f"--tree {entry!r}: expected LABEL=SRC with SRC/g2i/cli.py")
        trees[label] = Path(src).resolve()
    return trees


def file_sha256(directory):
    """{file name: sha256} of every file in ``directory``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir())}


def timed_process(argv, env):
    """(wall s, CPU s, peak RSS MB, 1-minute load average at its end) of one
    child process, which must succeed."""
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
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, os.getloadavg()[0]


def reference_run(src, out):
    """Per-stage ``timed_process`` tuples of one reference run into ``out``,
    and the sha256 of every file it wrote."""
    env = child_env(src)
    data = ["--edges", str(out / "edges.tsv"), "--features", str(out / "features.csv"),
            "--labels", str(out / "labels.csv")]
    stages = {}
    for stage in STAGES:
        argv = [sys.executable, "-m", "g2i.cli", stage, "--out", str(out), "--seed", str(SEED)]
        stages[stage] = timed_process(argv + ([] if stage == "synth" else data), env)
    return stages, file_sha256(out)


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


def _peak_mb(fn):
    """MB that one call of ``fn`` holds at its peak beyond what existed before,
    as numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def train_batch(cnn, config, dtype, X, y):
    """One batch of ``cnn.train`` as a call: ``cnn._sgdm_step``, which applies
    the momentum update to the weights and velocity block by block as the
    backward walk hands the gradient over. A tree without it, before the
    per-layer step, gets its own batch: ``loss_and_grad`` into one gradient
    set that every batch refills, then the update on the whole flat buffers."""
    import numpy as np

    params = cnn.init_params(config, seed=0).astype(dtype)
    velocity = np.zeros_like(params.flat)
    scalar = np.dtype(dtype).type
    lr, mom = scalar(config.learning_rate), scalar(config.momentum)
    if hasattr(cnn, "_sgdm_step"):
        return lambda: cnn._sgdm_step(params, velocity, X, y, lr, mom)
    grads = cnn.ConvNetParams.zeros(config, dtype)

    def call():
        cnn.loss_and_grad(params, X, y, out=grads)
        grads.flat *= lr
        np.multiply(velocity, mom, out=velocity)
        np.subtract(velocity, grads.flat, out=velocity)
        params.flat += velocity

    return call


def kernel_benchmarks():
    """Microseconds per call of the conv kernels, FC products, train batch,
    Shapley sampling, k-means, silhouette and plan resolution of the g2i
    package on sys.path, by kernel, shape and dtype."""
    import numpy as np

    from g2i import attribution, cnn, community, graph, metrics, transport

    rng = np.random.default_rng(0)
    out = {}
    for dtype in ("float64", "float32"):
        for name, B, C, side, F in CONV_SHAPES:
            x = rng.normal(size=(B, side, side, C)).astype(dtype)
            w = rng.normal(size=(F, C, 5, 5)).astype(dtype)
            b = rng.normal(size=F).astype(dtype)
            dout = rng.normal(size=(B, side, side, F)).astype(dtype)
            shape = f"B={B} C={C} {side}x{side} F={F}"
            for kernel, call in (
                ("conv_forward", lambda: cnn._conv_forward(x, w, b)),
                ("conv_weight_grad", lambda: cnn._conv_weight_grad(x, w, dout)),
                ("conv_input_grad", lambda: cnn._conv_input_grad(w, dout)),
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
                ("fc_weight_grad", lambda: grad.T @ a),     # whole layer; train takes row blocks
                ("fc_input_grad", lambda: grad @ w),
            ):
                out[f"{kernel} {name} {dtype}"] = {
                    "shape": shape, "us": 1e6 * _per_call_s(call)}
        for name, side in TRAIN_SIDES:
            config = cnn.ConvNetConfig(input_side=side, input_channels=2, classes=4)
            X = rng.normal(size=(32, 2, side, side)).astype(dtype)
            y = rng.integers(0, config.classes, 32)
            out[f"train_batch {name} {dtype}"] = {
                "shape": f"B=32 2x{side}x{side}, 4 classes",
                "us": 1e6 * _per_call_s(train_batch(cnn, config, dtype, X, y))}
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
    for n, P, p_in, p_out, width in CLUSTER_SHAPES:
        sbm = graph.generate_sbm((n // 4,) * 4, p_in, p_out, 4, 0.0, seed=0)
        adjacency = getattr(sbm, "csr", None) or sbm.adjacency
        embedding = rng.normal(size=(n, width))
        labels = np.repeat(np.arange(4), n // 4)
        for name, shape, call in (
            (f"kmeans n={n}", f"{n}x{n} adjacency P={P}",
             lambda: community.kmeans(adjacency, P, seed=0)),
            (f"silhouette n={n}", f"{n}x{width} embedding, 4 classes",
             lambda: metrics.silhouette(embedding, labels)),
        ):
            out[name] = {"shape": shape, "us": 1e6 * _per_call_s(call), "peak_mb": _peak_mb(call)}
    # a permutation plan, as an epsilon=0 layout resolves, and a dense one with a
    # unique maximum, as an epsilon>0 layout does
    for m in RESOLVE_SIZES:
        permutation = np.zeros((m, m))
        permutation[np.arange(m), rng.permutation(m)] = 1.0 / m
        for name, plan in (("permutation", permutation), ("dense", rng.random((m, m)) / m**2)):
            out[f"resolve_assignment {name} m={m}"] = {
                "shape": f"{m}x{m} {name} plan",
                "us": 1e6 * _per_call_s(lambda: transport.resolve_assignment(plan))}
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
    trees = parse_trees(parser, args.tree or ["change=src"])

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
                explain_wall, explain_cpu = stages["explain"][:2]
                print(f"run {run + 1} {label}: {total:.2f} s, explain {explain_wall:.2f} s"
                      f" (CPU {explain_cpu:.2f} s), train {stages['train'][0]:.2f} s",
                      file=sys.stderr)

    result = {"environment": environment(), "seed": SEED, "runs": args.runs,
              "method": "g2i synth, then each stage in its own `python -m g2i.cli` process, "
                        "seed 7, default settings, OPENBLAS_NUM_THREADS=1; wall time from "
                        "process start to exit (interpreter start and imports included), "
                        "CPU time and peak RSS from os.wait4 of that process, which counts the "
                        "worker processes it reaped; loadavg_1m is os.getloadavg()[0] when the "
                        "process ended",
              "trees": {}}
    for label, src in trees.items():
        runs = samples[label]
        stages = {
            stage: {metric: summary([r[stage][i] for r in runs])
                    for i, metric in enumerate(("wall_s", "cpu_s", "peak_rss_mb", "loadavg_1m"))}
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
                   "rounds": [r[name]["us"] for r in runs],
                   **({"peak_mb": bench["peak_mb"]} if "peak_mb" in bench else {})}
            for name, bench in runs[0].items()
        }
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0 if all(tree["deterministic"] for tree in result["trees"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
