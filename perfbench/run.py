#!/usr/bin/env python3
"""Benchmark of ``misoid identify``, end to end and per layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it reads ``src/misoid`` and writes
only under ``.perfbench/`` at the checkout's root.  One run generates the
workload's dataset and truth from ``--seed`` with misoid's own generators,
then launches ``identify`` in fresh processes, one after another, until
``--seconds`` are used (at least two processes, or one traced pair).
Every process runs the four variants and its outputs are checked.

``--trace 0`` times only coarse calls from outside the program and prints
the end-to-end metrics over the run's processes.  ``--trace 1``
alternates an untraced and a traced process and prints the per-layer
metrics of the traced one, with the traced/untraced wall-time ratio.  The
last line of standard output is the result object; the line before it,
prefixed ``context:``, holds the environment, the reference timing, the
per-process samples and, when traced, a per-name span table.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# BLAS runs on one thread, here and in every identify process started from
# here (they inherit this environment); the program itself is not touched.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "GOTO_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

import checks  # noqa: E402
from tracer import COARSE, layer_metrics, span_name, span_table  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT_DIR, ".perfbench")

P = 50
NOISE_VARIANCE = 0.3
TARGET_C = 0.99
N_OB = 10
BETA = 100.0
ALPHA = 0.9
RUN_DEADLINE_S = 150.0
PROCESS_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    m: int                  # channels
    n: int                  # samples
    chain: int              # channels 1..chain form the correlated chain
    iterations: int         # n_mc per chain; burn-in is half
    fit_bound: float        # relative L2 of posterior means to the truth


# Why each workload exists is in README.md.
WORKLOADS = {
    "desk": Workload(m=20, n=10_000, chain=5, iterations=150, fit_bound=0.15),
    "wide": Workload(m=100, n=10_000, chain=10, iterations=20,
                     fit_bound=0.4),
    "long": Workload(m=20, n=100_000, chain=5, iterations=200,
                     fit_bound=0.15),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_misoid():
    src = os.path.join(ROOT_DIR, "src")
    if not os.path.isfile(os.path.join(src, "misoid", "cli.py")):
        fail(f"no misoid sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import misoid
    return misoid


def write_inputs(workload: Workload, seed: int, workdir: str):
    """Dataset, truth and config of one run; returns the data and truth."""
    mi = import_misoid()
    rng = np.random.default_rng(seed)
    system = mi.generate_system(
        mi.RandomSystemSpec(m=workload.m, fir_order=P), rng)
    inputs = mi.generate_inputs(
        mi.CollinearInputSpec(m=workload.m, n=workload.n,
                              correlated_prefix=workload.chain,
                              target_c=TARGET_C), rng)
    data = mi.synthesize_dataset(system, inputs, NOISE_VARIANCE, rng)
    mi.save_dataset_csv(data, os.path.join(workdir, "dataset.csv"))
    mi.write_truth_json(os.path.join(workdir, "truth.json"), system,
                        NOISE_VARIANCE)
    with open(os.path.join(workdir, "identify.cfg"), "w") as fh:
        fh.write(f"""[data]
path = {os.path.join(workdir, "dataset.csv")}
truth = {os.path.join(workdir, "truth.json")}

[sampler]
variant = {",".join(checks.VARIANTS)}
iterations = {workload.iterations}
overlapping_blocks = {N_OB}
alpha = {ALPHA}
beta = {BETA:g}
fir_order = {P}
seed = {seed}

[run]
output = {os.path.join(workdir, "out")}
replicates = 1
threads = 1
emit_figures = true
""")
    return data, system.responses


@dataclass
class Process:
    wall_s: float
    rss_mb: float
    code: int
    outdir: str
    doc: dict | None


def launch(workdir: str, index: int, mode: str, gram: bool,
           deadline: float) -> Process:
    """One ``identify`` process; wall time and peak RSS seen from outside."""
    outdir = os.path.join(workdir, f"out{index}")
    result = os.path.join(workdir, f"result{index}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), result, mode,
            "1" if gram else "0", "identify",
            os.path.join(workdir, "identify.cfg"), "--output", outdir]
    with open(os.path.join(workdir, f"log{index}.txt"), "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=workdir)
        timeout = max(deadline - time.monotonic(), 1.0)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    doc = None
    if os.path.exists(result):
        with open(result) as fh:
            doc = json.load(fh)
    return Process(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                   code=proc.returncode, outdir=outdir, doc=doc)


def reference_ms() -> list:
    """A fixed numpy and pure-Python computation, no misoid code: five
    timings in ms.  It tracks machine speed, not the program."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((120, 120))
    spd = a @ a.T + 120 * np.eye(120)
    rhs = rng.standard_normal(120)
    out = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(100):
            np.linalg.solve(np.linalg.cholesky(spd), rhs)
        total = 0
        for k in range(100_000):
            total += k * k % 7
        out.append((time.perf_counter() - started) * 1e3)
    return out


def coarse_times(doc: dict) -> tuple:
    """(set-up seconds, {variant: chain seconds}) of an untraced process,
    from its coarse spans."""
    names, spans = doc["trace"]["names"], doc["trace"]["spans"]
    labels = doc["trace"]["labels"]
    load, build, chain = (span_name(*target) for target in COARSE)
    setup, per_variant = 0.0, {}
    for sid, (k, _, start, end) in enumerate(spans):
        if names[k] in (load, build):
            setup += end - start
        elif names[k] == chain:
            per_variant[labels.get(str(sid))] = end - start
    missing = set(checks.VARIANTS) - set(per_variant)
    if missing:
        fail(f"no chain span for {sorted(missing)}; "
             f"absent names: {doc['trace']['absent']}")
    return setup, per_variant


def end_to_end_samples(untraced: list, n_mc: int) -> dict:
    """Each end-to-end metric's value in every untraced process."""
    samples = {"setup_s": [], "identify_s": [p.wall_s for p in untraced]}
    samples.update({f"iter_ms.{v}": [] for v in checks.VARIANTS})
    samples["peak_rss_mb"] = [p.rss_mb for p in untraced]
    for proc in untraced:
        setup, per_variant = coarse_times(proc.doc)
        samples["setup_s"].append(setup)
        for variant in checks.VARIANTS:
            samples[f"iter_ms.{variant}"].append(
                per_variant[variant] / n_mc * 1e3)
    return samples


def end_to_end(samples: dict) -> dict:
    """Medians over the run's processes; per-iteration times are the
    variant's summed chain time over its summed iterations, which weighs
    every moment of the run alike."""
    med = statistics.median
    metrics = {"setup_s": (med(samples["setup_s"]), "s"),
               "identify_s": (med(samples["identify_s"]), "s")}
    for variant in checks.VARIANTS:
        values = samples[f"iter_ms.{variant}"]
        metrics[f"iter_ms.{variant}"] = (sum(values) / len(values), "ms")
    metrics["peak_rss_mb"] = (med(samples["peak_rss_mb"]), "MiB")
    return metrics


def per_layer(untraced: list, traced: list) -> dict:
    layers = [layer_metrics(p.doc["trace"]) for p in traced]
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["regression.build_peak_mb"] = (statistics.median(
        p.doc.get("build_peak_mb", 0.0) for p in traced), "MiB")
    metrics["trace.overhead"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced), "ratio")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + PROCESS_TIMEOUT_S
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        data, truth = write_inputs(workload, seed, workdir)
        reference = reference_ms()
        modes = ("coarse", "trace") if trace else ("coarse",)
        units: list = []
        processes: list = []
        began = time.monotonic()
        while True:
            unit = []
            for mode in modes:
                unit.append(launch(workdir, len(processes), mode,
                                   gram=not processes, deadline=deadline))
                processes.append(unit[-1])
            units.append(sum(p.wall_s for p in unit))
            elapsed = time.monotonic() - began
            typical = statistics.median(units)
            enough = len(units) >= (1 if trace else 2)
            if (enough and elapsed + typical > seconds) or (
                    time.monotonic() - start + typical > RUN_DEADLINE_S):
                break

        attempted = failed = 0
        problems: list = []
        for proc in processes:
            a, f, found = checks.check_identify(
                proc.outdir, proc.code, truth, workload.chain,
                workload.iterations, workload.fit_bound)
            attempted, failed = attempted + a, failed + f
            problems += found
            if proc.code == 0 and proc.doc is None:
                problems.append(f"{proc.outdir}: no timing result")
        first = processes[0].doc or {}
        if "gram" in first:
            problems += checks.check_cross_products(
                first["gram"], data.inputs, data.y, P)
        else:
            problems.append("no cross-products dumped by the first process")

        good = [p for p in processes if p.code == 0 and p.doc is not None]
        untraced = [p for p in good if p.doc["mode"] == "coarse"]
        traced = [p for p in good if p.doc["mode"] == "trace"]
        if not untraced or (trace and not traced):
            with open(os.path.join(workdir, "log0.txt")) as fh:
                sys.stderr.write(fh.read()[-4000:])
            fail("no identify process succeeded")
        samples = end_to_end_samples(untraced, workload.iterations)
        metrics = (per_layer(untraced, traced) if trace
                   else end_to_end(samples))
        reference += reference_ms()
        if trace:
            keep = os.path.join(WORK_DIR, f"trace-{name}-s{seed}.json")
            with open(keep, "w") as fh:
                json.dump(traced[0].doc["trace"], fh)
        context = {
            "workload": name, "seed": seed,
            "processes": len(processes),
            "process_walls_s": [p.wall_s for p in processes],
            "reference_ms": statistics.median(reference),
            "reference_ms_all": reference,
            "env": untraced[0].doc["env"],
            "absent": untraced[0].doc["trace"]["absent"]
            + (traced[0].doc["trace"]["absent"] if traced else []),
            "problems": problems[:20],
            "samples": samples,
            "spans": span_table(traced[0].doc["trace"]) if trace else None,
            "run_s": time.monotonic() - start,
        }
        print("context: " + json.dumps(context, sort_keys=True))
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": unit}
                        for k, (v, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_misoid()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
