"""Batch command-line front end.

Subcommands::

    misoid simulate     <config>   write a synthetic dataset + ground truth
    misoid identify     <config>   run Gibbs chain(s) on a dataset
    misoid oracle-check [<config>] fixed-hyperparameter equivalence suite
    misoid diagnose     <run-dir>  recompute diagnostics for a stored chain

Configs are INI-style key/value files (see README for the grammar); command
line flags override config keys.  Exit codes: 0 success, 1 numerical abort,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time

import numpy as np

from . import __version__
from .blocks import (compute_block_probabilities, compute_correlations,
                     export_correlations_csv, export_probabilities_csv)
from .diagnostics import build_report, run_oracle_checks
from .errors import DegenerateRateError, FactorizationError, SizeGuardError
from .kernel import check_kernel_settings
from .regression import load_dataset_csv, save_dataset_csv
from .sampler import (SamplerConfig, VARIANTS, build_problem, derive_seed,
                      load_record, run, save_record, summarize)
from .simgen import (CollinearInputSpec, RandomSystemSpec, gamma_for_target_c,
                     generate_inputs, generate_system, load_truth_json,
                     synthesize_dataset, write_truth_json)


class ConfigError(Exception):
    pass


# errors that end a chain early: exit 1, with the partial chain flushed
NUMERICAL_ERRORS = (FactorizationError, DegenerateRateError)


def _read_config(path) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parser


def _get(section, key, cast, default=None, required=False):
    if section is None or key not in section or section[key].strip() == "":
        if required:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    raw = section[key].strip()
    try:
        if cast is bool:
            # 1/yes/true/on or 0/no/false/off, in any case
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return cast(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config key '{key}': cannot parse {raw!r}") from None


def _section(cfg, name):
    return cfg[name] if cfg.has_section(name) else None


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    gen = _section(cfg, "generator")
    if gen is None:
        raise ConfigError("simulate needs a [generator] section")
    runsec = _section(cfg, "run")

    m = _get(gen, "channels", int, required=True)
    n = _get(gen, "samples", int, required=True)
    mode = _get(gen, "mode", str, default="independent")
    if mode not in ("duplicate", "chain", "independent"):
        raise ConfigError(f"unknown generator mode {mode!r}")
    prefix = _get(gen, "correlated_prefix", int, default=0)
    target_c = _get(gen, "target_c", float, default=0.99)
    ma = _get(gen, "ma_coefficient", float, default=0.8)
    noise_var = _get(gen, "noise_variance", float, required=True)
    degree = _get(gen, "denominator_degree", int, default=5)
    rmin = _get(gen, "pole_radius_min", float, default=0.4)
    rmax = _get(gen, "pole_radius_max", float, default=0.9)
    p = _get(gen, "fir_order", int, required=True)
    seed = _get(gen, "seed", int, default=0)

    outdir = args.output or _get(runsec, "output", str, required=True)
    emit = (args.emit_figures
            or _get(runsec, "emit_figures", bool, default=False))

    try:
        sys_spec = RandomSystemSpec(
            m=m, fir_order=p, denominator_degree=degree,
            pole_radius_max=rmax, pole_radius_min=rmin)
        inp_spec = CollinearInputSpec(
            m=m, n=n,
            correlated_prefix=prefix if mode == "chain" else 0,
            target_c=target_c, ma_coefficient=ma,
            duplicate=(mode == "duplicate"),
        )
        gamma = (gamma_for_target_c(target_c, ma, 1.0)
                 if mode == "chain" and prefix > 1 else None)
        if not noise_var >= 0.0:
            raise ValueError(f"noise variance must be >= 0, got {noise_var}")
        rng = np.random.default_rng(seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    os.makedirs(outdir, exist_ok=True)
    system = generate_system(sys_spec, rng)
    inputs = generate_inputs(inp_spec, rng)
    data = synthesize_dataset(system, inputs, noise_var, rng)
    cmat = compute_correlations(data)

    save_dataset_csv(data, os.path.join(outdir, "dataset.csv"))
    write_truth_json(os.path.join(outdir, "truth.json"), system, noise_var,
                     gamma=gamma, achieved_correlations=cmat)
    if emit:
        export_correlations_csv(cmat, os.path.join(outdir, "cmatrix.csv"))

    print(f"wrote {outdir}/dataset.csv ({n} samples, {m} channels) "
          f"and truth.json")
    if mode == "duplicate":
        print(f"achieved c(0,1) = {cmat[0, 1]:.6f}")
    elif mode == "chain" and prefix > 1:
        adjacent = [cmat[i, i + 1] for i in range(prefix - 1)]
        print(f"achieved adjacent correlations: min {min(adjacent):.4f} "
              f"max {max(adjacent):.4f}; c(0,{prefix - 1}) = "
              f"{cmat[0, prefix - 1]:.4f}")
    return 0


# --------------------------------------------------------------------------
# identify
# --------------------------------------------------------------------------

def _flag_or(value, section, key, cast, **kwargs):
    """A command-line value when given (zero included), else the config's."""
    return value if value is not None else _get(section, key, cast, **kwargs)


def _sampler_config(cfg, args, variant: str, seed: int) -> SamplerConfig:
    """The chain settings: each field a flag or key sets, SamplerConfig's
    default for the rest."""
    sec = _section(cfg, "sampler")
    if _get(sec, "literal_paper_shape", bool, default=False):
        raise ConfigError(
            "config key 'literal_paper_shape' is retired: the common scale "
            "factor is drawn with shape m*p/2 only; remove the key")
    settings = {
        "n_mc": _flag_or(args.iterations, sec, "iterations", int,
                         required=True),
        "alpha": _flag_or(args.alpha, sec, "alpha", float, required=True),
        "p": _flag_or(args.fir_order, sec, "fir_order", int, required=True),
        "beta": _flag_or(args.beta, sec, "beta", float),
        "n_ob": _flag_or(args.n_ob, sec, "overlapping_blocks", int),
        "burn_in": _flag_or(args.burn_in, sec, "burn_in", int),
        "thin": _flag_or(args.thin, sec, "thin", int),
    }
    try:
        return SamplerConfig(variant=variant, seed=seed,
                             **{field: value for field, value in
                                settings.items() if value is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_one(problem, config, outdir, truth, data_hash, emit_figures) -> None:
    """Run one chain into a temporary sibling of ``outdir``, which then
    replaces ``outdir`` whole, the partial chain of a numerical abort
    included; on any other error the sibling is removed."""
    parent, name = os.path.split(outdir)
    staging = os.path.join(parent, f".{name}.{os.getpid()}.tmp")
    # a sibling under this process id is left over from an earlier run
    for leftover in (staging, f"{staging}.old"):
        shutil.rmtree(leftover, ignore_errors=True)
    os.makedirs(staging)
    try:
        _write_chain(problem, config, staging, truth, data_hash,
                     emit_figures)
    except NUMERICAL_ERRORS:
        _move_into_place(staging, outdir)
        raise
    except BaseException:
        shutil.rmtree(staging)
        raise
    _move_into_place(staging, outdir)


def _move_into_place(staging, outdir) -> None:
    """Rename ``staging`` over ``outdir``, then try to remove the old one."""
    stale = f"{staging}.old"
    if os.path.exists(outdir):
        os.rename(outdir, stale)
    os.rename(staging, outdir)
    shutil.rmtree(stale, ignore_errors=True)


def _write_chain(problem, config, outdir, truth, data_hash,
                 emit_figures) -> None:
    started = time.perf_counter()
    try:
        record, summary = run(problem, config)
    except NUMERICAL_ERRORS as exc:
        partial = getattr(exc, "partial_record", None)
        if partial is not None:
            save_record(partial, None, outdir, aborted=True)
            _write_manifest(outdir, config, data_hash,
                            time.perf_counter() - started, partial.seconds,
                            aborted=True, error=str(exc))
        raise
    phases = dict(record.seconds)
    mark = time.perf_counter()
    save_record(record, summary, outdir)
    phases["save"] = time.perf_counter() - mark
    mark = time.perf_counter()
    truth_resp = truth["responses"] if truth is not None else None
    report = build_report(record, summary, truth_resp)
    report.to_json(os.path.join(outdir, "diagnostics.json"))
    phases["report"] = time.perf_counter() - mark
    _write_manifest(outdir, config, data_hash,
                    time.perf_counter() - started, phases)
    if emit_figures and config.uses_blocks:
        schedule = compute_block_probabilities(problem.correlations,
                                               config.beta)
        export_probabilities_csv(schedule,
                                 os.path.join(outdir, "pmatrix.csv"))


# environment variables that set the BLAS thread count, recorded as found
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS")


def _write_manifest(outdir, config, data_hash, seconds, phases,
                    aborted=False, error=None) -> None:
    doc = {
        "config": dataclasses.asdict(config),
        "seed": config.seed,
        "data_sha256": data_hash,
        "version": __version__,
        "seconds": round(seconds, 3),
        "phase_seconds": {name: round(value, 4)
                          for name, value in phases.items()},
        "environment": {
            "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        },
        "aborted": aborted,
    }
    if error:
        doc["error"] = error
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_truth(path, m: int, p: int) -> dict:
    """The truth file at ``path``, whose responses must be (m, p).  A file
    that is not one is a data error."""
    try:
        truth = load_truth_json(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: not a truth file ({exc})") from None
    shape = truth["responses"].shape
    if shape != (m, p):
        raise ConfigError(f"{path}: responses have shape {shape}, "
                          f"expected ({m}, {p})")
    return truth


def _load_identifiable(path):
    """The dataset at ``path``.  A malformed file, a nan or an inf, an
    output that never changes, or an input column that never changes (no
    variant can identify its response), is a data error."""
    try:
        data = load_dataset_csv(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if np.ptp(data.y) == 0.0:
        raise ConfigError(f"{path}: output y is constant; there is nothing "
                          "to identify")
    constant = np.flatnonzero(np.ptp(data.inputs, axis=1) == 0.0)
    if constant.size:
        raise ConfigError(f"{path}: input column u{constant[0] + 1} is "
                          "constant; its response cannot be identified")
    return data


def cmd_identify(args) -> int:
    cfg = _read_config(args.config)
    datasec = _section(cfg, "data")
    runsec = _section(cfg, "run")

    data_path = args.data or _get(datasec, "path", str)
    if not data_path:
        raise ConfigError("no dataset path given ([data] path or --data)")
    if not os.path.exists(data_path):
        raise ConfigError(f"dataset not found: {data_path}")
    truth_path = args.truth or _get(datasec, "truth", str)

    variants_raw = args.variant or _get(_section(cfg, "sampler"), "variant",
                                        str, required=True)
    variants = [v.strip() for v in variants_raw.split(",") if v.strip()]
    if not variants:
        raise ConfigError(f"no variant given; choose from {VARIANTS}")
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}; choose from {VARIANTS}")

    outroot = args.output or _get(runsec, "output", str, required=True)
    replicates = _flag_or(args.replicates, runsec, "replicates", int,
                          default=1)
    if replicates < 1:
        raise ConfigError(f"need at least one replicate, got {replicates}")
    emit = args.emit_figures or _get(runsec, "emit_figures", bool,
                                     default=False)

    master_seed = _flag_or(args.seed, _section(cfg, "sampler"), "seed", int,
                           default=0)
    data = _load_identifiable(data_path)
    if data.m < 2 and {"GSOB", "GSOBd"} & set(variants):
        raise ConfigError(f"{data_path}: the GSOB variants update blocks of "
                          "two or more channels; the data have one input")
    data_hash = _sha256(data_path)

    jobs = []
    for variant in variants:
        for rep in range(replicates):
            config = _sampler_config(cfg, args, variant,
                                     derive_seed(master_seed, rep))
            outdir = os.path.join(outroot, variant, f"rep{rep:03d}")
            jobs.append((config, outdir))
    truth = None
    if truth_path:
        truth = _load_truth(truth_path, data.m, jobs[0][0].p)
    problem = build_problem(data, jobs[0][0])

    failed = []
    for config, outdir in jobs:
        try:
            _run_one(problem, config, outdir, truth, data_hash, emit)
        except Exception as exc:
            kind = ("numerical abort" if isinstance(exc, NUMERICAL_ERRORS)
                    else "error")
            print(f"{kind} in {outdir}: {exc}", file=sys.stderr)
            failed.append(exc)
        else:
            print(f"chain written: {outdir}")
    for exc in failed:
        if not isinstance(exc, NUMERICAL_ERRORS):
            raise exc
    return 1 if failed else 0


# --------------------------------------------------------------------------
# oracle-check / diagnose
# --------------------------------------------------------------------------

def cmd_oracle_check(args) -> int:
    seed, sweeps, m, p, n = 0, 10_000, 2, 3, 50
    if args.config:
        cfg = _read_config(args.config)
        sec = _section(cfg, "oracle")
        seed = _get(sec, "seed", int, default=seed)
        sweeps = _get(sec, "sweeps", int, default=sweeps)
        m = _get(sec, "channels", int, default=m)
        p = _get(sec, "fir_order", int, default=p)
        n = _get(sec, "samples", int, default=n)
    if m < 2 or n < 1 or sweeps < 50 or seed < 0:
        raise ConfigError(
            "oracle needs channels >= 2 (for pairs), samples >= 1, sweeps >= "
            f"50 (for the IACT) and seed >= 0; got {m}, {n}, {sweeps}, {seed}")
    try:
        check_kernel_settings(0.9, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        report = run_oracle_checks(seed=seed, n_sweeps=sweeps, m=m, p=p, n=n,
                                   corrupt_mean=args.corrupt_mean)
    except SizeGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: statistic={check.statistic:.3e} "
              f"limit={check.limit:g}")
    return 0 if report.passed else 1


def cmd_diagnose(args) -> int:
    if not os.path.isdir(args.run_dir):
        raise ConfigError(f"run directory not found: {args.run_dir}")
    try:
        record = load_record(args.run_dir)
        summary = summarize(record)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{args.run_dir}: {exc}") from None
    truth = None
    if args.truth:
        truth = _load_truth(args.truth, record.m, record.p)
    report = build_report(record, summary,
                          truth["responses"] if truth else None)
    out = os.path.join(args.run_dir, "diagnostics.json")
    report.to_json(out)
    for name in sorted(report.iact):
        print(f"{name}: iact={report.iact[name]:.2f} "
              f"ess={report.ess[name]:.1f}")
    if report.fit_errors is not None:
        print("fit (relative L2 per channel): " +
              " ".join(f"{e:.3f}" for e in report.fit_errors))
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# parser / entry points
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misoid",
        description="Bayesian MISO system identification via blocked Gibbs "
                    "sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("config")
    sim.add_argument("--output")
    sim.add_argument("--emit-figures", action="store_true", default=False)
    sim.set_defaults(func=cmd_simulate)

    ident = sub.add_parser("identify", help="run Gibbs chains on a dataset")
    ident.add_argument("config")
    ident.add_argument("--data")
    ident.add_argument("--truth")
    ident.add_argument("--output")
    ident.add_argument("--variant", help="comma-separated list")
    ident.add_argument("--iterations", type=int)
    ident.add_argument("--burn-in", type=int, dest="burn_in")
    ident.add_argument("--alpha", type=float)
    ident.add_argument("--beta", type=float)
    ident.add_argument("--n-ob", type=int, dest="n_ob")
    ident.add_argument("--fir-order", type=int, dest="fir_order")
    ident.add_argument("--seed", type=int)
    ident.add_argument("--thin", type=int)
    ident.add_argument("--replicates", type=int)
    ident.add_argument("--emit-figures", action="store_true", default=False)
    ident.set_defaults(func=cmd_identify)

    oc = sub.add_parser("oracle-check",
                        help="fixed-hyperparameter equivalence suite")
    oc.add_argument("config", nargs="?")
    oc.add_argument("--corrupt-mean", action="store_true", default=False,
                    help="mutation sanity hook: flip conditional means")
    oc.set_defaults(func=cmd_oracle_check)

    diag = sub.add_parser("diagnose", help="recompute chain diagnostics")
    diag.add_argument("run_dir")
    diag.add_argument("--truth")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
