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
import os
import shutil
import sys
import time

import numpy as np

from . import __version__
from .blocks import (compute_correlations, export_correlations_csv,
                     export_probabilities_csv)
from .diagnostics import build_report, run_oracle_checks
from .errors import NUMERICAL_ERRORS
from .kernel import build_kernel
from .regression import load_dataset_csv, save_dataset_csv, write_json
from .sampler import (SamplerConfig, VARIANTS, build_problem, derive_seed,
                      load_record, prior_scale, run, save_record)
from .simgen import (CollinearInputSpec, RandomSystemSpec, gamma_for_target_c,
                     generate_inputs, generate_system, load_truth_json,
                     synthesize_dataset, write_truth_json)


class ConfigError(Exception):
    pass


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


def _given(**settings) -> dict:
    """The settings a flag or key sets, for the callee's defaults to fill."""
    return {key: value for key, value in settings.items() if value is not None}


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
    noise_var = _get(gen, "noise_variance", float, required=True)
    p = _get(gen, "fir_order", int, required=True)
    seed = _get(gen, "seed", int, default=0)

    outdir = args.output or _get(runsec, "output", str, required=True)

    try:
        sys_spec = RandomSystemSpec(m=m, fir_order=p, **_given(
            denominator_degree=_get(gen, "denominator_degree", int),
            pole_radius_min=_get(gen, "pole_radius_min", float),
            pole_radius_max=_get(gen, "pole_radius_max", float)))
        inp_spec = CollinearInputSpec(
            m=m, n=n, correlated_prefix=prefix if mode == "chain" else 0,
            duplicate=(mode == "duplicate"), **_given(
                target_c=_get(gen, "target_c", float),
                ma_coefficient=_get(gen, "ma_coefficient", float)))
        gamma = (gamma_for_target_c(inp_spec.target_c,
                                    inp_spec.ma_coefficient, 1.0)
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
    settings = _given(
        n_mc=_flag_or(args.iterations, sec, "iterations", int, required=True),
        beta=_flag_or(args.beta, sec, "beta", float),
        n_ob=_flag_or(args.n_ob, sec, "overlapping_blocks", int),
        burn_in=_flag_or(args.burn_in, sec, "burn_in", int),
        thin=_flag_or(args.thin, sec, "thin", int))
    try:
        return SamplerConfig(variant=variant, seed=seed, **settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_one(problem, config, outdir, truth, shared) -> str | None:
    """Run one chain into a temporary sibling of ``outdir``, which then
    replaces ``outdir`` whole, finished or aborted; on an error the sibling
    is removed.  ``shared`` holds the manifest entries of the whole run.
    Returns the numerical abort's message, or None."""
    parent, name = os.path.split(outdir)
    staging = os.path.join(parent, f".{name}.{os.getpid()}.tmp")
    # a sibling under this process id is left over from an earlier run
    for leftover in (staging, f"{staging}.old"):
        shutil.rmtree(leftover, ignore_errors=True)
    os.makedirs(staging)
    try:
        error = _write_chain(problem, config, staging, truth, shared)
    except BaseException:
        shutil.rmtree(staging)
        raise
    _move_into_place(staging, outdir)
    return error


def _move_into_place(staging, outdir) -> None:
    """Rename ``staging`` over ``outdir``, then try to remove the old one."""
    stale = f"{staging}.old"
    if os.path.exists(outdir):
        os.rename(outdir, stale)
    os.rename(staging, outdir)
    shutil.rmtree(stale, ignore_errors=True)


def _write_chain(problem, config, outdir, truth, shared) -> str | None:
    """Run one chain and write it: its traces, a finished chain's report and
    block probabilities, then the manifest.  Returns the abort's message."""
    started = time.perf_counter()
    record = run(problem, config)
    phases = dict(record.seconds)
    mark = time.perf_counter()
    save_record(record, outdir)
    phases["save"] = time.perf_counter() - mark
    if not record.aborted:
        mark = time.perf_counter()
        truth_resp = truth["responses"] if truth is not None else None
        report = build_report(record, truth_resp)
        report.to_json(os.path.join(outdir, "diagnostics.json"))
        phases["report"] = time.perf_counter() - mark
        if config.uses_blocks:
            export_probabilities_csv(problem.block_schedule(config.beta),
                                     os.path.join(outdir, "pmatrix.csv"))
    _write_manifest(outdir, problem, config, shared,
                    time.perf_counter() - started, phases, record.error)
    return record.error


# environment variables that set the BLAS thread count, recorded as found
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS")


def _write_manifest(outdir, problem, config, shared, seconds, phases,
                    error) -> None:
    """The chain's ``manifest.json``: its settings, the run's ``shared``
    entries (the data's hash and the set-up phases' seconds), its own wall
    and phase seconds, and the BLAS thread environment."""
    doc = {
        # the chain's settings and the prior's, which the problem holds
        "config": {**dataclasses.asdict(config),
                   "alpha": problem.kernel.alpha, "p": problem.kernel.p},
        "seed": config.seed,
        **shared,
        "version": __version__,
        "seconds": round(seconds, 3),
        "phase_seconds": {name: round(value, 4)
                          for name, value in phases.items()},
        "environment": {
            "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        },
        "aborted": error is not None,
    }
    if error is not None:
        doc["error"] = error
    write_json(os.path.join(outdir, "manifest.json"), doc)


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
    sampsec = _section(cfg, "sampler")
    runsec = _section(cfg, "run")

    data_path = args.data or _get(datasec, "path", str)
    if not data_path:
        raise ConfigError("no dataset path given ([data] path or --data)")
    if not os.path.exists(data_path):
        raise ConfigError(f"dataset not found: {data_path}")
    truth_path = args.truth or _get(datasec, "truth", str)

    variants_raw = args.variant or _get(sampsec, "variant", str,
                                        required=True)
    variants = [v.strip() for v in variants_raw.split(",") if v.strip()]
    if not variants:
        raise ConfigError(f"no variant given; choose from {VARIANTS}")
    for i, v in enumerate(variants):
        if v in variants[:i]:
            raise ConfigError(f"variant {v!r} is listed twice; each variant "
                              "runs once per replicate")

    outroot = args.output or _get(runsec, "output", str, required=True)
    replicates = _flag_or(args.replicates, runsec, "replicates", int,
                          default=1)
    if replicates < 1:
        raise ConfigError(f"need at least one replicate, got {replicates}")

    # the prior's and every chain's settings are checked before the data load
    alpha = _flag_or(args.alpha, sampsec, "alpha", float, required=True)
    p = _flag_or(args.fir_order, sampsec, "fir_order", int, required=True)
    try:
        kernel = build_kernel(alpha, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    master_seed = _flag_or(args.seed, sampsec, "seed", int, default=0)
    jobs = [(_sampler_config(cfg, args, variant,
                             derive_seed(master_seed, rep)),
             os.path.join(outroot, variant, f"rep{rep:03d}"))
            for variant in variants for rep in range(replicates)]

    # the set-up phases, timed once for every chain's manifest
    setup = {}
    mark = time.perf_counter()
    data = _load_identifiable(data_path)
    setup["load"] = time.perf_counter() - mark
    if data.m < 2 and {"GSOB", "GSOBd"} & set(variants):
        raise ConfigError(f"{data_path}: the GSOB variants update blocks of "
                          "two or more channels; the data have one input")
    if not prior_scale(data.y, kernel) < np.inf:
        raise ConfigError(
            f"{data_path}: the prior scale var(y) * tr(K^-1) overflows "
            f"(var(y) = {np.var(data.y):g}, alpha = {alpha:g}, fir_order = "
            f"{p}), so no chain can start; raise alpha or lower fir_order")
    mark = time.perf_counter()
    data_hash = _sha256(data_path)
    setup["hash"] = time.perf_counter() - mark
    truth = _load_truth(truth_path, data.m, p) if truth_path else None
    mark = time.perf_counter()
    problem = build_problem(data, alpha, p)
    setup["build"] = time.perf_counter() - mark
    shared = {"data_sha256": data_hash,
              "setup_seconds": {name: round(value, 4)
                                for name, value in setup.items()}}

    failed, aborted = [], False
    for config, outdir in jobs:
        try:
            error = _run_one(problem, config, outdir, truth, shared)
        except Exception as exc:
            print(f"error in {outdir}: {exc}", file=sys.stderr)
            failed.append(exc)
            continue
        if error is not None:
            print(f"numerical abort in {outdir}: {error}", file=sys.stderr)
            aborted = True
        else:
            print(f"chain written: {outdir}")
    if failed:
        raise failed[0]
    return 1 if aborted else 0


# --------------------------------------------------------------------------
# oracle-check / diagnose
# --------------------------------------------------------------------------

def cmd_oracle_check(args) -> int:
    sec = None
    if args.config:
        sec = _section(_read_config(args.config), "oracle")
    try:
        report = run_oracle_checks(
            corrupt_mean=args.corrupt_mean, **_given(
                seed=_get(sec, "seed", int), n_sweeps=_get(sec, "sweeps", int),
                m=_get(sec, "channels", int), p=_get(sec, "fir_order", int),
                n=_get(sec, "samples", int)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: statistic={check.statistic:.3e} "
              f"limit={check.limit:g}")
    return 0 if report.passed else 1


def cmd_diagnose(args) -> int:
    if not os.path.isdir(args.run_dir):
        raise ConfigError(f"run directory not found: {args.run_dir}")
    try:
        record = load_record(args.run_dir)      # its errors name the file
        record.summary      # a chain with no retained sample is refused
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    truth = None
    if args.truth:
        truth = _load_truth(args.truth, record.m, record.p)
    report = build_report(record, truth["responses"] if truth else None)
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
