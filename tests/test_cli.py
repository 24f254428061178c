import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import misoid as mi
from misoid.cli import main


TINY_CFG = """
[generator]
channels = 2
samples = 120
mode = duplicate
noise_variance = 0.3
denominator_degree = 5
fir_order = 8
seed = 3

[data]
path = {out}/dataset.csv
truth = {out}/truth.json

[sampler]
variant = GSOB
iterations = 40
overlapping_blocks = 2
alpha = 0.9
beta = 20
fir_order = 8
seed = 5

[run]
output = {out}
replicates = 1
# a key identify does not read: unknown keys are ignored
threads = 1
emit_figures = true
"""


@pytest.fixture
def tiny_config(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG.format(out=out))
    return str(cfg), str(out)


def test_simulate_then_identify_then_diagnose(tiny_config):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    assert os.path.exists(f"{out}/dataset.csv")
    assert os.path.exists(f"{out}/truth.json")
    assert os.path.exists(f"{out}/cmatrix.csv")

    assert main(["identify", cfg]) == 0
    rundir = f"{out}/GSOB/rep000"
    for name in ("lambda.csv", "sigma2.csv", "theta_samples.npy",
                 "blocks.csv", "summary.csv", "manifest.json",
                 "diagnostics.json", "record.json", "pmatrix.csv"):
        assert os.path.exists(f"{rundir}/{name}"), name

    manifest = json.load(open(f"{rundir}/manifest.json"))
    assert manifest["config"]["variant"] == "GSOB"
    assert len(manifest["data_sha256"]) == 64
    assert manifest["aborted"] is False
    phases = manifest["phase_seconds"]
    assert set(phases) == {"init", "sweeps", "save", "report"}
    assert all(value >= 0.0 for value in phases.values())
    env = manifest["environment"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["OPENBLAS_NUM_THREADS"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")

    assert main(["diagnose", rundir, "--truth", f"{out}/truth.json"]) == 0
    report = json.load(open(f"{rundir}/diagnostics.json"))
    assert report["fit_errors"] is not None


def test_identify_variant_list_and_replicates(tiny_config):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    assert main(["identify", cfg, "--variant", "GS,GSd",
                 "--replicates", "2"]) == 0
    seeds = set()
    for variant in ("GS", "GSd"):
        for rep in ("rep000", "rep001"):
            manifest = json.load(open(f"{out}/{variant}/{rep}/manifest.json"))
            seeds.add((variant, manifest["seed"]))
    assert len({s for _, s in seeds}) == 2  # two derived replicate seeds


def test_identify_deterministic_reruns(tiny_config):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    assert main(["identify", cfg, "--output", f"{out}/a"]) == 0
    assert main(["identify", cfg, "--output", f"{out}/b"]) == 0
    for name in ("lambda.csv", "sigma2.csv", "theta_samples.npy",
                 "blocks.csv", "summary.csv"):
        with open(f"{out}/a/GSOB/rep000/{name}", "rb") as fa, \
             open(f"{out}/b/GSOB/rep000/{name}", "rb") as fb:
            assert fa.read() == fb.read(), name


def test_missing_dataset_exits_2(tiny_config):
    cfg, out = tiny_config
    assert main(["identify", cfg, "--data", "nowhere.csv"]) == 2


def test_missing_config_exits_2():
    assert main(["simulate", "no-such.cfg"]) == 2


def test_bad_variant_exits_2(tiny_config):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    assert main(["identify", cfg, "--variant", "XX"]) == 2


@pytest.mark.parametrize("replicates", ["1", "2"])
def test_unwritable_output_exits_2(tiny_config, tmp_path, capsys, replicates):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    blocker = tmp_path / "regular-file"
    blocker.write_text("")
    capsys.readouterr()
    code = main(["identify", cfg, "--variant", "GS,GSOB", "--replicates",
                 replicates, "--output", f"{blocker}/runs"])
    captured = capsys.readouterr()
    assert code == 2
    assert "chain written" not in captured.out
    assert "error:" in captured.err


def test_threads_flag_is_a_usage_error(tiny_config, capsys):
    # replicates run one after another; there is no worker-count option
    cfg, out = tiny_config
    with pytest.raises(SystemExit) as info:
        main(["identify", cfg, "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    "--iterations=0", "--thin=0", "--beta=0", "--n-ob=0", "--alpha=0",
    "--fir-order=0", "--replicates=0", "--replicates=-1", "--alpha=1.5",
    "--alpha=0.01 --fir-order=200", "--thin=100 --iterations=60",
    "--thin=7 --iterations=40 --burn-in=35",
    "--truth={out}/not-json.json", "--truth={out}/wrong-shape.json",
    "--truth={out}/no-such.json",
])
def test_out_of_range_flag_exits_2(tiny_config, capsys, flags):
    # a zero flag overrides the config like any other value, and then is
    # refused; so is a kernel setting outside its domain, thinning that
    # stores no iteration past the burn-in, and a truth file that is
    # missing, not JSON or whose responses are not (m, p) -- all before
    # any chain runs
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    Path(out, "not-json.json").write_text("{")
    Path(out, "wrong-shape.json").write_text(
        json.dumps({"responses": [[0.0] * 7] * 2}))
    capsys.readouterr()
    assert main(["identify", cfg, *flags.format(out=out).split()]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "chain written" not in captured.out
    assert not os.path.exists(f"{out}/GSOB")


@pytest.mark.parametrize("variant", ["GS", "GSOB"])
@pytest.mark.parametrize("column,rows,value,named", [
    pytest.param(2, slice(None), 0.0, "u2", id="u2-constant"),
    pytest.param(2, 7, np.nan, "u2", id="u2-nan"),
    pytest.param(2, 7, np.inf, "u2", id="u2-inf"),
    pytest.param(0, 7, np.nan, "output y", id="y-nan"),
    pytest.param(0, slice(None), 1.0, "output y", id="y-constant"),
])
def test_unusable_data_exits_2(tiny_config, capsys, variant, column, rows,
                               value, named):
    # data no chain can use is refused before any chain runs: a nan or an
    # inf anywhere, or an output or an input that never changes
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    dataset = Path(out) / "dataset.csv"
    header = dataset.read_text().splitlines()[0]
    table = np.loadtxt(dataset, delimiter=",", skiprows=1)
    table[rows, column] = value
    np.savetxt(dataset, table, fmt="%.17g", delimiter=",", header=header,
               comments="")
    capsys.readouterr()
    code = main(["identify", cfg, "--variant", variant])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and named in captured.err
    assert "chain written" not in captured.out
    assert not os.path.exists(f"{out}/{variant}")


@pytest.mark.parametrize("flags,old,new,named", [
    pytest.param(["--beta", "inf"], "", "", "beta", id="beta-flag"),
    pytest.param([], "beta = 20", "beta = inf", "beta", id="beta-key"),
    pytest.param(["--variant", ","], "", "", "variant", id="variant-flag"),
    pytest.param([], "variant = GSOB", "variant = ,", "variant",
                 id="variant-key"),
])
def test_infinite_rate_or_no_variant_exits_2(tiny_config, capsys, flags,
                                             old, new, named):
    # an infinite selection rate and an empty variant list are config
    # errors: exit 2 before any chain runs, no traceback and no directory
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    Path(cfg).write_text(Path(cfg).read_text().replace(old, new))
    capsys.readouterr()
    assert main(["identify", cfg, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err
    assert "chain written" not in captured.out
    assert sorted(os.listdir(out)) == ["cmatrix.csv", "dataset.csv",
                                       "truth.json"]


def test_malformed_dataset_exits_2(tiny_config, capsys):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    dataset = Path(out) / "dataset.csv"
    dataset.write_text(dataset.read_text().replace("y,u1,u2", "y,u1,u3", 1))
    capsys.readouterr()
    assert main(["identify", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_value_error_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "nobeta.cfg"
    cfg.write_text(TINY_CFG.format(out=out).replace("beta = 20", "beta ="))
    assert main(["simulate", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["identify", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beta" in err


@pytest.mark.parametrize("old,new,named", [
    ("emit_figures = true", "emit_figures = ture", "emit_figures"),
    ("[sampler]", "[sampler]\nliteral_paper_shape = TRUE", "retired"),
], ids=["misspelt-boolean", "retired-key"])
def test_config_value_that_would_change_a_run_exits_2(tiny_config, capsys,
                                                      old, new, named):
    # a misspelt boolean is not read as false, and a retired option that
    # was switched on is not silently dropped
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    Path(cfg).write_text(Path(cfg).read_text().replace(old, new))
    capsys.readouterr()
    assert main(["identify", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err
    assert not os.path.exists(f"{out}/GSOB")


def test_retired_literal_shape_option(tiny_config, capsys):
    # the flag is gone; the key switched off changes nothing
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["identify", cfg, "--literal-paper-shape"])
    assert exc.value.code == 2
    assert not os.path.exists(f"{out}/GSOB")
    text = Path(cfg).read_text()
    Path(cfg).write_text(text.replace(
        "[sampler]", "[sampler]\nliteral_paper_shape = false"))
    assert main(["identify", cfg]) == 0


# valid settings of each command; a case below replaces one of them
BASE_SETTINGS = {
    "simulate": ("generator", {"channels": "3", "samples": "50",
                               "noise_variance": "0.1", "fir_order": "4",
                               "mode": "chain", "correlated_prefix": "2"}),
    "oracle-check": ("oracle", {"sweeps": "50"}),
}


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "fir_order", "0"),
    ("simulate", "noise_variance", "-1"),
    ("simulate", "ma_coefficient", "1.5"),
    ("simulate", "seed", "-1"),
    ("oracle-check", "sweeps", "0"),
    ("oracle-check", "sweeps", "10"),
    ("oracle-check", "channels", "0"),
    ("oracle-check", "channels", "1"),
    ("oracle-check", "fir_order", "0"),
    ("oracle-check", "fir_order", "100000"),
    ("oracle-check", "samples", "0"),
    ("oracle-check", "seed", "-1"),
])
def test_out_of_range_setting_exits_2(tmp_path, capsys, command, key,
                                      value):
    section, settings = BASE_SETTINGS[command]
    settings = {**settings, key: value}
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n" + "".join(
        f"{k} = {v}\n" for k, v in settings.items()))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output", str(out)]
                if command == "simulate" else [command, str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not out.exists()


def test_oracle_check_cli(tmp_path, capsys):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("[oracle]\nsweeps = 400\nseed = 1\n")
    code = main(["oracle-check", str(cfg)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert code in (0, 1)  # short run; algebra checks must pass
    assert lines[0].startswith("PASS") and lines[1].startswith("PASS")


def test_oracle_check_mutation_hook(tmp_path):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("[oracle]\nsweeps = 200\n")
    assert main(["oracle-check", str(cfg), "--corrupt-mean"]) == 1


def test_oracle_check_size_guard(tmp_path):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("[oracle]\nchannels = 50\nfir_order = 50\nsamples = 60\n")
    assert main(["oracle-check", str(cfg)]) == 2


def _abort_after_30_single_draws(monkeypatch):
    """Make every chain fail in the single-channel pass that reaches its
    31st single-channel draw."""
    from misoid import sampler as sp
    from misoid.errors import FactorizationError

    calls = {"count": 0}
    real = sp.draw_channels

    def explode_later(theta, cross, hyper, problem, *args):
        calls["count"] += problem.bank.m
        if calls["count"] > 30:
            raise FactorizationError("synthetic failure")
        return real(theta, cross, hyper, problem, *args)

    monkeypatch.setattr(sp, "draw_channels", explode_later)


def test_abort_flushes_partial_chain(tiny_config, monkeypatch):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    _abort_after_30_single_draws(monkeypatch)
    assert main(["identify", cfg]) == 1
    rundir = f"{out}/GSOB/rep000"
    manifest = json.load(open(f"{rundir}/manifest.json"))
    assert manifest["aborted"] is True
    assert "error" in manifest
    assert set(manifest["phase_seconds"]) == {"init", "sweeps"}
    partial = np.load(f"{rundir}/theta_samples.npy")
    assert 0 < partial.shape[0] < 40


def test_diagnose_aborted_chain_exits_2(tiny_config, monkeypatch, capsys):
    # the flushed chain ends at iteration 15, before its burn-in of 20
    # does: no sample to summarize is a data error, not a traceback
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    _abort_after_30_single_draws(monkeypatch)
    assert main(["identify", cfg]) == 1
    rundir = f"{out}/GSOB/rep000"
    assert json.load(open(f"{rundir}/record.json"))["aborted"] is True
    capsys.readouterr()
    assert main(["diagnose", rundir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no retained samples" in err
    assert not os.path.exists(f"{rundir}/diagnostics.json")


def test_aborted_rerun_replaces_previous_chain(tiny_config, monkeypatch):
    # the rerun's flushed chain replaces the whole directory: nothing of
    # the first run's summary, diagnostics or probabilities stays beside it
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    assert main(["identify", cfg]) == 0
    rundir = f"{out}/GSOB/rep000"
    assert {"summary.csv", "diagnostics.json",
            "pmatrix.csv"} <= set(os.listdir(rundir))
    _abort_after_30_single_draws(monkeypatch)
    assert main(["identify", cfg]) == 1
    assert os.listdir(f"{out}/GSOB") == ["rep000"]
    assert sorted(os.listdir(rundir)) == [
        "blocks.csv", "lambda.csv", "manifest.json", "record.json",
        "sigma2.csv", "theta_samples.npy"]
    assert json.load(open(f"{rundir}/record.json"))["aborted"] is True


def test_write_error_leaves_no_chain_directory(tiny_config, monkeypatch,
                                               capsys):
    # a write that fails after the traces are on disk leaves neither the
    # chain directory nor its temporary sibling
    from misoid import sampler as sp

    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(sp.np, "save", disk_full)
    capsys.readouterr()
    assert main(["identify", cfg]) == 2
    captured = capsys.readouterr()
    assert "chain written" not in captured.out
    assert "No space left on device" in captured.err
    assert os.listdir(f"{out}/GSOB") == []


@pytest.mark.parametrize("leftover", [".tmp", ".tmp.old"])
def test_killed_run_leftover_is_replaced(tiny_config, leftover):
    # a hidden sibling under this process id can only be left by a run that
    # was killed; the next run removes it instead of failing on it
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    assert main(["identify", cfg]) == 0
    stale = Path(out, "GSOB", f".rep000.{os.getpid()}{leftover}")
    stale.mkdir()
    (stale / "lambda.csv").write_text("iteration,lambda\n")
    assert main(["identify", cfg]) == 0
    assert os.listdir(f"{out}/GSOB") == ["rep000"]
    assert "diagnostics.json" in os.listdir(f"{out}/GSOB/rep000")


@pytest.mark.parametrize("broken", ["record", "truth", "lambda header",
                                    "truncated sigma2", "truncated theta"])
def test_diagnose_malformed_input_exits_2(tiny_config, capsys, broken):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    # a GSd chain, whose lambda.csv names one column per channel
    variant = "GSd" if broken == "lambda header" else "GSOB"
    assert main(["identify", cfg, "--variant", variant]) == 0
    rundir = f"{out}/{variant}/rep000"
    truth = Path(out, "truth.json")
    if broken == "record":
        Path(rundir, "record.json").write_text("{")
    elif broken == "truth":
        truth.write_text(json.dumps({"responses": [[0.0] * 7] * 2}))
    elif broken == "lambda header":
        # the common-scale header over per-channel columns
        table = Path(rundir, "lambda.csv")
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("iteration,lambda\n" + "".join(lines[1:]))
    elif broken == "truncated sigma2":
        table = Path(rundir, "sigma2.csv")
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("".join(lines[:-1]))
    else:
        # stored draws cut short: the rest would pass for the whole chain
        table = Path(rundir, "theta_samples.npy")
        np.save(table, np.load(table)[:30])
    capsys.readouterr()
    assert main(["diagnose", rundir, "--truth", str(truth)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if broken not in ("record", "truth"):
        assert table.name in err


def test_vanishing_scale_factor_aborts_with_partial_chain(tiny_config,
                                                          monkeypatch):
    # a scale factor draw near the rate floor gives an infinite prior
    # precision; the chain must stop with exit 1, not record NaN
    from misoid import sampler as sp

    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    calls = {"count": 0}
    real = sp.sample_lambda_common

    def collapse_later(*args, **kwargs):
        calls["count"] += 1
        return 5e-324 if calls["count"] > 10 else real(*args, **kwargs)

    monkeypatch.setattr(sp, "sample_lambda_common", collapse_later)
    with np.errstate(over="ignore"):
        assert main(["identify", cfg]) == 1
    rundir = f"{out}/GSOB/rep000"
    assert json.load(open(f"{rundir}/manifest.json"))["aborted"] is True
    partial = np.load(f"{rundir}/theta_samples.npy")
    assert partial.shape[0] == 10
    assert np.all(np.isfinite(partial))


def test_identify_computes_correlations_once(tiny_config, monkeypatch):
    from misoid import sampler as sp

    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    calls = {"count": 0}
    real = sp.compute_correlations

    def counted(data):
        calls["count"] += 1
        return real(data)

    monkeypatch.setattr(sp, "compute_correlations", counted)
    assert main(["identify", cfg, "--variant", "GS,GSd",
                 "--output", f"{out}/plain"]) == 0
    assert calls["count"] == 0
    assert main(["identify", cfg, "--variant", "GSOB,GSOBd",
                 "--replicates", "2", "--output", f"{out}/blocks"]) == 0
    assert calls["count"] == 1
    assert os.path.exists(f"{out}/blocks/GSOBd/rep001/pmatrix.csv")


def test_block_spectra_built_once_per_run(tiny_config, monkeypatch):
    # every chain of a problem shares its block spectra: over four chains,
    # the two single channels and the one pair are each decomposed once
    from misoid import conditionals

    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    sizes = []
    real = conditionals.block_spectrum

    def counted(gram, chol):
        sizes.append(gram.shape[0] // chol.shape[0])
        return real(gram, chol)

    monkeypatch.setattr(conditionals, "block_spectrum", counted)
    assert main(["identify", cfg, "--variant", "GS,GSOB",
                 "--replicates", "2"]) == 0
    assert sorted(sizes) == [1, 1, 2]


# modules that scipy.signal drags in; no command but simulate needs them
SIGNAL_MODULES = ("scipy.signal", "scipy.stats", "scipy.interpolate",
                  "scipy.optimize", "scipy.sparse")


def _fresh_python(code):
    """Run ``code`` in a new interpreter that finds this misoid package.
    The test process itself cannot tell: other tests import scipy.signal."""
    package_root = str(Path(mi.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_only_simulate_loads_scipy_signal(tiny_config):
    cfg, out = tiny_config
    assert main(["simulate", cfg]) == 0
    lean = _fresh_python(
        "import sys\n"
        "import misoid\n"
        "from misoid import cli\n"
        f"assert cli.main(['identify', {cfg!r}, '--variant', 'GS,GSOB']) == 0\n"
        f"assert cli.main(['diagnose', {out + '/GS/rep000'!r}]) == 0\n"
        f"print(sorted(set({SIGNAL_MODULES!r}) & set(sys.modules)))\n")
    assert lean.returncode == 0, lean.stderr
    assert lean.stdout.splitlines()[-1] == "[]"

    simulate = _fresh_python(
        "import sys\n"
        "from misoid import cli\n"
        f"assert cli.main(['simulate', {cfg!r}, '--output', "
        f"{out + '/again'!r}]) == 0\n"
        "assert 'scipy.signal' in sys.modules\n")
    assert simulate.returncode == 0, simulate.stderr
    assert Path(out, "again", "dataset.csv").read_bytes() \
        == Path(out, "dataset.csv").read_bytes()


ONE_CHANNEL_CFG = TINY_CFG.replace("channels = 2", "channels = 1").replace(
    "mode = duplicate", "mode = independent")


def test_diagnose_keeps_one_channel_trace_keys(tmp_path):
    # a one-channel GSd chain has one lambda_0 column, not a common lambda
    out = tmp_path / "run"
    cfg = tmp_path / "one.cfg"
    cfg.write_text(ONE_CHANNEL_CFG.format(out=out))
    assert main(["simulate", str(cfg)]) == 0
    # at least 50 draws past the burn-in, so that the traces are reported
    assert main(["identify", str(cfg), "--variant", "GS,GSd",
                 "--iterations", "120"]) == 0
    for variant, scale in (("GS", "lambda"), ("GSd", "lambda_0")):
        rundir = out / variant / "rep000"
        written = json.loads((rundir / "diagnostics.json").read_text())
        assert scale in written["iact"]
        assert main(["diagnose", str(rundir)]) == 0
        rewritten = json.loads((rundir / "diagnostics.json").read_text())
        for name in ("iact", "ess"):
            assert rewritten[name].keys() == written[name].keys()


def test_block_variant_on_one_channel_exits_2(tmp_path, capsys):
    # a block needs two channels: GSOB on one-input data is refused before
    # any chain runs, the GS chain listed first included
    out = tmp_path / "run"
    cfg = tmp_path / "one.cfg"
    cfg.write_text(ONE_CHANNEL_CFG.format(out=out))
    assert main(["simulate", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["identify", str(cfg), "--variant", "GS,GSOB"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "GSOB" in captured.err
    assert "chain written" not in captured.out
    assert not (out / "GS").exists() and not (out / "GSOB").exists()


def test_readme_config_block_parses(tmp_path):
    # the README's annotated config, copied as it stands, reads without
    # its ; comments
    from misoid.cli import _get, _read_config, _section
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = _read_config(str(path))
    assert _get(_section(cfg, "generator"), "channels", int) == 2
    assert _get(_section(cfg, "run"), "emit_figures", bool) is True
    assert _get(_section(cfg, "sampler"), "burn_in", int) is None


def test_bundled_configs_parse():
    from importlib import resources
    for name in ("example1.cfg", "example2.cfg", "example2-desk.cfg"):
        text = (resources.files("misoid") / "configs" / name).read_text()
        assert "[sampler]" in text and "[generator]" in text
