"""The output checks pass on real ``identify`` output and fail on corrupted
copies of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import os
import shutil
import time

import numpy as np
import pytest

import checks
import run

TINY = run.Workload(m=6, n=2000, chain=3, iterations=60, fit_bound=0.5)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("tiny"))
    data, truth = run.write_inputs(TINY, 7, workdir)
    proc = run.launch(workdir, 0, "coarse", gram=True,
                      deadline=time.monotonic() + 120)
    with open(os.path.join(workdir, "log0.txt")) as fh:
        assert proc.code == 0, fh.read()
    return data, truth, proc


def verdict(outdir, truth, code=0):
    return checks.check_identify(outdir, code, truth, TINY.chain,
                                 TINY.iterations, TINY.fit_bound)


def corrupted_copy(proc, tmp_path):
    copy = str(tmp_path / "copy")
    shutil.copytree(proc.outdir, copy)
    return copy


def test_real_output_passes(produced):
    data, truth, proc = produced
    assert verdict(proc.outdir, truth) == (4, 0, [])
    assert checks.check_cross_products(proc.doc["gram"], data.inputs, data.y,
                                       run.P) == []


def _rewrite_lines(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _drop_last_trace_row(chain_dir):
    _rewrite_lines(os.path.join(chain_dir, "lambda.csv"), lambda ls: ls[:-1])


def _nan_in_samples(chain_dir):
    path = os.path.join(chain_dir, "theta_samples.npy")
    theta = np.load(path)
    theta[-1, 0] = np.nan
    np.save(path, theta)


def _rewrite_summary(chain_dir, edit):
    _rewrite_lines(os.path.join(chain_dir, "summary.csv"), edit)


def _flip_means(lines):
    out = lines[:1]
    for line in lines[1:]:
        cells = line.split(",")
        cells[3] = repr(-float(cells[3]))
        out.append(",".join(cells))
    return out


def _scale_chained_means(lines):
    """Move weight between chained channels 0 and 1 without changing
    channel 2 or beyond: caught only through the summed response."""
    out = lines[:1]
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] in ("0", "1"):
            cells[3] = repr(3.0 * float(cells[3]))
        out.append(",".join(cells))
    return out


CORRUPTIONS = {
    "truncated trace": _drop_last_trace_row,
    "non-finite sample": _nan_in_samples,
    "flipped means": lambda d: _rewrite_summary(d, _flip_means),
    "short summary": lambda d: _rewrite_summary(d, lambda ls: ls[:-1]),
    "wrong summed response": lambda d: _rewrite_summary(
        d, _scale_chained_means),
    "missing chain": shutil.rmtree,
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_fails(produced, tmp_path, name):
    _, truth, proc = produced
    copy = corrupted_copy(proc, tmp_path)
    variant = "GSOB" if name == "wrong summed response" else "GSd"
    CORRUPTIONS[name](os.path.join(copy, variant, "rep000"))
    attempted, failed, problems = verdict(copy, truth)
    assert attempted == 4 and failed == 0
    assert problems and all(variant in text for text in problems)


def test_reported_abort_counts_as_failed(produced, tmp_path):
    _, truth, proc = produced
    copy = corrupted_copy(proc, tmp_path)
    record = os.path.join(copy, "GS", "rep000", "record.json")
    with open(record) as fh:
        doc = json.load(fh)
    doc.update(aborted=True, completed=10)
    with open(record, "w") as fh:
        json.dump(doc, fh)
    assert verdict(copy, truth, code=1) == (4, 1, [])
    assert verdict(copy, truth, code=0)[2]


@pytest.mark.parametrize("key,name,index", [("gram", "0,1", (-1, -1)),
                                             ("gram", "1,0", (-1, 0)),
                                             ("xty", "5", (-1,))])
def test_cross_product_mismatch_fails(produced, key, name, index):
    """An error of 1e-6 of the block's scale in one end-of-record entry."""
    data, _, proc = produced
    dumped = json.loads(json.dumps(proc.doc["gram"]))
    block = np.asarray(dumped[key][name])
    block[index] += 1e-6 * np.max(np.abs(block))
    dumped[key][name] = block.tolist()
    assert checks.check_cross_products(dumped, data.inputs, data.y, run.P)
