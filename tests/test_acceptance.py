"""Acceptance gate for the whole toolkit.

Each test prints one `[ACCEPT] <name>: PASS|FAIL (runtime)` line on the
real stdout (bypassing capture), so a full run doubles as a checklist.
Tests with a runtime budget fail when they exceed it.
"""

import io
import random
import string
import time
from dataclasses import replace

import numpy as np

import segspectral as sg
from segspectral import CutKind, LaplacianForm

from dense import brute_force_best_contiguous, indicator_span_residual


def _finish(capsys, name, t0, ok, budget=None, detail=""):
    dt = time.monotonic() - t0
    in_budget = budget is None or dt < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    note = f" [budget {budget:.0f}s]" if budget is not None else ""
    with capsys.disabled():
        print(f"[ACCEPT] {name}: {status} ({dt:.2f}s){note}")
    assert ok, detail
    assert in_budget, f"runtime {dt:.2f}s exceeded the {budget:.0f}s budget"


def block_instances(count=200, seed=12345):
    """Random block-diagonal band matrices with known components.

    Every in-block adjacent bond is drawn from [0.2, 2.0] so each block is
    connected; one-gap bonds only appear strictly inside a block.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 31))
        c = int(rng.integers(1, min(6, n) + 1))
        cuts = (
            sorted(int(x) for x in rng.choice(np.arange(1, n), size=c - 1, replace=False))
            if c > 1
            else []
        )
        bounds = [0, *cuts, n]
        blocks = [list(range(bounds[j], bounds[j + 1])) for j in range(c)]
        boundary = set(cuts)
        off1 = np.zeros(n - 1)
        for i in range(n - 1):
            if (i + 1) not in boundary:
                off1[i] = rng.uniform(0.2, 2.0)
        off2 = np.zeros(max(n - 2, 0))
        for i in range(n - 2):
            if off1[i] > 0 and off1[i + 1] > 0 and rng.uniform() < 0.5:
                off2[i] = rng.uniform(0.1, 1.0)
        out.append((sg.ConnectionMatrix(np.ones(n), off1, off2), blocks, boundary))
    return out


def test_zero_eigenspace_matches_components(capsys):
    t0 = time.monotonic()
    ok = True
    detail = ""
    for w, blocks, _ in block_instances():
        for form in LaplacianForm:
            dec = sg.eigh_symmetric(sg.build_laplacian(w, form))
            mult = sg.zero_eig_multiplicity(dec)
            deg = w.degrees() if form is LaplacianForm.SYMMETRIC_NORMALIZED else None
            resid = indicator_span_residual(dec, blocks, form, degrees=deg)
            if mult != len(blocks) or resid > 1e-8:
                ok = False
                detail = f"n={w.n} c={len(blocks)} form={form.value} mult={mult} resid={resid:g}"
                break
        if not ok:
            break
    _finish(capsys, "zero-eigenspace-matches-components", t0, ok, budget=10, detail=detail)


def test_perturbation_recovery(capsys):
    t0 = time.monotonic()
    total = wins = 0
    for w, blocks, boundary in block_instances():
        c = len(blocks)
        mins = [w.off1[w.off1 > 0].min()] if (w.off1 > 0).any() else [1.0]
        if (w.off2 > 0).any():
            mins.append(w.off2[w.off2 > 0].min())
        coupling = 1e-4 * min(mins) * 0.5
        off1 = w.off1.copy()
        for b in boundary:
            off1[b - 1] = coupling
        wp = sg.ConnectionMatrix(w.diag, off1, w.off2)
        want = {frozenset(b) for b in blocks}
        for form in LaplacianForm:
            dec = sg.eigh_symmetric(sg.build_laplacian(wp, form))
            emb = sg.spectral_embed(dec, c, form)
            labels = sg.kmeans_cluster(emb, c)
            got = {frozenset(np.flatnonzero(labels == j).tolist()) for j in range(c)}
            total += 1
            wins += got == want
    rate = wins / total
    _finish(
        capsys,
        "perturbation-recovery",
        t0,
        rate >= 0.99,
        budget=30,
        detail=f"recovered {wins}/{total} = {rate:.4f}",
    )


def test_path_graph_eigenvalues(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for n in range(2, 65):
        w = sg.ConnectionMatrix(np.zeros(n), np.ones(n - 1), np.zeros(max(n - 2, 0)))
        dec = sg.eigh_symmetric(sg.build_laplacian(w, LaplacianForm.UNNORMALIZED))
        expect = 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        worst = max(worst, float(np.abs(dec.values - expect).max()))
    _finish(
        capsys,
        "path-graph-eigenvalues",
        t0,
        worst <= 1e-9,
        detail=f"worst |err| = {worst:.3e}",
    )


def _label_runs(labels):
    parts, start = [], 0
    n = len(labels)
    for i in range(1, n):
        if labels[i] != labels[i - 1]:
            parts.append(list(range(start, i)))
            start = i
    parts.append(list(range(start, n)))
    return parts


def test_brute_force_consistency(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    ok = True
    detail = ""
    pairs = ((CutKind.RATIO, LaplacianForm.UNNORMALIZED),
             (CutKind.NORMALIZED, LaplacianForm.SYMMETRIC_NORMALIZED))
    for _ in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        off1 = rng.uniform(0.05, 2.0, n - 1)
        off2 = np.where(rng.uniform(size=n - 2) < 0.5, rng.uniform(0.05, 1.0, n - 2), 0.0)
        w = sg.ConnectionMatrix(np.ones(n), off1, off2)
        for kind, form in pairs:
            dec = sg.eigh_symmetric(sg.build_laplacian(w, form))
            emb = sg.spectral_embed(dec, k, form)
            parts = _label_runs(sg.kmeans_cluster(emb, k))
            pipeline_value = sg.cut_objective(w, parts, kind)
            _, oracle_value = brute_force_best_contiguous(w, len(parts), kind)
            if oracle_value > pipeline_value:
                ok = False
                detail = f"{kind.value}: oracle {oracle_value:g} > pipeline {pipeline_value:g}"
    _finish(capsys, "brute-force-consistency", t0, ok, detail=detail)


def test_synthetic_closed_loop(capsys):
    t0 = time.monotonic()
    lines, gold = sg.generate_synthetic(sg.SynthSpec())  # vocab 20, len 2-4, 500, seed 0
    model = sg.ingest_corpus(lines, source="synthetic")
    cfg = sg.SegmenterConfig.for_recipe(sg.EhrParams())
    preps = [sg.prepare_sentence(line, model, cfg) for line in lines]
    grid = (0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0)
    best = 0.0
    for cut in grid:
        cut_cfg = replace(cfg, eig_cut=cut)
        segs = [sg.segment_prepared(p, cut_cfg).words for p in preps]
        best = max(best, sg.score_corpus(gold, segs).f1)
    _finish(
        capsys,
        "synthetic-closed-loop",
        t0,
        best >= 0.95,
        budget=60,
        detail=f"best F over {len(grid)}-point grid = {best:.4f}",
    )


def test_reconstruction_invariant(capsys, synth_model):
    t0 = time.monotonic()
    pools = [
        string.ascii_letters + string.digits + string.punctuation + " \t",
        "".join(chr(c) for c in range(0x4E00, 0x4E60)),
        "０１２３４５６７８９年月日时分秒％%",
        "αβγдеのはをァェ한글🙂🚀★",
    ]
    rnd = random.Random(7)
    cfg = sg.SegmenterConfig.for_recipe(sg.EhrParams())
    bad = 0
    for _ in range(10_000):
        length = rnd.randint(1, 24)
        pool = pools[rnd.randrange(len(pools))] if rnd.random() < 0.8 else "".join(pools)
        line = "".join(rnd.choice(pool) for _ in range(length))
        if "".join(sg.segment_sentence(line, synth_model, cfg)) != line:
            bad += 1
    _finish(
        capsys,
        "reconstruction-invariant",
        t0,
        bad == 0,
        detail=f"{bad} of 10000 lines failed to concatenate back",
    )


def test_choose_k_monotonicity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 61))
        values = rng.uniform(-1e-9, 3.0, n)
        grid = np.sort(rng.uniform(1e-6, 3.5, int(rng.integers(2, 9))))
        ks = [sg.choose_k(values, cut) for cut in grid]
        if ks != sorted(ks):
            ok = False
            break
    _finish(capsys, "choose-k-monotonicity", t0, ok)


def test_cut_scale_invariance(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    ok = True
    detail = ""
    for _ in range(50):
        n = int(rng.integers(4, 15))
        w = sg.ConnectionMatrix(
            np.ones(n),
            rng.uniform(0.05, 2.0, n - 1),
            np.where(rng.uniform(size=n - 2) < 0.5, rng.uniform(0.05, 1.0, n - 2), 0.0),
        )
        k = int(rng.integers(2, 5))
        cuts = sorted(int(x) for x in rng.choice(np.arange(1, n), size=k - 1, replace=False))
        bounds = [0, *cuts, n]
        parts = [list(range(bounds[j], bounds[j + 1])) for j in range(k)]
        ratio = sg.cut_objective(w, parts, CutKind.RATIO)
        ncut = sg.cut_objective(w, parts, CutKind.NORMALIZED)
        for c in (0.5, 2.0, 10.0):
            scaled = sg.ConnectionMatrix(w.diag * c, w.off1 * c, w.off2 * c)
            d_ncut = abs(sg.cut_objective(scaled, parts, CutKind.NORMALIZED) - ncut)
            d_ratio = abs(sg.cut_objective(scaled, parts, CutKind.RATIO) - c * ratio)
            if d_ncut > 1e-12 * max(1.0, ncut) or d_ratio > 1e-12 * max(1.0, c * ratio):
                ok = False
                detail = f"c={c}: ncut drift {d_ncut:g}, ratio drift {d_ratio:g}"
    _finish(capsys, "cut-scale-invariance", t0, ok, detail=detail)


def _random_model(rnd: random.Random) -> sg.NGramModel:
    chars = "天安门广场和的了不中国人民大会堂"

    def key(length):
        return "".join(rnd.choice(chars) for _ in range(length))

    def counts(length, how_many):
        return {key(length): rnd.randint(1, 2**50) for _ in range(how_many)}

    return sg.NGramModel.from_counts(
        uni=counts(1, rnd.randint(0, 10)),
        bi=counts(2, rnd.randint(0, 10)),
        tri=counts(3, rnd.randint(0, 10)),
        source=key(rnd.randint(0, 5)) + "🙂.txt",
        line_count=rnd.randint(0, 2**40),
    )


def test_model_round_trip(capsys):
    t0 = time.monotonic()
    rnd = random.Random(99)
    ok = True
    detail = ""
    for i in range(100):
        model = sg.NGramModel() if i == 0 else _random_model(rnd)
        buf = io.BytesIO()
        sg.save_model(model, buf)
        buf.seek(0)
        back = sg.load_model(buf)
        # the file holds no sds: the loaded model works out the saved one's
        sds = [(m.log_sd_bi.hex(), m.log_sd_tri.hex()) for m in (back, model)]
        if back != model or sds[0] != sds[1]:
            ok = False
            detail = f"model {i} did not survive the round trip"
            break
    _finish(capsys, "model-round-trip", t0, ok, detail=detail)
