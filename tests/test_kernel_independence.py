"""The analysis and synthesis problems hold the same bytes on every BLAS
kernel.

P's terms of the KYP block are sums of rounded products written entry by
entry, never a BLAS product, so the rate, H2 and rate-slack problems of
the named algorithms, and the convex synthesis problems, whose
multiplier-state block is the same KYP term on P11, hash equal in this
process and in two subprocesses that run OpenBLAS's FMA-free Nehalem
kernel and its FMA Haswell kernel (``OPENBLAS_CORETYPE`` selects the
kernel when OpenBLAS loads). Those kernels exist on x86-64 only. The BMI
half-steps hash equal too: each entry of their BLAS products with the
fixed P (the cross term, ``top^T P11 top``, the trace block's ``P22 B``)
is a sum in which at most one product is inexact, which rounds the same
with or without FMA, and a block's scale is a BLAS-free sum. The
structured design is left out: its constants are BLAS products of T and
H1, whose last bits follow the kernel. ``verify`` evaluates every block
and the row table by one scatter without BLAS, so those values at a
seeded candidate, and verify's verdict there, hash equal too. Its worst
margin is left out: it is an eigenvalue from LAPACK's eigvalsh, whose
last bits follow the BLAS kernel.
"""

import hashlib
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import iqcopt
from iqcopt.algorithms import SectorBounds, make_named
from iqcopt.lmi import (assemble_bmi_fixed_P, assemble_convex_synth, assemble_convex_synth_perf,
                        assemble_h2_for, assemble_rate_for, assemble_rate_slack)
from iqcopt.multipliers import ZamesFalbStructure

BOUNDS10 = SectorBounds(1.0, 10.0)


def _feed(h, prob):
    """Variables, block names, senses, eps, scales and stacks, rows, and at
    a seeded candidate what verify reads: every block's value, the rows'
    values, and its verdict."""
    h.update(repr([(v.name, v.kind, v.shape, v.offset, v.size) for v in prob.variables]).encode())
    for b in prob.blocks:
        h.update(repr((b.name, b.sense, b.eps, b.scale)).encode())
        for a in (b.expr.keys, b.expr.const, b.expr.dense()):
            h.update(np.ascontiguousarray(a).tobytes())
    rows = prob.linear
    for a in (rows.row, rows.var, rows.val, rows.sign, rows.rhs):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(rows.name).encode())
    x = np.random.default_rng(prob.nvars).standard_normal(prob.nvars)
    for b in prob.blocks:
        h.update(b.expr.value(x).tobytes())
    h.update(np.bincount(rows.row, x[rows.var] * rows.val, len(rows)).tobytes())
    h.update(repr(prob.verify(x)[0]).encode())


def problem_digest() -> str:
    """One hash of the rate, H2 and rate-slack problems of gd, nm, tmm and
    hb at p = 1, 2, 4, for a short and a long multiplier, and of the convex
    rate and rate + H2 synthesis problems at n = 2, 3, p = 1, 2, 4 and
    lc = 1, 2, 4, and of the BMI half-steps (plain, slack, H2 and H2 with
    slack) at n = 1, 2, p = 1, 2 and (lc, la) = (1, 0), (2, 1), for a
    seeded P built without BLAS."""
    h = hashlib.sha256()
    for kind in ("gd", "nm", "tmm", "hb"):
        for p in (1, 2, 4):
            algo = make_named(kind, BOUNDS10, p)
            rho = 0.5 * (1.0 + algo.nominal_radius(BOUNDS10.m))
            for lc, la, klass in ((2, 1, "repeated"), (6, 0, "unstructured")):
                st = ZamesFalbStructure(lc, la, p, klass, 1.0)
                _feed(h, assemble_rate_for(algo, BOUNDS10, st, rho).problem)
                _feed(h, assemble_h2_for(algo, BOUNDS10, st).problem)
                _feed(h, assemble_rate_slack(algo, BOUNDS10, st, rho).problem)
    for n in (2, 3):
        for p in (1, 2, 4):
            for lc in (1, 2, 4):
                st = ZamesFalbStructure(lc, 0, p, "unstructured", 0.9)
                _feed(h, assemble_convex_synth(n, p, BOUNDS10, st, 0.9).problem)
                _feed(h, assemble_convex_synth_perf(n, p, BOUNDS10, st, 0.9).problem)
    for n in (1, 2):
        for p in (1, 2):
            for lc, la in ((1, 0), (2, 1)):
                nc = p * (lc + la + n)
                X = np.random.default_rng(nc).uniform(-1.0, 1.0, (nc, nc))
                P = X + X.T + 2.0 * nc * np.eye(nc)     # diagonally dominant, so PD
                st = ZamesFalbStructure(lc, la, p, "repeated", 0.9)
                for slack in (False, True):
                    for P_p in (None, P):
                        _feed(h, assemble_bmi_fixed_P(n, p, BOUNDS10, st, 0.9, P, P_p=P_p,
                                                      slack=slack).problem)
    return h.hexdigest()


def _digest_under(coretype: str) -> str:
    paths = [os.path.dirname(os.path.dirname(iqcopt.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c",
         "import test_kernel_independence as t; print(t.problem_digest())"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return out.stdout.strip()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS's Nehalem and Haswell kernels are x86-64 kernels")
def test_problems_hash_equal_on_every_kernel():
    here = problem_digest()
    assert [_digest_under(k) for k in ("Nehalem", "Haswell")] == [here, here]
