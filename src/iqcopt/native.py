"""Native SDP backend: a primal-dual interior-point method on numpy/scipy.

Every inequality of an SdpProblem becomes one block of

    G(x) = G0 + sum_i x_i G_i  >= 0,

one matrix block per ``add_lmi``, the symmetric part of its stack
(sign-flipped for 'neg', shifted by its eps margin), and a 1x1 block per
inequality row. Equality rows are eliminated through a null space,
x = x0 + N z, and the remaining coordinates are whitened so that
z -> G(z) - G0 is an isometry. The whitening only conditions the
arithmetic: the Newton directions below are invariant under a linear
change of variables.

* Feasibility problems solve the phase-I problem min t s.t. G(x) + tI >= 0
  from a strictly feasible start and stop as soon as t < 0 and
  ``SdpProblem.verify`` accepts x (the ``feasp`` idea of the LMI Control
  Toolbox).
* Objective problems run phase I to a strictly feasible point and then
  minimize c^T x from there.

Both phases use one path-following method: HKM search directions with
Mehrotra's predictor-corrector and separate primal and dual step lengths
(Helmberg, Rendl, Vanderbei & Wolkowicz 1996; Vandenberghe & Boyd 1996;
Toh, Todd & Tutuncu, SDPT3). Infeasibility is reported only with a Farkas
certificate that is rechecked on the problem's own coefficients: Z >= 0
with <G(x0), Z> < 0, whose residual A*(Z) proves that no x satisfying the
equalities with ||G(x) - G(x0)||_F < FEAS_RADIUS (1 + ||G(x0)||_F)
satisfies G(x) >= 0.

``solve_native`` forms the final answer, an ``sdp.SdpSolution`` with
the phase that stopped (0 when none ran), its stop word and the
iterations; the ``sdp`` module docstring maps its four outcomes. A
candidate x (the point of a constant problem, phase I's feasible point
or phase II's last iterate) is certified only once ``SdpProblem.verify``
accepts it.
"""

import numpy as np
import scipy.linalg as sla

from .sdp import MAX_ITERS, SdpSolution, SolverOptions

# a Farkas certificate must exclude every x with ||G(x) - G(x0)||_F below
# this many times the problem's scale 1 + ||G(x0)||_F, x0 the minimum-norm
# point of the equality rows (cf. the feasibility radius of feasp)
FEAS_RADIUS = 1e6
# after Jacobi scaling, directions whose singular value is below this
# fraction of the largest barely move any constraint and are dropped
RANK_TOL = 1e-12


class _Lmi:
    """G0 + sum_i x_i G_i >= 0 over dense matrix blocks and a diagonal block."""

    def __init__(self, F0, F, g0, A):
        self.F0 = F0        # list of (d, d)
        self.F = F          # list of (m, d, d), symmetric slices
        self.g0 = g0        # (q,)
        self.A = A          # (q, m)
        self.m = A.shape[1]
        self.dims = [f.shape[0] for f in F0]
        self.size = sum(self.dims) + g0.size

    def value(self, x):
        return ([f0 + np.tensordot(x, f, 1) for f0, f in zip(self.F0, self.F)],
                self.g0 + self.A @ x)

    def apply(self, x):
        return [np.tensordot(x, f, 1) for f in self.F], self.A @ x

    def adjoint(self, Zs, z):
        out = self.A.T @ z
        for f, Z in zip(self.F, Zs):
            out += f.reshape(self.m, -1) @ Z.ravel()
        return out

    def pairing0(self, Zs, z) -> float:
        """<G0, Z>."""
        return float(sum(np.vdot(f0, Z) for f0, Z in zip(self.F0, Zs)) + self.g0 @ z)

    def with_t(self, t_min: float) -> "_Lmi":
        """Append the phase-I variable t, with coefficient I on every block,
        and the row t - t_min >= 0 (last) that keeps phase I bounded."""
        F = [np.concatenate([f, np.eye(d)[None]], axis=0) for f, d in zip(self.F, self.dims)]
        A = np.vstack([np.hstack([self.A, np.ones((self.A.shape[0], 1))]),
                       np.eye(1, self.m + 1, self.m)])
        return _Lmi(self.F0, F, np.append(self.g0, -t_min), A)


# ---------------------------------------------------------------------------
# translation from SdpProblem
# ---------------------------------------------------------------------------

def _sym(M):
    return 0.5 * (M + M.T)


class _Reduced:
    """The problem in whitened coordinates w, x = x0 + T w."""

    def __init__(self, problem):
        n = problem.nvars
        self.n = n
        blocks = []          # (keys, F0, Fsub)
        for blk in problem.blocks:
            sgn = -1.0 if blk.sense == "neg" else 1.0
            d = blk.expr.shape[0]
            keys, Fsub = blk.expr.keys, sgn * _sym_stack(blk.expr.dense())
            F0 = sgn * _sym(blk.expr.const) - blk.eps * np.eye(d)
            blocks.append((keys, F0, Fsub))
        rows = problem.linear
        R = np.zeros((len(rows), n))
        R[rows.row, rows.var] = rows.val
        sign, rhs = rows.sign, rows.rhs
        eq = sign == 0.0
        sign = sign[~eq]          # rhs - a x >= 0 for '<=', a x - rhs >= 0 for '>='
        self.blocks, self.A_x, self.g0_x = blocks, -sign[:, None] * R[~eq], sign * rhs[~eq]
        self.c_x = np.zeros(n)
        if problem.objective is not None:
            self.c_x[problem.objective.keys] = problem.objective.dense()[:, 0, 0]
        self.message = ""
        self.inconsistent = False
        self._eliminate(R[eq], rhs[eq])

    def _eliminate(self, E, b):
        n = self.n
        if b.size:
            U, sv, Vt = np.linalg.svd(E)
            rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0))) if sv.size else 0
            self.x0 = Vt[:rank].T @ ((U[:, :rank].T @ b) / sv[:rank])
            N = Vt[rank:].T
            resid = E @ self.x0 - b
            if np.linalg.norm(resid) > 1e-9 * (1.0 + np.linalg.norm(b)):
                # b - E x0 is orthogonal to range(E): a Farkas certificate
                self.inconsistent = True
                self.message = f"equality residual {np.linalg.norm(resid):.2e}"
        else:
            self.x0 = np.zeros(n)
            N = None
        # stacked coefficient matrix of z -> G(z) - G0: d*d rows per block,
        # then the inequality rows
        M = np.zeros((sum(F0.size for _, F0, _ in self.blocks) + len(self.g0_x), n))
        row = 0
        for keys, F0, Fsub in self.blocks:
            M[row:row + F0.size, keys] = Fsub.reshape(len(keys), F0.size).T
            row += F0.size
        M[row:] = self.A_x
        if N is not None:
            M = M @ N
        # Jacobi scaling, then an SVD: the whitened coefficients are the left
        # singular vectors, and only exact dependencies fall below RANK_TOL
        dg = np.linalg.norm(M, axis=0)
        dg[dg == 0] = 1.0
        U, sv, Vt = np.linalg.svd(M / dg, full_matrices=False)
        keep = sv > RANK_TOL * (sv[0] if sv.size else 1.0)
        self.dg, self.sv, self.Vk, self.Vd = dg, sv[keep], Vt[keep], Vt[~keep]
        self.Ud = U[:, ~keep]
        if Vt.shape[0] < Vt.shape[1]:   # more variables than coefficient rows
            self.Vd = np.vstack([self.Vd, sla.null_space(Vt).T])
        W = self.Vk.T / self.sv / dg[:, None]
        T = W if N is None else N @ W
        c_z = (self.c_x if N is None else N.T @ self.c_x) / dg
        self.unbounded = bool(np.linalg.norm(self.Vd @ c_z) > 1e-9 * (1.0 + np.linalg.norm(c_z)))
        self.N, self.T = N, T
        Uk = U[:, keep]
        F0s, Fs = [], []
        row = 0
        for keys, F0, Fsub in self.blocks:
            d = F0.shape[0]
            Fs.append(_sym_stack(Uk[row:row + F0.size].T.reshape(-1, d, d)))
            F0s.append(F0 + np.tensordot(self.x0[keys], Fsub, 1) if keys.size else F0)
            row += F0.size
        self.lmi = _Lmi(F0s, Fs, self.g0_x + self.A_x @ self.x0, Uk[row:].copy())
        # ||G(x0)||_F^2: farkas_radius's unit is 1 + ||G(x0)||_F
        g0 = self.lmi.g0
        self.scale = float(g0 @ g0)
        for F0 in F0s:
            self.scale += float(np.vdot(F0, F0))
        self.c = T.T @ self.c_x

    def x_of(self, w):
        return self.x0 + self.T @ w

    def farkas_radius(self, Zs, z) -> float:
        """Radius within which Z >= 0 proves G(x) >= 0 infeasible.

        Computed from the problem's own coefficients. On the equality
        manifold G(x) - G(x0) = U S V^T u, the SVD above in scaled
        coordinates u, so <G(x), Z> = <G(x0), Z> + (S V^T u) . U^T vec(Z)
        and, by Cauchy-Schwarz, no x with ||G(x) - G(x0)||_F below
        -<G(x0), Z> / ||U^T vec(Z)|| satisfies G(x) >= 0. The kept part of
        U^T vec(Z) is taken from r = A*(Z) as S^-1 V^T r; a dropped
        direction moves G too little for that division, and its part is
        U_d^T vec(Z) itself. The radius is returned in units of the
        problem's scale 1 + ||G(x0)||_F.
        """
        Zs = [_psd_part(Z) for Z in Zs]
        z = np.maximum(z, 0.0)
        r = self.A_x.T @ z
        g = float(self.lmi.g0 @ z)
        for (keys, F0, Fsub), G0, Z in zip(self.blocks, self.lmi.F0, Zs):
            if keys.size:
                r[keys] += Fsub.reshape(len(keys), F0.size) @ Z.ravel()
            g += float(np.vdot(G0, Z))
        if g >= 0:
            return 0.0
        ru = (r if self.N is None else self.N.T @ r) / self.dg
        rn = np.linalg.norm(self.Vk @ ru / self.sv)
        if self.Ud.shape[1]:
            vecZ = np.concatenate([Z.ravel() for Z in Zs] + [z])
            rn = np.hypot(rn, np.linalg.norm(self.Ud.T @ vecZ))
        rn = float(rn)
        return np.inf if rn == 0.0 else -g / rn / (1.0 + np.sqrt(self.scale))


def _sym_stack(F):
    return 0.5 * (F + F.transpose(0, 2, 1))


def _psd_part(Z):
    lam, V = np.linalg.eigh(_sym(Z))
    return (V * np.maximum(lam, 0.0)) @ V.T


# ---------------------------------------------------------------------------
# the path-following method
# ---------------------------------------------------------------------------

def _max_step(Linv, dM) -> float:
    """Largest a with M + a dM >= 0, given Linv = chol(M)^{-1}."""
    lam = np.linalg.eigvalsh(_sym(Linv @ dM @ Linv.T))[0]
    return np.inf if lam >= 0 else -1.0 / lam


def _max_step_lp(s, ds) -> float:
    neg = ds < 0
    return float(np.min(-s[neg] / ds[neg])) if np.any(neg) else np.inf


class _State:
    def __init__(self, x, S, s, Z, z):
        self.x, self.S, self.s, self.Z, self.z = x, S, s, Z, z


def _pdip(lmi: _Lmi, c, state: _State, monitor, max_iters: int):
    """Minimize c^T x s.t. G(x) >= 0 from a state with S, Z > 0.

    ``monitor(state, info)`` is called at every iterate and may return a
    final status string to stop; ``max_iters`` is clipped to MAX_ITERS.
    Returns (status, state, iterations).
    """
    max_iters = min(max_iters, MAX_ITERS)
    n_tot = lmi.size
    for it in range(max_iters):
        Gx, gx = lmi.value(state.x)
        rp = [G - S for G, S in zip(Gx, state.S)]
        rp_lp = gx - state.s
        rd = c - lmi.adjoint(state.Z, state.z)
        gap = sum(float(np.vdot(S, Z)) for S, Z in zip(state.S, state.Z)) + float(state.s @ state.z)
        mu = gap / n_tot
        pobj = float(c @ state.x)
        dobj = -lmi.pairing0(state.Z, state.z)
        info = {
            "it": it, "gap": gap, "pobj": pobj, "dobj": dobj,
            "pinf": max([np.linalg.norm(r) for r in rp] + [np.linalg.norm(rp_lp)]),
            "dinf": float(np.linalg.norm(rd)),
        }
        verdict = monitor(state, info)
        if verdict:
            return verdict, state, it
        try:
            Sinv, SLi, ZLi, Ys = [], [], [], []
            for S, Z, F in zip(state.S, state.Z, lmi.F):
                Li = sla.solve_triangular(np.linalg.cholesky(S), np.eye(S.shape[0]), lower=True)
                Lz = np.linalg.cholesky(Z)
                SLi.append(Li)
                ZLi.append(sla.solve_triangular(Lz, np.eye(Z.shape[0]), lower=True))
                Sinv.append(Li.T @ Li)
                Ys.append((Li @ F @ Lz).reshape(lmi.m, -1))
        except np.linalg.LinAlgError:
            return "stalled", state, it
        if np.any(state.s <= 0) or np.any(state.z <= 0):
            return "stalled", state, it
        d_lp = state.z / state.s
        H = (lmi.A.T * d_lp) @ lmi.A
        for Y in Ys:
            H += Y @ Y.T
        try:
            Hf = sla.cho_factor(H, lower=True, check_finite=False)
            solveH = lambda v: sla.cho_solve(Hf, v, check_finite=False)
        except (np.linalg.LinAlgError, sla.LinAlgError):
            Hp = np.linalg.pinv(H, rcond=1e-14, hermitian=True)
            solveH = lambda v: Hp @ v

        ZrpS = [Z @ r @ Si for Z, r, Si in zip(state.Z, rp, Sinv)]

        def direction(sigma, E, e):
            Rc = [sigma * mu * Si - Z - zr for Si, Z, zr in zip(Sinv, state.Z, ZrpS)]
            if E is not None:
                Rc = [R + Ei for R, Ei in zip(Rc, E)]
            rc = sigma * mu / state.s - state.z - state.z * rp_lp / state.s
            if e is not None:
                rc = rc + e
            dx = solveH(lmi.adjoint(Rc, rc) - rd)
            AdS, Adx_lp = lmi.apply(dx)
            dS = [a + r for a, r in zip(AdS, rp)]
            dZ = [_sym(R - Z @ a @ Si) for R, Z, a, Si in zip(Rc, state.Z, AdS, Sinv)]
            ds = Adx_lp + rp_lp
            dz = rc - d_lp * Adx_lp
            return dx, dS, dZ, ds, dz

        def steps(dS, dZ, ds, dz):
            ap = min([_max_step(L, d) for L, d in zip(SLi, dS)] + [_max_step_lp(state.s, ds)])
            ad = min([_max_step(L, d) for L, d in zip(ZLi, dZ)] + [_max_step_lp(state.z, dz)])
            return ap, ad

        dx, dS, dZ, ds, dz = direction(0.0, None, None)
        ap, ad = steps(dS, dZ, ds, dz)
        ap, ad = min(1.0, ap), min(1.0, ad)
        gap_aff = (sum(float(np.vdot(S + ap * a, Z + ad * b))
                       for S, a, Z, b in zip(state.S, dS, state.Z, dZ))
                   + float((state.s + ap * ds) @ (state.z + ad * dz)))
        sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3
        E = [-(b @ a @ Si) for a, b, Si in zip(dS, dZ, Sinv)]
        e = -dz * ds / state.s
        dx, dS, dZ, ds, dz = direction(sigma, E, e)
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dz))):
            return "stalled", state, it
        ap, ad = steps(dS, dZ, ds, dz)
        gamma = 0.9 + 0.09 * min(ap, ad, 1.0)
        ap, ad = min(1.0, gamma * ap), min(1.0, gamma * ad)
        if max(ap, ad) < 1e-10:
            return "stalled", state, it
        state = _State(state.x + ap * dx,
                       [S + ap * d for S, d in zip(state.S, dS)], state.s + ap * ds,
                       [Z + ad * d for Z, d in zip(state.Z, dZ)], state.z + ad * dz)
    return "max_iters", state, max_iters


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def _central_dual(S, s, scale: float):
    """The dual point scale * S^{-1} on the central path through S."""
    return [_sym(scale * np.linalg.inv(M)) for M in S], scale / s


def _phase1(red: _Reduced, problem, options: SolverOptions):
    """Phase I: min t s.t. G(w) + tI >= 0.

    Stops when t < 0 and ``problem.verify`` accepts the point, or with a
    checked Farkas certificate. Returns (verdict, state, iterations,
    found): found holds the Farkas radius, or the accepted point and its
    verify result (ok, worst).
    """
    # the bound on t keeps the phase-I dual feasible (Z = 0 with the bound
    # row's multiplier 1), so both sides of the method stay well posed
    lmi = red.lmi.with_t(-1.0)
    m = red.lmi.m
    w = np.zeros(m)
    G0, g0 = red.lmi.F0, red.lmi.g0
    lo = min([np.linalg.eigvalsh(F)[0] for F in G0 if F.size] + list(g0) + [0.0])
    t0 = 1.0 - lo
    x = np.append(w, t0)
    S, s = lmi.value(x)
    Z, z = _central_dual(S, s, 1.0)
    tr = sum(np.trace(Zj) for Zj in Z) + z.sum()
    Z, z = [Zj / tr for Zj in Z], z / tr
    c = np.zeros(m + 1)
    c[-1] = 1.0
    found = {}

    def accepts(st):
        if st.x[-1] < 0:
            x = red.x_of(st.x[:-1])
            found.update(x=x, check=problem.verify(x))
            return found["check"][0]
        return False

    def monitor(st, info):
        if accepts(st):
            return "feasible"
        if info["dobj"] > 0:
            # lower bound on t: the dual iterate may prove infeasibility
            radius = red.farkas_radius(st.Z, st.z[:-1])
            if radius >= FEAS_RADIUS:
                found["radius"] = radius
                return "infeasible"
        if (info["gap"] <= 1e-4 * (options.tol_abs + options.tol_rel * abs(info["pobj"]))
                and info["dinf"] <= options.tol_abs):
            # converged without deciding: t* is zero to working accuracy
            return "undecided"
        if np.linalg.norm(st.x) > 1e12:
            return "undecided"
        return None

    verdict, st, its = _pdip(lmi, c, _State(x, S, s, Z, z), monitor, options.max_iters)
    if verdict in ("stalled", "max_iters", "undecided") and accepts(st):
        verdict = "feasible"
    return verdict, st, its, found


def _phase2(red: _Reduced, w, options: SolverOptions):
    lmi = red.lmi
    tol_abs, tol_rel = options.tol_abs, options.tol_rel
    c = red.c
    S, s = lmi.value(w)
    a = lmi.adjoint([np.linalg.inv(M) for M in S], 1.0 / s)
    scale = max(np.linalg.norm(c) / max(np.linalg.norm(a), 1e-300),
                (1.0 + abs(c @ w)) / lmi.size)
    Z, z = _central_dual(S, s, scale)

    prev = [np.inf]

    def monitor(st, info):
        tol_obj = tol_abs + tol_rel * (abs(info["pobj"]) + abs(info["dobj"]))
        small_gap = (info["gap"] <= tol_obj
                     and info["pinf"] <= tol_abs + tol_rel * abs(info["pobj"]))
        # the dual residual grows again once Z turns ill-conditioned; a
        # primal objective that no longer moves is converged as well
        settled = abs(info["pobj"] - prev[0]) <= tol_obj
        prev[0] = info["pobj"]
        if small_gap and (settled or info["dinf"] <= tol_abs + tol_rel * np.linalg.norm(c)):
            return "optimal"
        if np.linalg.norm(st.x) > 1e12 * (1.0 + np.linalg.norm(w)):
            return "diverged"
        return None

    return _pdip(lmi, c, _State(w.copy(), S, s, Z, z), monitor, options.max_iters)


def _answer(problem, x, check=None, **fields) -> SdpSolution:
    """The answer at a candidate x: certified when ``problem.verify``
    accepts x, else undecided, with verify's worst margin, the variables'
    values and the objective at x either way. check is verify's result at
    x when it is already known."""
    ok, worst = problem.verify(x) if check is None else check
    return SdpSolution(
        "certified" if ok else "undecided", x=x, worst=worst,
        values={v.name: problem.extract(v.name, x) for v in problem.variables},
        objective=None if problem.objective is None else float(problem.objective.value(x)[0, 0]),
        **fields)


def solve_native(problem, options: SolverOptions) -> SdpSolution:
    """Solve an SdpProblem and answer as the ``sdp`` module docstring maps.

    The tolerances bound the duality gap and the residuals as
    tol_abs + tol_rel * |objective|. ``options.max_iters`` caps the
    iterations of each phase; it is clipped to MAX_ITERS.
    """
    red = _Reduced(problem)
    if red.inconsistent:
        return SdpSolution("infeasible", stop="inconsistent", detail=red.message)
    if red.unbounded:
        return SdpSolution("diverged", stop="unbounded", detail="objective decreases along "
                           "a direction no constraint restricts")
    if red.lmi.m == 0:
        sol = _answer(problem, red.x_of(np.zeros(0)), stop="constant")
        # a violated constant constraint: its eigenvector is a certificate
        return sol if sol.certified else SdpSolution("infeasible", stop="constant",
                                                     detail="constraints violated")
    verdict, st, its, found = _phase1(red, problem, options)
    if verdict == "infeasible":
        return SdpSolution("infeasible", phase=1, stop=verdict, iterations=its,
                           detail=f"Farkas certificate, radius {found['radius']:.3g}")
    if verdict != "feasible":
        return SdpSolution("undecided", phase=1, stop=verdict, iterations=its,
                           detail=f"t={st.x[-1]:.3e}")
    w = st.x[:-1]
    if problem.objective is None:
        return _answer(problem, found["x"], found["check"], phase=1, stop=verdict,
                       iterations=its)
    verdict2, st2, its2 = _phase2(red, w, options)
    its += its2
    if verdict2 == "diverged":
        return SdpSolution("diverged", phase=2, stop=verdict2, iterations=its)
    return _answer(problem, red.x_of(st2.x), phase=2, stop=verdict2, iterations=its)
