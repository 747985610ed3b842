"""Exact-rational runs for small networks, the reference for the float models.

Every float of a network converts to a Fraction exactly, so the clearing
payments returned here are the exact greatest clearing vector of the network
as stored, the cascade rows the exact DC and aDR rounds, and the cDR limit the
exact limit of the cyclic DebtRank: no rounding, no cancellation. Costs grow
fast with n; meant for n <= 6 or so.
"""
from fractions import Fraction


def solve(a, b, m_matrix=False):
    """x with a x = b, by Gaussian elimination; ValueError if a is singular.

    With m_matrix, a is a Z-matrix (no positive entry off the diagonal) and no
    rows are exchanged: None is returned unless every pivot is positive, that
    is unless every leading principal minor is, which makes a a nonsingular
    M-matrix.
    """
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        if m_matrix and not m[k][k] > 0:
            return None
        pivot = k if m_matrix else next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[k], m[pivot] = m[pivot], m[k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                for c in range(k, n + 1):
                    m[r][c] -= f * m[k][c]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - sum(m[k][c] * x[c] for c in range(k + 1, n))) / m[k][k]
    return x


def clearing_payments(network, shock, beta=1.0, shortfall_tol=0.0) -> list:
    """Exact p(inf) of the fictitious default algorithm (Eisenberg & Noe 2001).

    A bank defaults when its resources Pi^T p + A^e (1 - s) fall short of its
    obligations p_bar by more than shortfall_tol x max(1, p_bar); the default
    0 makes any shortfall a default. Defaulters pay beta (A^e (1 - s) + Pi^T p),
    the others p_bar. beta = 1 is EN, beta < 1 the RV discount. Raises
    ValueError if a defaulters' system I - beta Pi^T_DD is singular.
    """
    n = network.n
    L = [[Fraction(x) for x in row] for row in network.liabilities.tolist()]
    p_bar = [sum(row, Fraction(0)) + Fraction(le)
             for row, le in zip(L, network.external_liabilities.tolist())]
    # pi_T[i][j] = Pi_ji: bank i's share of bank j's payments
    pi_T = [[L[j][i] / p_bar[j] if p_bar[j] else Fraction(0) for j in range(n)]
            for i in range(n)]
    ae = [Fraction(a) * (1 - Fraction(s)) for a, s in
          zip(network.external_assets.tolist(), shock.effective_per_bank(network).tolist())]
    beta = Fraction(beta)
    threshold = [pb - Fraction(shortfall_tol) * max(Fraction(1), pb) for pb in p_bar]
    p, D = list(p_bar), set()
    while True:
        short = {i for i in range(n)
                 if sum(pi_T[i][j] * p[j] for j in range(n)) + ae[i] < threshold[i]}
        if short <= D:
            return p
        D |= short
        d = sorted(D)
        nd = [j for j in range(n) if j not in D]
        a = [[(i == k) - beta * pi_T[i][k] for k in d] for i in d]
        b = [beta * (ae[i] + sum(pi_T[i][j] * p_bar[j] for j in nd)) for i in d]
        p = list(p_bar)
        for i, x in zip(d, solve(a, b)):
            p[i] = x


def cascade(network, shock, R, model, margin=0.0):
    """Exact rows h(0), h(1), ... of the threshold cascade ("DC") or the
    acyclic DebtRank ("ADR") under a per-bank shock, up to the first round
    in which no bank becomes active.

    h(1) = min{1, A^e s / E}; h(t+1) = min{1, h(t) + (1 - R) l^b d(t)}, with
    l^b_ij = L_ji / E_i and d_j(t) = h_j(t) in the one round where bank j
    becomes active (h_j >= 1 for DC, h_j > 0 for aDR), 0 otherwise. Returns
    None for DC when the h of a bank not yet at 1, before the cap at 1, lies
    within margin of 1: there float rounding can decide whether it defaults.
    """
    n, keep, margin = network.n, 1 - Fraction(R), Fraction(margin)
    E = [Fraction(e) for e in network.equity.tolist()]
    L = [[Fraction(x) for x in row] for row in network.liabilities.tolist()]
    raw = [Fraction(a) * Fraction(s) / e for a, s, e in
           zip(network.external_assets.tolist(), shock.effective_per_bank(network).tolist(), E)]
    rows, propagated = [[Fraction(0)] * n], set()
    while True:
        if model == "DC" and any(abs(u - 1) <= margin
                                 for u, before in zip(raw, rows[-1]) if before < 1):
            return None
        h = [min(Fraction(1), u) for u in raw]
        rows.append(h)
        active = {j for j in range(n) if j not in propagated
                  and (h[j] >= 1 if model == "DC" else h[j] > 0)}
        if not active:
            return rows
        propagated |= active
        raw = [h[i] + keep * sum(L[j][i] / E[i] * h[j] for j in active) for i in range(n)]


def cdr_limit(network, shock, R):
    """Exact limit of the cyclic DebtRank ("CDR") under a per-bank shock: the
    least fixed point above h(1) of F(h) = min{1, h(1) + (1 - R) l^b h}, with
    h(1) = min{1, A^e s / E} and l^b_ij = L_ji / E_i. cDR's rounds are the
    iterates F(0) = h(1), F(h(1)), ..., which rise to it.

    The saturated set S grows only from below: it holds the banks at which an
    iterate z has reached 1, and z never passes the limit, so the limit is 1
    on S. Where it is below 1, on the other banks U, it solves
    (I - (1 - R) l^b_UU) h_U = h(1)_U + (1 - R) l^b_US 1. When that matrix is
    a nonsingular M-matrix (spectral radius of (1 - R) l^b_UU below 1), F has
    one fixed point that is 1 on S, so a solution at or below 1 is the limit.
    Otherwise z takes another step. ValueError after 1,000 steps.
    """
    n, keep = network.n, 1 - Fraction(R)
    E = [Fraction(e) for e in network.equity.tolist()]
    L = [[Fraction(x) for x in row] for row in network.liabilities.tolist()]
    m = [[keep * L[j][i] / E[i] for j in range(n)] for i in range(n)]
    h1 = [min(Fraction(1), Fraction(a) * Fraction(s) / e) for a, s, e in
          zip(network.external_assets.tolist(), shock.effective_per_bank(network).tolist(), E)]
    z = h1
    for _ in range(1000):
        u = [i for i in range(n) if z[i] < 1]
        a = [[(i == k) - m[i][k] for k in u] for i in u]
        b = [h1[i] + sum(m[i][j] for j in range(n) if z[j] >= 1) for i in u]
        x = solve(a, b, m_matrix=True)
        if x is not None and all(v <= 1 for v in x):
            limit = [Fraction(1)] * n
            for i, v in zip(u, x):
                limit[i] = v
            return limit
        z = [min(Fraction(1), h1[i] + sum(m[i][j] * z[j] for j in range(n))) for i in range(n)]
    raise ValueError("no saturated set found in 1,000 steps")
