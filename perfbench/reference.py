"""Output checks that do not trust the program under test.

Nothing here imports `qcisyz`. Inputs are read from their texts by a small
parser of our own; Hilbert functions come from our own rank counts; the
paper's identities are recomputed from the JSON record. `check_record`
returns a list of problems, empty when the record is right.
"""

from __future__ import annotations

import ast
from fractions import Fraction

import numpy as np

# Two 31-bit primes: products of two residues stay below 2**62, so numpy
# int64 elimination cannot overflow. A rank mod P never exceeds the rank
# over Q, and falls below it only when P divides every maximal minor; the
# larger of the two ranks is taken.
RATIONAL_CHECK_PRIMES = (2147483647, 2147483629)

STATEMENTS = tuple(f"T{i}" for i in range(1, 17))
CLEAN_SEVERITIES = ("pass", "inapplicable")


# --- polynomials as {(i, j, k): coefficient} over Q ------------------------


def _poly_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


_VARIABLES = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


def _eval(node):
    if isinstance(node, ast.Expression):
        return _eval(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return {(0, 0, 0): Fraction(node.value)} if node.value else {}
    if isinstance(node, ast.Name) and node.id in _VARIABLES:
        return {_VARIABLES[node.id]: Fraction(1)}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _eval(node.operand)
        return {m: -c for m, c in inner.items()} if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        left = _eval(node.left)
        if isinstance(node.op, ast.Pow):
            if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)):
                raise ValueError("exponent must be a literal integer")
            out = {(0, 0, 0): Fraction(1)}
            for _ in range(node.right.value):
                out = _poly_mul(out, left)
            return out
        right = _eval(node.right)
        if isinstance(node.op, ast.Add):
            return _poly_add(left, right)
        if isinstance(node.op, ast.Sub):
            return _poly_add(left, right, -1)
        if isinstance(node.op, ast.Mult):
            return _poly_mul(left, right)
    raise ValueError(f"unsupported syntax in polynomial: {ast.dump(node)}")


def parse(text: str) -> dict:
    """A polynomial in x, y, z with integer coefficients, `^` for powers."""
    return _eval(ast.parse(text.replace("^", "**"), mode="eval"))


def partials(f: dict):
    out = []
    for i in range(3):
        d = {}
        for m, c in f.items():
            if m[i]:
                dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
                d[dm] = c * m[i]
        out.append(d)
    return out


# --- Hilbert function of S/J by rank counts -------------------------------


def dim_s(t: int) -> int:
    """dim of the degree-t piece of k[x, y, z]."""
    return (t + 1) * (t + 2) // 2 if t >= 0 else 0


def _monomials(t: int):
    return [(i, j, t - i - j) for i in range(t, -1, -1) for j in range(t - i, -1, -1)]


def _reduce(c, p: int) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def rank_mod(mat: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix over GF(p), p < 2**31."""
    a = mat % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, c])
        if below.size:
            a[below] = (a[below] - np.outer(a[below, c], a[rank])) % p
        rank += 1
    return rank


def _ideal_rank(forms, u: int, p: int) -> int:
    """dim of the degree-u piece of the ideal generated by equal-degree forms."""
    s = max(sum(m) for m in forms[0])
    if u < s:
        return 0
    cols = {m: k for k, m in enumerate(_monomials(u))}
    shifts = _monomials(u - s)
    mat = np.zeros((len(forms) * len(shifts), len(cols)), dtype=np.int64)
    row = 0
    for f in forms:
        fp = [(m, _reduce(c, p)) for m, c in f.items()]
        for sh in shifts:
            for m, c in fp:
                mat[row, cols[(m[0] + sh[0], m[1] + sh[1], m[2] + sh[2])]] = c
            row += 1
    return rank_mod(mat, p)


class Reference:
    """Hilbert data of S/J, J generated by three forms of degree s.

    `ideal_dim[u]` is dim J_u for u = 0..top; `tau` is the value at which the
    Hilbert function of S/J has become constant. The top degree starts at
    3s (past the end of I_sat/J for the shapes the paper predicts) and grows
    until the last three values agree.
    """

    def __init__(self, forms, primes):
        self.s = max(sum(m) for m in forms[0])
        self.ideal_dim = []
        top = 3 * self.s
        u = 0
        while True:
            self.ideal_dim.append(max(_ideal_rank(forms, u, p) for p in primes))
            if u >= top:
                tail = [dim_s(v) - self.ideal_dim[v] for v in range(u - 2, u + 1)]
                if tail[0] == tail[1] == tail[2]:
                    break
                if u > 6 * self.s:
                    raise ValueError("Hilbert function of S/J did not settle")
            u += 1
        self.top = u
        self.tau = dim_s(u) - self.ideal_dim[u]

    def quotient_hf(self, t: int) -> int:
        """dim (S/J)_t."""
        return dim_s(t) - self.ideal_dim[t]

    def syzygy_dim(self, u: int) -> int:
        """dim AR_u = 3 dim S_u - dim J_{u+s}: syzygies with degree-u entries."""
        return 3 * dim_s(u) - self.ideal_dim[u + self.s]


def tjurina_number(texts, prime) -> int:
    """dim (S/J)_{3s} for a triple: its Tjurina number, from one rank count.
    Used to choose inputs; `Reference` confirms it when checking."""
    forms = [parse(t) for t in texts]
    u = 3 * max(sum(m) for m in forms[0])
    return max(dim_s(u) - _ideal_rank(forms, u, p) for p in ((prime,) if prime else RATIONAL_CHECK_PRIMES))


def reference_for(mode: str, texts, prime):
    """Reference data for a `qcisyz` input given by its texts.

    `prime` is the field's characteristic, or None for the rationals.
    """
    polys = [parse(t) for t in texts]
    forms = partials(polys[0]) if mode == "curve" else polys
    primes = (prime,) if prime else RATIONAL_CHECK_PRIMES
    return Reference(forms, primes)


# --- checks on the record -------------------------------------------------


def _table(doc_table) -> dict:
    """JSON Betti table {"pos": {"deg": count}} -> {(pos, deg): count}."""
    return {
        (int(p), int(d)): c for p, row in doc_table.items() for d, c in row.items() if c
    }


def _from_twists(*positions) -> dict:
    out = {}
    for pos, twists in enumerate(positions):
        for a in twists:
            out[(pos, a)] = out.get((pos, a), 0) + 1
    return out


def _table_hf(table: dict, t: int) -> int:
    """Alternating sum of the free modules of a resolution, in degree t."""
    return sum((-1) ** pos * c * dim_s(t - deg) for (pos, deg), c in table.items())


def _chern_c2(exponents, b) -> int:
    """c2 of the bundle with 0 -> (+)S(-b_j) -> (+)S(-d_i) -> AR -> 0.

    The Chern polynomial is prod(1 - d_i h) / prod(1 - b_j h), cut at h^2:
    c2 = e2(d) - e1(d) h1(b) + h2(b), h_k the complete symmetric sums.
    """
    e1 = sum(exponents)
    e2 = sum(exponents[i] * exponents[j] for i in range(len(exponents)) for j in range(i))
    h1 = sum(b)
    h2 = sum(b[i] * b[j] for i in range(len(b)) for j in range(i + 1))
    return e2 - e1 * h1 + h2


def _classification(m: int, e, d: int) -> str:
    if m == 2:
        return "Free"
    if m == 3 and e[0] + e[1] == d:
        return "NearlyFree" if e[1] == e[2] else "PlusOneGenerated"
    return f"General({m})"


def check_record(doc: dict, ref: Reference, expected: dict | None = None) -> list:
    """Problems found in one `qcisyz check` JSON record, [] when none."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    checks = doc.get("checks") or []
    need(sorted(c["id"] for c in checks) == sorted(STATEMENTS), "T1..T16 not all reported")
    bad = [c["id"] for c in checks if c["severity"] not in CLEAN_SEVERITIES]
    need(not bad, f"statements violated: {bad}")

    d, tau = doc["d"], doc["tau"]
    need(d == ref.s + 1, f"d = {d}, input forms have degree {ref.s}")
    need(tau == ref.tau, f"tau = {tau}, rank count gives {ref.tau}")
    if doc["smooth"] or problems:
        need(not doc["smooth"], "record says smooth, rank count says tau > 0")
        return problems

    e, b, m = list(doc["exponents"]), list(doc["b"]), doc["m"]
    d1 = e[0]
    need(e == sorted(e) and len(e) == m and len(b) == max(m - 2, 0), "malformed exponents or b")
    need(sum(e) - sum(b) == d - 1, "sum d_i - sum b_j != d - 1")
    need(doc["c1"] == 1 - d, "c1 != 1 - d")
    need(doc["c2"] == (d - 1) ** 2 - tau, "c2 != (d-1)^2 - tau")
    need(_chern_c2(e, b) == (d - 1) ** 2 - tau, "c2 from exponents and b != (d-1)^2 - tau")
    lower = (d - 1) * (d - 1 - d1)
    need(lower <= tau <= lower + d1 * d1, "tau outside the du Plessis-Wall window")
    need(doc["classification"] == _classification(m, e, d), "classification disagrees with m and exponents")

    betti = doc["betti"]
    ar, sigma, n_tab, q_tab = (_table(betti[k]) for k in ("ar", "sigma", "z", "h1"))
    need(ar == _from_twists(e, b), "AR Betti table is not (exponents, b)")
    need(n_tab == _from_twists(e[1:], b), "N Betti table differs from the predicted shape")
    q_pred = (
        _from_twists(
            [2 * d - 2 - x for x in b],
            [2 * d - 2 - x for x in e],
            [x + d - 1 for x in e],
            [x + d - 1 for x in b],
        )
        if m > 2
        else {}
    )
    need(q_tab == q_pred, "Q Betti table differs from the predicted shape")

    # Z is cut out by the Hilbert-Burch ideal whose table is N's, shifted by
    # k = d1 + 1 - d; its degree is (sum rel^2 - sum gen^2) / 2, and must be
    # c2(E(d1)) = c2 + d1 c1 + d1^2.
    k = d1 + 1 - d
    hb_z = sum(c * (deg + k) ** 2 * (1 if pos == 1 else -1) for (pos, deg), c in n_tab.items())
    deg_z = (d - 1) ** 2 - tau + d1 * (1 - d) + d1 * d1
    need(doc["degZ"] == deg_z and hb_z == 2 * deg_z, "deg Z disagrees with Chern data or the N table")

    # Hilbert functions from the record against the rank counts
    for u in range(ref.top - ref.s + 1):
        if _table_hf(ar, u) != ref.syzygy_dim(u):
            problems.append(f"dim AR_{u} from (exponents, b) != rank count")
            break
    for t in range(ref.top + 1):
        if dim_s(t) - _table_hf(sigma, t) + _table_hf(q_tab, t) != ref.quotient_hf(t):
            problems.append(f"HF(S/I_sat) + HF(Q) != HF(S/J) at degree {t}")
            break

    for key, want in (expected or {}).items():
        got = {"tau": tau, "exponents": tuple(e), "b": tuple(b), "d1": d1}[key]
        need(got == want, f"{key} = {got}, hand-derived value is {want}")
    return problems
