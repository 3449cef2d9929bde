"""Independent checker for the benchmark's outputs.

Everything here is computed from the benchmark's own representation of a
splitting (words as tuples of ``(generator, exponent)`` letters), never
from the program's objects, and it imports nothing from ``repcount``.
Exponent sums are read straight off the letters, the glue and
Mayer-Vietoris matrices are assembled from them, and determinant and rank
come from exact Gauss-Jordan elimination over ``fractions.Fraction``.

Each check tests a theorem or a declared property of the method:

* at codimension zero, |invariant| == |D|^lie_rank with D the glue
  determinant; K == |D| when D != 0, and K is infinite with a vanishing
  reason when D == 0;
* the signed exterior degree equals D^lie_rank;
* |H^2(M, S1)| == |D| (infinite when D == 0) and
  betti1(M) == h1 + h2 - rank_Q(Mayer-Vietoris);
* stabilization leaves |invariant| unchanged;
* the product-cylinder value has magnitude ((g-h)!)^lie_rank;
* a multi-index has degree sum 2*i*r + sum (4*j-2)*s.

A check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

Letters = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Spec:
    """A splitting as the benchmark generated (or parsed) it."""

    h1: int
    h2: int
    u: int
    g1: int
    k: tuple[Letters, ...]
    l: tuple[Letters, ...]
    u_hat_genus: int | None = None
    orientation_reversed: bool = False

    @property
    def T(self) -> int:
        return (self.h1 + self.h2 - self.u) - self.g1


def lie_rank(family: str, n: int) -> int:
    return n if family == "U" else n - 1


def exponent_sums(word: Letters, rank: int) -> list[int]:
    sums = [0] * rank
    for gen, exp in word:
        sums[gen - 1] += exp
    return sums


def glue_rows(s: Spec) -> list[list[int]]:
    """u x ((h1-g1)+h2): free H1 exponent sums, then minus the H2 ones."""
    rows = []
    for kw, lw in zip(s.k, s.l):
        ks = exponent_sums(kw, s.h1)
        ls = exponent_sums(lw, s.h2)
        rows.append(ks[s.g1:] + [-x for x in ls])
    return rows


def mayer_vietoris_rows(s: Spec) -> list[list[int]]:
    """u x (h1+h2): all H1 exponent sums, then minus the H2 ones."""
    return [exponent_sums(kw, s.h1) + [-x for x in exponent_sums(lw, s.h2)]
            for kw, lw in zip(s.k, s.l)]


def _eliminate(rows: list[list[int]]) -> tuple[int, Fraction]:
    """Rank and the product of pivots (with swap signs) by Gauss-Jordan."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    prod = Fraction(1)
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            prod = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            prod = -prod
        lead = m[rank][col]
        prod *= lead
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / lead
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank, prod


def det(rows: list[list[int]]) -> int:
    if not rows:
        return 1
    rank, prod = _eliminate(rows)
    if rank < len(rows):
        return 0
    if prod.denominator != 1:
        raise ArithmeticError(f"determinant of an integer matrix came out {prod}")
    return prod.numerator


def rank(rows: list[list[int]]) -> int:
    return _eliminate(rows)[0] if rows else 0


# Cached: every pass checks the same splittings again.
@lru_cache(maxsize=None)
def glue_det(s: Spec) -> int:
    return det(glue_rows(s))


@lru_cache(maxsize=None)
def mayer_vietoris_rank(s: Spec) -> int:
    return rank(mayer_vietoris_rows(s))


# ---------------------------------------------------------------------------
# Documents, parsed here without the program's parser.
# ---------------------------------------------------------------------------

def _parse_letters(text: str) -> Letters:
    letters = []
    for token in text.split():
        gen, _, exp = token[1:].partition("^")
        letters.append((int(gen), int(exp) if exp else 1))
    return tuple(letters)


def parse_document(text: str) -> tuple[Spec, str, int]:
    """Splitting, group family and n of a well-formed splitting document."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
    u = int(fields["u"])
    spec = Spec(
        h1=int(fields["h1"]), h2=int(fields["h2"]), u=u, g1=int(fields["g1"]),
        k=tuple(_parse_letters(w) for w in fields["k_map"].split(";")) if u else (),
        l=tuple(_parse_letters(w) for w in fields["l_map"].split(";")) if u else (),
        u_hat_genus=int(fields["u_hat_genus"]) if "u_hat_genus" in fields else None,
        orientation_reversed=fields.get("orientation_reversed") == "true",
    )
    return spec, fields["group"], int(fields["n"])


def format_letters(word: Letters) -> str:
    return " ".join(f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in word)


def format_document(s: Spec, family: str, n: int) -> str:
    lines = [f"n = {n}", f"group = {family}", f"h1 = {s.h1}", f"h2 = {s.h2}",
             f"u = {s.u}", f"g1 = {s.g1}"]
    if s.u_hat_genus is not None:
        lines.append(f"u_hat_genus = {s.u_hat_genus}")
    if s.orientation_reversed:
        lines.append("orientation_reversed = true")
    lines.append("k_map = " + " ; ".join(format_letters(w) for w in s.k))
    lines.append("l_map = " + " ; ".join(format_letters(w) for w in s.l))
    return "\n".join(lines) + "\n"


def key_values(text: str) -> dict[str, str]:
    """The ``key=value`` lines of the CLI's machine format."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


# ---------------------------------------------------------------------------
# Checks.  ``K`` is an int, or None for an infinite order.
# ---------------------------------------------------------------------------

def convention_sign(s: Spec, d: int, r: int) -> int:
    """The declared sign convention, evaluated from D alone.

    sign(degree) is sign(D)^r; the convention multiplies it by
    (-1)^(r*(h1-g1)*(h2+1)), normalizes by (-1)^(r*u_hat_genus) and flips
    by (-1)^r for a reversed orientation.
    """
    u_hat = s.u if s.u_hat_genus is None else s.u_hat_genus
    exponent = r * (s.h1 - s.g1) * (s.h2 + 1) + r * u_hat
    if s.orientation_reversed:
        exponent += r
    if d < 0:
        exponent += r
    return -1 if exponent % 2 else 1


def check_invariant(s: Spec, r: int, abs_value: int, K, reason) -> str | None:
    d = glue_det(s)
    if abs_value != abs(d) ** r:
        return f"abs_value {abs_value} != |D|^{r} with D={d}"
    if d != 0 and K != abs(d):
        return f"K {K} != |D| = {abs(d)}"
    if d == 0 and (K is not None or not reason):
        return f"D = 0 but K={K} and vanishing_reason={reason!r}"
    return None


def check_degree(s: Spec, r: int, degree: int) -> str | None:
    d = glue_det(s)
    if degree != d ** r:
        return f"degree {degree} != D^{r} with D={d}"
    return None


def check_homology(s: Spec, order_pair, betti1: int) -> str | None:
    d = glue_det(s)
    if order_pair != (abs(d) if d != 0 else None):
        return f"order_H2_pair {order_pair} but D={d}"
    expected = s.h1 + s.h2 - mayer_vietoris_rank(s)
    if betti1 != expected:
        return f"betti1_M {betti1} != h1 + h2 - rank(MV) = {expected}"
    return None


def _order(text: str):
    return None if text == "INFINITE" else int(text)


def check_cli_invariant(s: Spec, family: str, n: int, out: str,
                        sign_convention: bool) -> str | None:
    kv = key_values(out)
    r = lie_rank(family, n)
    err = check_invariant(s, r, int(kv["abs_value"]), _order(kv["K"]),
                          kv["vanishing_reason"])
    if err:
        return err
    d = glue_det(s)
    want = "UNDETERMINED"
    if sign_convention and d != 0:
        want = f"{convention_sign(s, d, r):+d}"
    return None if kv["sign"] == want else f"sign {kv['sign']} != {want}"


def check_cli_homology(s: Spec, out: str) -> str | None:
    kv = key_values(out)
    return check_homology(s, _order(kv["order_H2_pair"]), int(kv["betti1_M"]))


def check_cli_degree(s: Spec, family: str, n: int, out: str) -> str | None:
    return check_degree(s, lie_rank(family, n), int(key_values(out)["degree"]))


def check_cli_validate(s: Spec, out: str) -> str | None:
    kv = key_values(out)
    if kv["valid"] != "true" or int(kv["T"]) != s.T:
        return f"validate gave valid={kv['valid']} T={kv['T']}, expected true, {s.T}"
    return None


def check_stabilize(s: Spec, family: str, n: int, out: str) -> str | None:
    t, fam, m = parse_document(out)
    if (fam, m) != (family, n) or (t.u, t.h1, t.h2, t.g1) != (s.u + 1, s.h1 + 1, s.h2, s.g1):
        return "stabilized document has the wrong group or ranks"
    r = lie_rank(family, n)
    if abs(glue_det(t)) ** r != abs(glue_det(s)) ** r:
        return "stabilization changed |invariant|"
    return None


def check_oracle(out: str) -> str | None:
    kv = key_values(out)
    return None if kv.get("agree") == "true" else f"oracle agree={kv.get('agree')}"


def check_poly(g: int, h: int, family: str, n: int, out: str) -> str | None:
    want = math.factorial(g - h) ** lie_rank(family, n)
    got = int(key_values(out)["magnitude"])
    return None if got == want else f"poly magnitude {got} != {want}"


def check_multiindex(i_pairs, j_pairs, out: str) -> str | None:
    want = sum(2 * i * r for i, r in i_pairs) + sum((4 * j - 2) * s for j, s in j_pairs)
    got = int(key_values(out)["T"])
    return None if got == want else f"multiindex T {got} != {want}"
