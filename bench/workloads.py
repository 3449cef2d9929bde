"""The benchmark's workloads: seeded inputs and the operations run on them.

Every input is generated here from the workload seed; nothing comes from
the test suite, so editing the tests cannot shift the benchmark.  Each
workload's ``setup`` returns ``(api, ops, files)``: the list of operations
that make up one pass, and the documents (path -> text) to write before
it.
An operation calls the program through ``api``, a namespace of the entry
points the benchmark uses, so that the traced run can wrap those calls in
spans.  Its ``check`` compares the output with :mod:`checker`, which is
computed apart from the program.

The ladders are stratified: a fixed number of inputs per rung, so another
seed gives a pass of the same shape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checker
from checker import Spec


@dataclass
class Op:
    """One operation of a pass.

    ``run`` calls the program and returns its output; ``check`` returns
    None when that output is right, else the reason it is wrong.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

def random_letters(rng: random.Random, rank: int, count: int):
    """``count`` single letters g_i^(+-1); the program reduces them."""
    return tuple((rng.randint(1, rank), rng.choice((-1, 1))) for _ in range(count))


def exponent_letters(rng: random.Random, sums):
    """A word with the given exponent sum on each generator, its letters
    in random order."""
    letters = []
    for gen, exp in enumerate(sums, start=1):
        letters.extend([(gen, 1 if exp > 0 else -1)] * abs(exp))
    rng.shuffle(letters)
    return tuple(letters)


def dense_letters(rng: random.Random, rank: int):
    """A word whose exponent sum on every generator is nonzero, in
    [-5, 5].  Such glue matrices have few vanishing minors, so the
    expansion's size at one rung barely varies."""
    return exponent_letters(rng, [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                                  for _ in range(rank)])


class Deck:
    """Draws 0..top uniformly, but in shuffled rounds of every value once,
    so that a long run of draws holds each value equally often."""

    def __init__(self, rng: random.Random, top: int):
        self.rng, self.top, self.cards = rng, top, []

    def draw(self) -> int:
        if not self.cards:
            self.cards = list(range(self.top + 1))
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def small_t0_spec(rng: random.Random, shape: tuple[int, int, int], lengths: Deck) -> Spec:
    """A T = 0 splitting of the given shape (h1, h2, g1) whose words have
    ``lengths.draw()`` random letters each."""
    h1, h2, g1 = shape
    u = h1 + h2 - g1
    return Spec(
        h1=h1, h2=h2, u=u, g1=g1,
        k=tuple(random_letters(rng, h1, lengths.draw()) for _ in range(u)),
        l=tuple(random_letters(rng, h2, lengths.draw()) for _ in range(u)),
    )


def t0_shapes(max_rank: int) -> dict[tuple[int, int, int], Fraction]:
    """Each shape (h1, h2, g1) of the acceptance corpus's generator, with
    its relative weight: h1 and h2 uniform in 1..max_rank, g1 uniform in
    0..h1, kept when 1 <= u = h1 + h2 - g1 <= max_rank."""
    return {(h1, h2, g1): Fraction(1, h1 + 1)
            for h1 in range(1, max_rank + 1) for h2 in range(1, max_rank + 1)
            for g1 in range(h1 + 1) if 1 <= h1 + h2 - g1 <= max_rank}


def apportion(weights: dict, count: int) -> list:
    """``count`` keys in the proportions of ``weights``, by largest
    remainder, so that the mix does not depend on the seed."""
    total = sum(weights.values())
    quotas = {key: Fraction(w) * count / total for key, w in weights.items()}
    counts = {key: int(q) for key, q in quotas.items()}
    by_remainder = sorted(quotas, key=lambda key: quotas[key] - counts[key], reverse=True)
    for key in by_remainder[:count - sum(counts.values())]:
        counts[key] += 1
    return [key for key in sorted(counts) for _ in range(counts[key])]


def ladder_g1s(u: int, count: int) -> list[int]:
    """``count`` values of g1 for rank u, in the proportions of (h1, h2)
    drawn uniformly from [1, u]^2 with h1 + h2 - u == g1 >= 0.  The cost
    of pair_cohomology follows g1 closely, so it is not left to the seed."""
    weights = {}
    for h1 in range(1, u + 1):
        for h2 in range(max(1, u - h1), u + 1):
            weights[h1 + h2 - u] = weights.get(h1 + h2 - u, 0) + 1
    return apportion(weights, count)


def ladder_spec(rng: random.Random, u: int, g1: int, word) -> Spec:
    """A T = 0 splitting of rank u with the given g1; h1 is drawn."""
    h1 = rng.randint(max(1, g1), min(u, u + g1 - 1))
    h2 = u + g1 - h1
    return Spec(h1=h1, h2=h2, u=u, g1=g1,
                k=tuple(word(rng, h1) for _ in range(u)),
                l=tuple(word(rng, h2) for _ in range(u)))


def nonsingular(draw: Callable[[], Spec]) -> Spec:
    while True:
        s = draw()
        if checker.glue_det(s) != 0:
            return s


def build_splitting(rc, s: Spec):
    """The program's AdaptedSplitting for a generated splitting."""
    return rc.AdaptedSplitting(
        h1=s.h1, h2=s.h2, u=s.u, g1=s.g1,
        k_map=rc.FreeHom(s.u, s.h1, tuple(rc.free_reduce(w) for w in s.k)),
        l_map=rc.FreeHom(s.u, s.h2, tuple(rc.free_reduce(w) for w in s.l)),
        u_hat_genus=s.u_hat_genus, orientation_reversed=s.orientation_reversed,
    )


def group_kind(rc, family: str, n: int):
    return rc.unitary(n) if family == "U" else rc.special_unitary(n)


# ---------------------------------------------------------------------------
# Library workloads.
# ---------------------------------------------------------------------------

# Ten corpora of the acceptance corpus's size (200) per pass, with shapes
# in fixed proportions and word lengths dealt in rounds: a few dense
# splittings of rank 5 carry most of the cost.  Over ten seeds, 1,000
# splittings with fixed shapes moved the pass's cost by 6% and its p99 by
# 14% (quartile spread); 2,000 with dealt lengths, by 3% and 6%.
CORPUS_SIZE = 2000
CORPUS_GROUPS = (("U", 1), ("U", 2), ("U", 3), ("SU", 2), ("SU", 3))


def _invariant_op(rc, api, s: Spec, family: str, n: int) -> Op:
    splitting, kind = build_splitting(rc, s), group_kind(rc, family, n)
    r = checker.lie_rank(family, n)

    def check(report) -> str | None:
        k = report.K if isinstance(report.K, int) else None
        return checker.check_invariant(s, r, report.abs_value, k, report.vanishing_reason)

    return Op(f"{family}({n}) u={s.u}",
              lambda: api.lambda_invariant(splitting, kind), check)


def setup_corpus(rc, seed: int, workdir: Path):
    """lambda_invariant on small T = 0 splittings x 5 groups."""
    rng = random.Random(seed)
    api = SimpleNamespace(lambda_invariant=rc.lambda_invariant)
    lengths = Deck(rng, 8)
    specs = [small_t0_spec(rng, shape, lengths) for shape in apportion(t0_shapes(5), CORPUS_SIZE)]
    ops = [_invariant_op(rc, api, s, fam, n) for s in specs for fam, n in CORPUS_GROUPS]
    return api, ops, {}


# (family, n, u, count): P2 grows like C(u, u/2)^lie_rank terms, so each
# group gets the rungs where one invariant costs tens to hundreds of ms.
EXTERIOR_RUNGS = (
    ("U", 2, 6, 10), ("U", 2, 7, 10), ("U", 2, 8, 4),
    ("U", 3, 4, 10), ("U", 3, 5, 10), ("U", 3, 6, 4),
    ("SU", 3, 7, 10), ("SU", 3, 8, 4),
    ("U", 4, 4, 10), ("U", 4, 5, 4),
)


def setup_exterior_ladder(rc, seed: int, workdir: Path):
    """lambda_invariant on nonsingular T = 0 splittings whose glue matrix
    has no zero entry, so the exterior expansion at one rung has one size."""
    rng = random.Random(seed)
    api = SimpleNamespace(lambda_invariant=rc.lambda_invariant)
    ops = []
    for family, n, u, count in EXTERIOR_RUNGS:
        for g1 in ladder_g1s(u, count):
            s = nonsingular(lambda: ladder_spec(rng, u, g1, dense_letters))
            ops.append(_invariant_op(rc, api, s, family, n))
    return api, ops, {}


# Five equal rungs: the median falls inside the middle rung and the tail
# inside the top one, not on the edge between two rungs.  At u >= 24 a rare
# input's SNF blows up (one of about forty took 3.1 s at u = 26), so a pass
# there is decided by whether the seed drew one.
HOMOLOGY_RUNGS = ((14, 48), (16, 48), (18, 48), (20, 48), (22, 48))
HOMOLOGY_WORD_LETTERS = 30


def setup_homology_ladder(rc, seed: int, workdir: Path):
    """The homology command's library work on documents with 30-letter
    words: parse, validate, pair_cohomology (P3).  Entries of the SNF
    transforms reach thousands of digits at these ranks."""
    rng = random.Random(seed)
    api = SimpleNamespace(parse=rc.parse_splitting_document, validate=rc.validate,
                          pair_cohomology=rc.pair_cohomology)

    def homology(text: str):
        splitting, _ = api.parse(text)
        violations = api.validate(splitting)
        if violations:
            raise ValueError(f"generated document is invalid: {violations}")
        return api.pair_cohomology(splitting)

    def op(s: Spec) -> Op:
        text = checker.format_document(s, "U", 1)

        def check(rep) -> str | None:
            order = rep.order_H2_pair if isinstance(rep.order_H2_pair, int) else None
            return checker.check_homology(s, order, rep.betti1_M)

        return Op(f"homology u={s.u}", lambda: homology(text), check)

    word = lambda r, rank: random_letters(r, rank, HOMOLOGY_WORD_LETTERS)
    ops = [op(ladder_spec(rng, u, g1, word))
           for u, count in HOMOLOGY_RUNGS for g1 in ladder_g1s(u, count)]
    return api, ops, {}


# ---------------------------------------------------------------------------
# The CLI workload.
# ---------------------------------------------------------------------------

CLI_DOCS = 40
CLI_GROUPS = CORPUS_GROUPS
# U(1) oracle documents per glue rank 1, 2, 3.  The twenty of rank 3 are
# the pass's slowest operations, so its tail percentile falls inside one
# kind of operation rather than on the edge between two.
ORACLE_DOCS = {1: 10, 2: 10, 3: 20}
ORACLE_MAX_DET = 12
POLY_CASES = 5
MULTIINDEX_CASES = 5

# Fault operations: the same every run, whatever the seed.  The first
# document's invariant |D|^2 has about 4,400 digits, past CPython's
# int-to-str limit of 4,300; the second has a 4,400-digit exponent, past
# the str-to-int limit.  Either makes main() raise ValueError where the
# documented exits are 0 or 1.
FAULT_DOCS = {
    "fault_str_limit": ("invariant", "n = 2\ngroup = U\nh1 = 1\nh2 = 1\nu = 1\ng1 = 1\n"
                        "k_map = g1\nl_map = g1^" + "7" * 2200 + "\n"),
    "fault_int_limit": ("validate", "n = 1\ngroup = U\nh1 = 1\nh2 = 1\nu = 1\ng1 = 1\n"
                        "k_map = g1\nl_map = g1^" + "3" * 4400 + "\n"),
}


def oracle_spec(rng: random.Random, u: int, max_entry: int) -> Spec:
    """A nonsingular U(1) splitting of rank u inside both oracles' domains,
    its largest glue entry exactly ``max_entry`` (at most 4) and
    |det| <= ORACLE_MAX_DET.  The cokernel enumeration visits
    (2 * (max_entry * u + 1) + 1)^u points, so the largest entry is fixed
    by the document's index, not left to the seed.  The glue entries are
    drawn first and the words spelled from them."""
    shapes = [shape for shape in t0_shapes(3) if shape[0] + shape[1] - shape[2] == u]
    while True:
        glue = [[rng.randint(-max_entry, max_entry) for _ in range(u)] for _ in range(u)]
        if max(abs(x) for row in glue for x in row) == max_entry \
                and 0 < abs(checker.det(glue)) <= ORACLE_MAX_DET:
            break
    h1, h2, g1 = rng.choice(shapes)
    free1 = h1 - g1
    return Spec(
        h1=h1, h2=h2, u=u, g1=g1,
        k=tuple(exponent_letters(rng, [rng.randint(-1, 1) for _ in range(g1)] + row[:free1])
                for row in glue),
        l=tuple(exponent_letters(rng, [-x for x in row[free1:]]) for row in glue),
    )


def setup_cli_docs(rc, seed: int, workdir: Path):
    """repcount.cli.main([...]) on documents the caller writes to
    ``workdir`` before the first pass."""
    rng = random.Random(seed)
    api = SimpleNamespace(main=importlib.import_module(rc.__name__ + ".cli").main)
    files: dict[Path, str] = {}

    def cli(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = api.main(argv + ["--format", "machine"])
        return status, out.getvalue()

    def op(label: str, argv: list[str], check) -> Op:
        def checked(result) -> str | None:
            status, out = result
            return f"exit status {status}" if status != 0 else check(out)
        return Op(label, lambda: cli(argv), checked)

    def write(name: str, text: str) -> str:
        files[workdir / name] = text
        return str(workdir / name)

    ops = []
    lengths = Deck(rng, 8)
    for idx, shape in enumerate(apportion(t0_shapes(4), CLI_DOCS)):
        family, n = CLI_GROUPS[idx % len(CLI_GROUPS)]
        s = small_t0_spec(rng, shape, lengths)
        if idx % 4 == 3:
            s = dataclasses.replace(s, u_hat_genus=s.u + rng.randint(0, 2),
                                    orientation_reversed=True)
        path = write(f"doc{idx}.split", checker.format_document(s, family, n))
        tag = f"{family}({n}) u={s.u}"
        ops += [
            op(f"validate {tag}", ["validate", path],
               lambda out, s=s: checker.check_cli_validate(s, out)),
            op(f"invariant {tag}", ["invariant", path],
               lambda out, s=s, f=family, n=n: checker.check_cli_invariant(s, f, n, out, False)),
            op(f"invariant --sign-convention {tag}", ["invariant", path, "--sign-convention"],
               lambda out, s=s, f=family, n=n: checker.check_cli_invariant(s, f, n, out, True)),
            op(f"homology {tag}", ["homology", path],
               lambda out, s=s: checker.check_cli_homology(s, out)),
            op(f"degree {tag}", ["degree", path],
               lambda out, s=s, f=family, n=n: checker.check_cli_degree(s, f, n, out)),
            op(f"stabilize {tag}", ["stabilize", path],
               lambda out, s=s, f=family, n=n: checker.check_stabilize(s, f, n, out)),
        ]
    oracle_ranks = [u for u, count in ORACLE_DOCS.items() for _ in range(count)]
    for idx, u in enumerate(oracle_ranks):
        s = oracle_spec(rng, u, 1 + idx % 3)
        path = write(f"oracle{idx}.split", checker.format_document(s, "U", 1))
        ops.append(op(f"oracle u={s.u}", ["oracle", path, "--seed", str(rng.randint(0, 999))],
                      checker.check_oracle))
    for _ in range(POLY_CASES):
        family, n = rng.choice(CLI_GROUPS)
        h = rng.randint(2, 3)
        g = h + rng.randint(1, 3)
        ops.append(op(f"poly g={g} h={h} {family}({n})",
                      ["poly", "--g", str(g), "--h", str(h), "--group", family, "--n", str(n)],
                      lambda out, g=g, h=h, f=family, n=n: checker.check_poly(g, h, f, n, out)))
    for _ in range(MULTIINDEX_CASES):
        i_pairs = _index_pairs(rng)
        j_pairs = _index_pairs(rng)
        argv = ["multiindex", "--I", _pairs_text(i_pairs), "--J", _pairs_text(j_pairs)]
        ops.append(op("multiindex", argv,
                      lambda out, i=i_pairs, j=j_pairs: checker.check_multiindex(i, j, out)))
    for name, (command, text) in FAULT_DOCS.items():
        ops.append(_fault_op(name, cli, [command, write(f"{name}.split", text)]))
    return api, ops, files


def _fault_op(label: str, cli, argv: list[str]) -> Op:
    # A fault operation succeeds once main() returns a documented status
    # instead of raising; until then it raises and counts as failed.
    def check(result) -> str | None:
        status, _ = result
        return None if status in (0, 1) else f"exit status {status}"
    return Op(label, lambda: cli(argv), check)


def _index_pairs(rng: random.Random):
    pairs, index = [], 0
    for _ in range(rng.randint(0, 3)):
        index += rng.randint(1, 3)
        pairs.append((index, rng.randint(1, 3)))
    return tuple(pairs)


def _pairs_text(pairs) -> str:
    return ",".join(f"{i}:{m}" for i, m in pairs)


WORKLOADS = {
    "corpus": setup_corpus,
    "exterior_ladder": setup_exterior_ladder,
    "homology_ladder": setup_homology_ladder,
    "cli_docs": setup_cli_docs,
}
