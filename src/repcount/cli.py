"""Command-line surface: validate, invariant, homology, degree, stabilize,
oracle, poly, multiindex.

Exit status: 0 success, 1 a usage error (a malformed flag or a missing
subcommand), a parse/validation error or an input past a declared size
box, 2 wrong mode (T != 0 for a codimension-zero command),
3 internal cross-check disagreement.  Machine output is line-oriented
``key=value`` and deterministic for a given input and seed.  Documents
are strict UTF-8, on stdin too.  The parsers are built once, and each
call is parsed once, by its command's parser; the full parser reads it
again only to report a missing or unknown command or a left-over argument.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .exterior import GROUPS, ExteriorWorkLimitError, GroupKind, degree_of_word_map
from .intlinalg import DomainLimitError, SingularMatrixError, format_int
from .invariants import (
    MultiIndex,
    PipelineDisagreementError,
    WrongCodimensionError,
    lambda_invariant,
    lambda_polynomial_cylinder,
    multiindex_degree,
    require_codimension_zero,
)
from .splitting import (
    AdaptedSplitting,
    DocumentError,
    InvalidSplittingError,
    assembled_word_map,
    format_splitting_document,
    glue_matrix,
    pair_cohomology,
    parse_splitting_document,
    stabilize,
    validation_warnings,
)
from .words import _read_integer

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_WRONG_MODE = 2
EXIT_DISAGREEMENT = 3


def _read_input(path: str) -> str:
    # Files and stdin share one decode of their bytes (stdin's own decoder
    # may use surrogateescape); the parser's splitlines() reads CRLF and CR.
    try:
        if path != "-":
            with open(path, "rb") as fh:
                return fh.read().decode("utf-8")
        buffer = getattr(sys.stdin, "buffer", None)
        return buffer.read().decode("utf-8") if buffer else sys.stdin.read()
    except UnicodeDecodeError as exc:
        where = "standard input" if path == "-" else path
        raise DocumentError(f"{where}: {exc}") from exc


def _emit(pairs: list[tuple[str, str]], args: argparse.Namespace, title: str) -> None:
    if args.output_format == "machine":
        lines = [f"{key}={value}" for key, value in pairs]
    else:
        lines = [title, *(f"  {key}: {value if value != '' else '-'}" for key, value in pairs)]
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _load(args: argparse.Namespace) -> tuple[AdaptedSplitting, GroupKind]:
    return parse_splitting_document(_read_input(args.input))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def cmd_validate(args: argparse.Namespace) -> int:
    # Invalid data fails to construct; its error carries the report.
    try:
        s, kind = _load(args)
    except InvalidSplittingError as exc:
        violations, T, warnings, kind = exc.violations, exc.T, exc.warnings, exc.kind
    else:
        violations, T, warnings = [], s.T, validation_warnings(s)
    pairs = [
        ("valid", _bool(not violations)),
        ("T", format_int(T)),
        ("violations", "; ".join(violations)),
        ("warnings", "; ".join(warnings)),
    ]
    _emit(pairs, args, f"validation of {kind.label} splitting")
    return EXIT_OK if not violations else EXIT_INPUT


def cmd_invariant(args: argparse.Namespace) -> int:
    s, kind = _load(args)
    report = lambda_invariant(s, kind, use_sign_convention=args.sign_convention)
    _emit(report.key_values(), args, f"invariant for {kind.label}")
    return EXIT_OK


def cmd_homology(args: argparse.Namespace) -> int:
    s, _ = _load(args)
    rep = pair_cohomology(s)
    pairs = [
        ("betti1_M", str(rep.betti1_M)),
        ("order_H2_M", format_int(rep.order_H2_M)),
        ("order_H2_pair", format_int(rep.order_H2_pair)),
        ("restriction_iso", _bool(rep.restriction_iso)),
    ]
    _emit(pairs, args, "pair homology")
    return EXIT_OK


def cmd_degree(args: argparse.Namespace) -> int:
    s, kind = _load(args)
    require_codimension_zero(s)
    text = format_int(degree_of_word_map(assembled_word_map(s), kind))
    pairs = [
        ("group", kind.family),
        ("n", str(kind.n)),
        ("degree", text),
        ("magnitude", text.lstrip("-")),
    ]
    _emit(pairs, args, "exterior-algebra degree of the assembled word map")
    return EXIT_OK


def cmd_stabilize(args: argparse.Namespace) -> int:
    s, kind = _load(args)
    sys.stdout.write(format_splitting_document(stabilize(s), kind))
    return EXIT_OK


# The oracle module, and fractions with it, load on the first oracle call:
# no other command uses them.  The oracles are called through these names,
# so that a wrapper installed on this module sees each call.
def numeric_degree_u1(f, targets):
    """:func:`repcount.oracle.numeric_degree_u1`."""
    from .oracle import numeric_degree_u1
    return numeric_degree_u1(f, targets)


def cokernel_enumeration(a):
    """:func:`repcount.oracle.cokernel_enumeration`."""
    from .oracle import cokernel_enumeration
    return cokernel_enumeration(a)


def oracle_targets(seed: int, rank: int) -> list[tuple[Fraction, ...]]:
    """The three torus targets of ``oracle --seed``: component j of target
    i is ((seed + 101 i)(j + 1) mod 1009) / 1009.  Any target will do, the
    zero target included; the seed only varies them."""
    from fractions import Fraction
    return [tuple(Fraction((seed + 101 * i) * (j + 1) % 1009, 1009) for j in range(rank))
            for i in range(3)]


def cmd_oracle(args: argparse.Namespace) -> int:
    s, kind = _load(args)
    report = lambda_invariant(s, kind)
    pairs: list[tuple[str, str]] = [
        ("group", kind.family),
        ("n", str(kind.n)),
        ("abs_value", format_int(report.abs_value)),
    ]
    ok = True

    # For n = 1 the Lie rank is 1, so abs_value is |det| of the glue matrix.
    counts = None
    if kind.n == 1 and report.abs_value:
        word_map = assembled_word_map(s)
        try:
            counts = numeric_degree_u1(word_map, oracle_targets(args.seed, s.u))
        except DomainLimitError:  # outside the oracle's size box
            pass
    pairs.append(("torus_applicable", _bool(counts is not None)))
    if counts is not None:
        pairs.append(("torus_counts", ",".join(format_int(c) for c in counts)))
        torus_ok = all(c == report.abs_value for c in counts)
        pairs.append(("torus_agree", _bool(torus_ok)))
        ok = ok and torus_ok

    try:
        enumerated = cokernel_enumeration(glue_matrix(s))
    except DomainLimitError:  # outside the oracle's size box
        enumerated = None
    pairs.append(("coker_applicable", _bool(enumerated is not None)))
    if enumerated is not None:
        # P3's K, the order of H^2 of the pair, is |coker(glue)| once the
        # pipelines agree, and INFINITE exactly when det(glue) = 0.
        pairs.append(("coker_expected", format_int(report.K)))
        pairs.append(("coker_enumerated", format_int(enumerated)))
        coker_ok = report.K == enumerated  # INFINITE is a singleton
        pairs.append(("coker_agree", _bool(coker_ok)))
        ok = ok and coker_ok

    pairs.append(("agree", _bool(ok)))
    _emit(pairs, args, "oracle cross-checks")
    return EXIT_OK if ok else EXIT_DISAGREEMENT


def cmd_poly(args: argparse.Namespace) -> int:
    try:
        kind = GroupKind(args.group, args.n)
        value = lambda_polynomial_cylinder(args.g, args.h, kind)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    text = format_int(value)
    pairs = [
        ("group", kind.family),
        ("n", str(kind.n)),
        ("g", str(args.g)),
        ("h", str(args.h)),
        ("value", text),
        ("magnitude", text.lstrip("-")),
        ("note", f"({args.g - args.h}!)^{kind.lie_rank}"),
    ]
    _emit(pairs, args, "product-cylinder polynomial value")
    return EXIT_OK


def _parse_pairs(text: str, name: str) -> tuple[tuple[int, int], ...]:
    if not text.strip():
        return ()
    out = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise DocumentError(f"{name}: expected 'index:multiplicity', got {chunk!r}")
        left, right = chunk.split(":", 1)
        try:
            out.append((_read_integer(left), _read_integer(right)))
        except ValueError as exc:
            raise DocumentError(f"{name}: {exc}") from exc
    return tuple(out)


def cmd_multiindex(args: argparse.Namespace) -> int:
    try:
        m = MultiIndex(I=_parse_pairs(args.I, "I"), J=_parse_pairs(args.J, "J"))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    pairs = [("T", format_int(multiindex_degree(m)))]
    if args.group == "SU":
        pairs.append(("su_admissible", _bool(m.is_special_unitary_admissible())))
    _emit(pairs, args, "multi-index degree")
    return EXIT_OK


def _flag_integer(text: str) -> int:
    try:  # argparse reports an ArgumentTypeError's own message
        return _read_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on a usage error, which is this CLI's
    # wrong-codimension status; raise an input error instead, for ``main``
    # to report with status 1.  Subcommand parsers share this class.
    def error(self, message):
        raise DocumentError(f"{message}\n{self.format_usage()}".rstrip())


@functools.cache  # built on first use; parsing leaves it unchanged
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by its name."""
    parser = _Parser(
        prog="repcount",
        description="Exact counting invariants of unitary representation "
        "extensions from adapted splitting data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, with_input=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if with_input:
            p.add_argument("input", help="splitting document path, or '-' for stdin")
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       dest="output_format")
        return p

    add_command("validate", cmd_validate, "check a splitting document")
    p = add_command("invariant", cmd_invariant, "compute the T=0 invariant (all pipelines)")
    p.add_argument("--sign-convention", action="store_true",
                   help="report the convention-relative sign instead of UNDETERMINED")
    add_command("homology", cmd_homology, "pair homology report")
    add_command("degree", cmd_degree, "exterior degree of the assembled word map")
    add_command("stabilize", cmd_stabilize, "write the stabilized document to stdout")
    p = add_command("oracle", cmd_oracle, "run the applicable brute-force oracles")
    p.add_argument("--seed", type=_flag_integer, default=0,
                   help="any integer; picks the torus oracle's three targets")
    p = add_command("poly", cmd_poly, "product-cylinder polynomial example value",
                    with_input=False)
    p.add_argument("--g", type=_flag_integer, required=True)
    p.add_argument("--h", type=_flag_integer, required=True)
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--n", type=_flag_integer, required=True)
    p = add_command("multiindex", cmd_multiindex, "degree T of a multi-index (I, J)",
                    with_input=False)
    p.add_argument("--I", default="", help="comma list of index:multiplicity")
    p.add_argument("--J", default="", help="comma list of index:multiplicity")
    p.add_argument("--group", choices=GROUPS)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser, commands = build_parser()
        # The command's parser reads the rest; the full parser reads the line
        # only for its own errors: no command, an unknown one, or extras.
        command = commands.get(argv[0]) if argv else None
        if command is not None:
            args, extra = command.parse_known_args(argv[1:])
        if command is None or extra:
            args = parser.parse_args(argv)
        return args.func(args)
    except (DocumentError, InvalidSplittingError, OSError, SingularMatrixError,
            DomainLimitError, ExteriorWorkLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WrongCodimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRONG_MODE
    except PipelineDisagreementError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
