import decimal
import io
import time

import pytest

from repcount import (
    format_splitting_document,
    glue_matrix,
    intlinalg,
    invariants,
    parse_splitting_document,
    stabilize,
    unitary,
)
from repcount import cli, oracle
from repcount.cli import main
from repcount.oracle import COKER_MAX_DIM, COKER_MAX_ENTRY, TORUS_MAX_WORK
from support import (
    DENSE6_DOCUMENT,
    DENSE9_DOCUMENT,
    DET6_DOCUMENT,
    TRIVIAL_DOCUMENT,
    det6_document,
    det6_splitting,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_dict(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture
def det6_path(tmp_path):
    p = tmp_path / "det6.split"
    p.write_text(DET6_DOCUMENT)
    return str(p)


@pytest.fixture
def trivial_path(tmp_path):
    p = tmp_path / "trivial.split"
    p.write_text(TRIVIAL_DOCUMENT)
    return str(p)


class TestInvariantCommand:
    def test_trivial_machine(self, capsys, trivial_path):
        code, out, _ = run(capsys, "invariant", trivial_path, "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["abs_value"] == "1"
        assert kv["K"] == "1"
        assert kv["agree"] == "true"
        assert kv["sign"] == "UNDETERMINED"
        expected_keys = ["group", "n", "T", "abs_value", "sign", "K",
                         "pipeline_det", "pipeline_ext", "pipeline_K",
                         "agree", "vanishing_reason"]
        assert list(kv) == expected_keys

    def test_det6_machine(self, capsys, det6_path):
        code, out, _ = run(capsys, "invariant", det6_path, "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["abs_value"] == "36"
        assert kv["pipeline_det"] == kv["pipeline_ext"] == kv["pipeline_K"] == "36"
        assert kv["agree"] == "true"

    def test_sign_convention_flag(self, capsys, det6_path):
        code, out, _ = run(capsys, "invariant", det6_path, "--format", "machine",
                           "--sign-convention")
        assert code == 0
        assert machine_dict(out)["sign"] in ("+1", "-1")

    def test_wrong_codimension_exit_2(self, capsys, tmp_path):
        doc = DET6_DOCUMENT.replace("h1 = 2", "h1 = 3")  # raises T to 1
        p = tmp_path / "t1.split"
        p.write_text(doc)
        code, _, err = run(capsys, "invariant", str(p))
        assert code == 2
        assert "poly" in err

    @pytest.mark.parametrize("command", ["degree", "oracle"])
    def test_wrong_codimension_other_commands(self, capsys, tmp_path, command):
        p = tmp_path / "t1.split"
        p.write_text(DET6_DOCUMENT.replace("h1 = 2", "h1 = 3"))
        code, _, err = run(capsys, command, str(p))
        assert code == 2
        assert "poly" in err

    def test_output_past_str_digit_limit(self, capsys, tmp_path):
        # |det| = E, so abs_value = E^2 has 4,400 digits: past the limit of
        # str(int), printed exactly anyway.
        exponent = "7" * 2200
        p = tmp_path / "huge.split"
        p.write_text(TRIVIAL_DOCUMENT.replace("l_map = g1", f"l_map = g1^{exponent}"))
        code, out, err = run(capsys, "invariant", str(p), "--format", "machine")
        assert code == 0 and err == ""
        kv = machine_dict(out)
        assert kv["K"] == exponent
        with decimal.localcontext(decimal.Context(prec=10_000)):
            assert decimal.Decimal(kv["abs_value"]) == decimal.Decimal(exponent) ** 2
        assert kv["pipeline_det"] == kv["pipeline_ext"] == kv["pipeline_K"] == kv["abs_value"]

    @pytest.mark.parametrize("command", ["validate", "invariant"])
    def test_overlong_exponent_exit_1(self, capsys, tmp_path, command):
        p = tmp_path / "long.split"
        p.write_text(TRIVIAL_DOCUMENT.replace("l_map = g1", "l_map = g1^" + "3" * 4400))
        code, _, err = run(capsys, command, str(p))
        assert code == 1
        assert err.startswith("error: l_map:")

    @pytest.mark.parametrize("command", ["validate", "invariant", "homology", "stabilize"])
    @pytest.mark.parametrize("line,field", [("h1 = 1_0", "h1"), ("n = +2", "n"),
                                            ("u = \u0661", "u")])
    def test_integer_field_syntax_exit_1(self, capsys, tmp_path, command, line, field):
        p = tmp_path / "number.split"
        key, value = line.split(" = ", 1)
        p.write_text("".join(f"{line}\n" if row.startswith(key + " ") else f"{row}\n"
                             for row in TRIVIAL_DOCUMENT.splitlines()), encoding="utf-8")
        code, out, err = run(capsys, command, str(p))
        assert (code, out) == (1, "")
        # The wording of a flag outside the syntax, after the field's name.
        assert err == f"error: field {field!r}: invalid integer {value!r}\n"

    def test_parse_error_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.split"
        p.write_text("not a document\n")
        code, _, err = run(capsys, "invariant", str(p))
        assert code == 1
        assert "error" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, _ = run(capsys, "invariant", "/nonexistent/path.split")
        assert code == 1

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(DET6_DOCUMENT))
        code, out, _ = run(capsys, "invariant", "-", "--format", "machine")
        assert code == 0
        assert machine_dict(out)["abs_value"] == "36"

    def test_non_utf8_file_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.split"
        p.write_bytes(b"\xff")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {p}: 'utf-8' codec can't decode byte 0xff")

    def test_non_utf8_stdin_exit_1(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"n = 1\n\xff"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "validate", "-")
        assert code == 1 and out == ""
        assert err.startswith("error: standard input: 'utf-8' codec can't decode byte 0xff")

    def test_surrogateescape_stdin_exit_1(self, capsys, monkeypatch):
        # A POSIX locale's stdin decodes with surrogateescape; the bytes are
        # still refused as they are in a file.
        stdin = io.TextIOWrapper(io.BytesIO(b"\xffn = 1"), encoding="utf-8",
                                 errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "validate", "-")
        assert code == 1 and out == ""
        assert err.startswith("error: standard input: 'utf-8' codec can't decode byte 0xff")

    def test_pipeline_disagreement_exit_3(self, capsys, det6_path, monkeypatch):
        det = invariants.det
        monkeypatch.setattr(invariants, "det", lambda m: det(m) + 1)
        code, out, err = run(capsys, "invariant", det6_path)
        assert code == 3 and out == ""
        assert err.startswith("internal error: pipelines disagree")
        assert "Traceback" not in err

    def test_deterministic_output(self, capsys, det6_path):
        _, out1, _ = run(capsys, "invariant", det6_path, "--format", "machine")
        _, out2, _ = run(capsys, "invariant", det6_path, "--format", "machine")
        assert out1 == out2

    def test_vanishing_instance(self, capsys, tmp_path):
        doc = DET6_DOCUMENT.replace("k_map = g2^2 ; g1", "k_map = g1 ; g1^2")
        p = tmp_path / "vanishing.split"
        p.write_text(doc)
        code, out, _ = run(capsys, "invariant", str(p), "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["abs_value"] == "0"
        assert kv["vanishing_reason"] == "restriction_not_iso"
        assert kv["K"] == "INFINITE"


class TestValidateCommand:
    def test_valid_exit_0(self, capsys, det6_path):
        code, out, _ = run(capsys, "validate", det6_path, "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["valid"] == "true" and kv["T"] == "0"

    def test_violations_exit_1(self, capsys, tmp_path):
        p = tmp_path / "invalid.split"
        p.write_text(TRIVIAL_DOCUMENT.replace("g1 = 1", "g1 = 3"))
        code, out, _ = run(capsys, "validate", str(p), "--format", "machine")
        assert code == 1
        kv = machine_dict(out)
        assert kv["valid"] == "false"
        assert "S1 generators exceed H1 rank" in kv["violations"]

    def test_full_report_for_invalid_odd_t(self, capsys, tmp_path):
        # T = 1 is odd and positive; u_hat_genus = -1 is the violation.
        p = tmp_path / "invalid.split"
        p.write_text(DET6_DOCUMENT.replace("h1 = 2", "h1 = 3").replace("group = U", "group = SU")
                     + "u_hat_genus = -1\n")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "validation of SU(2) splitting",
            "  valid: false",
            "  T: 1",
            "  violations: u_hat_genus must be nonnegative, got -1",
            "  warnings: odd positive codimension T=1",
        ]


@pytest.mark.parametrize("command", ["homology", "stabilize"])
def test_invalid_splitting_exit_1(capsys, tmp_path, command):
    p = tmp_path / "invalid.split"
    p.write_text(TRIVIAL_DOCUMENT.replace("g1 = 1", "g1 = 3"))
    code, out, err = run(capsys, command, str(p))
    assert code == 1 and out == ""
    assert "S1 generators exceed H1 rank" in err


class TestHomologyCommand:
    def test_det6(self, capsys, det6_path):
        code, out, _ = run(capsys, "homology", det6_path, "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["order_H2_pair"] == "6"
        assert kv["restriction_iso"] == "true"


class TestDegreeCommand:
    def test_det6(self, capsys, det6_path):
        code, out, _ = run(capsys, "degree", det6_path, "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["magnitude"] == "36"

    def test_number_converted_once(self, capsys, monkeypatch):
        # One stabilization makes the U(1) degree negative; the magnitude is
        # the degree's text without its sign, not a second conversion.
        calls = []
        monkeypatch.setattr(cli, "format_int",
                            lambda x: calls.append(x) or intlinalg.format_int(x))
        monkeypatch.setattr("sys.stdin", io.StringIO(det6_document(1, 3)))
        code, out, _ = run(capsys, "degree", "-", "--format", "machine")
        assert code == 0 and calls == [-6]
        kv = machine_dict(out)
        assert (kv["degree"], kv["magnitude"]) == ("-6", "6")


class TestSizeBoxes:
    def test_p2_work_box_exit_1(self, capsys, tmp_path):
        # Every word uses every generator, so no factor closes before the
        # last row and the frontier bound is the worst case, u * (2^u - 1).
        u = 30
        p = tmp_path / "dense.split"
        p.write_text(
            f"n = 1\ngroup = U\nh1 = {u}\nh2 = 1\nu = {u}\ng1 = 1\n"
            "k_map = " + " ; ".join(
                [" ".join(f"g{i}^{1 + (i + r) % 3}" for i in range(1, u + 1))
                 for r in range(u)]) + "\n"
            "l_map = " + " ; ".join(["g1"] * u) + "\n"
        )
        for command in ("invariant", "degree", "oracle"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, str(p))
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert err.startswith("error: degree expansion") and "Traceback" not in err

    def test_p2_sparse_wide_document_computes(self, capsys, tmp_path):
        u = 30
        p = tmp_path / "wide.split"
        p.write_text(
            f"n = 1\ngroup = U\nh1 = {u}\nh2 = 1\nu = {u}\ng1 = 1\n"
            "k_map = " + " ; ".join(f"g{i}" for i in range(1, u + 1)) + "\n"
            "l_map = " + " ; ".join(["g1"] * u) + "\n"
        )
        for command in ("invariant", "degree", "oracle"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, str(p), "--format", "machine")
            assert time.perf_counter() - start < 1.0
            assert code == 0 and err == ""
            kv = machine_dict(out)
            assert kv.get("abs_value", kv.get("magnitude")) == "1"

    @pytest.mark.parametrize("n,l_map", [(20000, "g1"), (10 ** 9, "g1^3")])
    def test_lie_rank_work_box_exit_1(self, capsys, tmp_path, n, l_map):
        # With |det| = 3 the box must refuse before P1 raises 3 to the rank.
        p = tmp_path / "rank.split"
        p.write_text(TRIVIAL_DOCUMENT.replace("n = 2", f"n = {n}")
                     .replace("l_map = g1", f"l_map = {l_map}"))
        for command in ("invariant", "degree", "oracle"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, str(p))
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert err.startswith("error: degree expansion") and "Traceback" not in err

    def test_poly_work_box_exit_1(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "poly", "--g", "30", "--h", "2", "--group", "U", "--n", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: product-cylinder expansion") and "Traceback" not in err

    def test_torus_box(self, capsys, tmp_path):
        p = tmp_path / "long.split"
        p.write_text(TRIVIAL_DOCUMENT.replace("n = 2", "n = 1")
                     .replace("l_map = g1", "l_map = g1^600000"))
        start = time.perf_counter()
        code, out, _ = run(capsys, "oracle", str(p), "--format", "machine")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        kv = machine_dict(out)
        assert kv["abs_value"] == "600000"
        assert kv["torus_applicable"] == "false" and "torus_counts" not in kv
        assert kv["coker_applicable"] == "false"
        assert kv["agree"] == "true"

    def test_torus_box_edge(self, capsys, tmp_path):
        # The acting matrix is [[-power]], so the box's W is power + 1.
        p = tmp_path / "edge.split"
        for power, applicable in ((TORUS_MAX_WORK - 1, "true"), (TORUS_MAX_WORK, "false")):
            p.write_text(TRIVIAL_DOCUMENT.replace("n = 2", "n = 1")
                         .replace("l_map = g1", f"l_map = g1^{power}"))
            code, out, _ = run(capsys, "oracle", str(p), "--format", "machine")
            assert code == 0
            assert machine_dict(out)["torus_applicable"] == applicable

    def test_torus_box_bounds_time(self, capsys, tmp_path):
        # A 9x9 acting matrix with |det| = 4 but W near 5.8e9: refused at
        # once, where counting its preimages would take seconds.
        p = tmp_path / "dense9.split"
        p.write_text(DENSE9_DOCUMENT)
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", str(p), "--format", "machine")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""
        kv = machine_dict(out)
        assert kv["abs_value"] == "4"
        assert kv["torus_applicable"] == "false" and "torus_counts" not in kv
        assert kv["agree"] == "true"

    def test_coker_box_by_dimension(self, capsys, tmp_path):
        # A 4x4 glue matrix with entries in [-1, 1]: refused for its size
        # alone, while the torus oracle still runs.
        p = tmp_path / "square4.split"
        p.write_text("n = 1\ngroup = U\nh1 = 4\nh2 = 4\nu = 4\ng1 = 4\n"
                     "k_map = g1 ; g2 ; g3 ; g4\n"
                     "l_map = g1 g2 ; g2 ; g3 g4^-1 ; g4\n")
        glue = glue_matrix(parse_splitting_document(p.read_text())[0])
        assert glue.rows == glue.cols == 4 > COKER_MAX_DIM
        assert max(abs(x) for row in glue.data for x in row) <= COKER_MAX_ENTRY
        code, out, err = run(capsys, "oracle", str(p), "--format", "machine")
        assert code == 0 and err == ""
        kv = machine_dict(out)
        assert kv["torus_applicable"] == "true" and kv["torus_agree"] == "true"
        assert kv["coker_applicable"] == "false" and "coker_expected" not in kv
        assert kv["agree"] == "true"

    @pytest.mark.parametrize("command", ["validate", "invariant", "degree", "oracle",
                                         "stabilize", "homology"])
    def test_rank_box_exit_1(self, capsys, tmp_path, command):
        nines = "9" * 4300
        p = tmp_path / "ranks.split"
        p.write_text(f"n = 1\ngroup = U\nh1 = {nines}\nh2 = {nines}\nu = 1\ng1 = 0\n"
                     "k_map = g1\nl_map = g1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(p))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: field 'h1'") and "Traceback" not in err


def banded_document(u, n, width=2):
    """A U(n) document whose glue matrix is banded, 5 on the diagonal and 1
    on the other band entries: strictly diagonally dominant, so |det| > 0."""
    k_words, l_words = [], []
    for i in range(1, u + 1):
        band = range(max(1, i - width), min(u, i + width) + 1)
        k_words.append(" ".join(
            ["g1"] + [f"g{c + 1}^{5 if c == i else 1}" for c in band if c < u]))
        l_words.append(f"g1^{-5 if i == u else -1}" if u in band else "")
    return (f"n = {n}\ngroup = U\nh1 = {u}\nh2 = 1\nu = {u}\ng1 = 1\n"
            f"k_map = {' ; '.join(k_words)}\nl_map = {' ; '.join(l_words)}\n")


class TestP2ScalingWall:
    """P2's frontier bound admits sparse documents far past the worst-case
    box rank^2 * u * 2^u, and all three pipelines agree on them."""

    def _invariant(self, capsys, path):
        start = time.perf_counter()
        code, out, err = run(capsys, "invariant", str(path), "--format", "machine")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""
        kv = machine_dict(out)
        assert kv["agree"] == "true"
        assert kv["pipeline_det"] == kv["pipeline_ext"] == kv["pipeline_K"] == kv["abs_value"]
        return kv

    def test_det6_stabilized_to_u62_u3(self, capsys, tmp_path):
        s = det6_splitting()
        for _ in range(60):
            s = stabilize(s)
        assert s.u == 62
        p = tmp_path / "stable.split"
        p.write_text(format_splitting_document(s, unitary(3)))
        assert self._invariant(capsys, p)["abs_value"] == "216"

    def test_banded_u100_u2(self, capsys, tmp_path):
        p = tmp_path / "banded.split"
        p.write_text(banded_document(100, 2))
        s, _ = parse_splitting_document(p.read_text())
        glue_det = intlinalg.det(glue_matrix(s))
        assert glue_det != 0
        assert self._invariant(capsys, p)["abs_value"] == str(glue_det ** 2)


class TestStabilizeCommand:
    def test_roundtrip(self, capsys, det6_path, tmp_path, monkeypatch):
        code, out, _ = run(capsys, "stabilize", det6_path)
        assert code == 0
        assert "h1 = 3" in out and "u = 3" in out
        # the stabilized document computes the same invariant
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "invariant", "-", "--format", "machine")
        assert code == 0
        assert machine_dict(out2)["abs_value"] == "36"

    def test_refuses_past_the_document_box(self, capsys, tmp_path):
        # The det6 document stabilized to u = 999 and to u = 1,000, the
        # document box's edge.  One more handle there would give h1 = 1001,
        # which no command reads back, so nothing is written.
        p = tmp_path / "stable.split"
        for u, expected in ((999, 0), (1000, 1)):
            p.write_text(det6_document(2, u, u))
            code, out, err = run(capsys, "stabilize", str(p))
            assert code == expected
            if expected:
                assert out == ""
                assert err == "error: field 'h1' is past the rank limit 1000\n"
            else:
                assert err == "" and "u = 1000" in out
                p.write_text(out)  # the written document reads back
                assert run(capsys, "validate", str(p))[0] == 0


class TestOracleCommand:
    def test_u1_document(self, capsys, tmp_path):
        p = tmp_path / "u1.split"
        p.write_text(DET6_DOCUMENT.replace("n = 2", "n = 1"))
        code, out, _ = run(capsys, "oracle", str(p), "--format", "machine", "--seed", "5")
        assert code == 0
        kv = machine_dict(out)
        assert kv["torus_applicable"] == "true"
        assert kv["torus_counts"] == "6,6,6"
        assert kv["coker_agree"] == "true"
        assert kv["agree"] == "true"

    def test_one_solve_per_check(self, capsys, tmp_path, monkeypatch):
        # The three torus targets share one determinant and adjugate.
        solves = []

        def counting(a):
            solves.append(a)
            return solve(a)

        solve = oracle._det_and_adjugate
        monkeypatch.setattr(oracle, "_det_and_adjugate", counting)
        p = tmp_path / "u1.split"
        p.write_text(DET6_DOCUMENT.replace("n = 2", "n = 1"))
        code, out, _ = run(capsys, "oracle", str(p), "--format", "machine")
        assert code == 0
        assert len(solves) == 1
        assert machine_dict(out)["torus_counts"] == "6,6,6"

    def test_seed_determinism(self, capsys, tmp_path):
        p = tmp_path / "u1.split"
        p.write_text(DET6_DOCUMENT.replace("n = 2", "n = 1"))
        _, out1, _ = run(capsys, "oracle", str(p), "--format", "machine", "--seed", "7")
        _, out2, _ = run(capsys, "oracle", str(p), "--format", "machine", "--seed", "7")
        assert out1 == out2

    @pytest.mark.parametrize("seed", [10 ** 18, -10 ** 9], ids=["1e18", "-1e9"])
    def test_extreme_seed(self, capsys, tmp_path, seed):
        p = tmp_path / "u1.split"
        p.write_text(DET6_DOCUMENT.replace("n = 2", "n = 1"))
        start = time.perf_counter()
        code, out, _ = run(capsys, "oracle", str(p), "--format", "machine", f"--seed={seed}")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert machine_dict(out)["torus_counts"] == "6,6,6"

    def test_slowest_torus_shape(self, capsys, tmp_path):
        # The dense 6x6 acting matrix (W = 472,392) is the slowest torus
        # shape the box admits; its 6x6 glue matrix is past the cokernel box.
        p = tmp_path / "dense6.split"
        p.write_text(DENSE6_DOCUMENT)
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", str(p), "--format", "machine")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and err == ""
        kv = machine_dict(out)
        assert kv["torus_counts"] == "375,375,375"
        assert kv["coker_applicable"] == "false"
        assert kv["agree"] == "true"

    def test_n2_skips_torus(self, capsys, det6_path):
        code, out, _ = run(capsys, "oracle", det6_path, "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["torus_applicable"] == "false"
        assert kv["coker_applicable"] == "true"
        assert kv["agree"] == "true"

    def test_singular_document(self, capsys, tmp_path):
        # glue matrix [[1, 2], [0, 0]]: det 0, so K and the cokernel are INFINITE
        p = tmp_path / "singular.split"
        p.write_text(DET6_DOCUMENT.replace("k_map = g2^2 ; g1", "k_map = g1 ; g1^2"))
        code, out, _ = run(capsys, "oracle", str(p), "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["torus_applicable"] == "false"
        assert kv["coker_expected"] == "INFINITE"
        assert kv["coker_enumerated"] == "INFINITE"
        assert kv["coker_agree"] == "true"
        assert kv["agree"] == "true"

    def test_coker_expected_is_invariant_k(self, capsys, det6_path, monkeypatch):
        # the cokernel oracle checks P3's K, not a Smith normal form of its own
        calls = []
        snf = intlinalg.smith_normal_form
        monkeypatch.setattr(intlinalg, "smith_normal_form",
                            lambda *a, **k: calls.append(1) or snf(*a, **k))
        code, out, _ = run(capsys, "oracle", det6_path, "--format", "machine")
        assert code == 0
        assert calls == []
        _, inv_out, _ = run(capsys, "invariant", det6_path, "--format", "machine")
        assert machine_dict(out)["coker_expected"] == machine_dict(inv_out)["K"] == "6"


class TestPolyCommand:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "poly", "--g", "4", "--h", "2",
                           "--group", "U", "--n", "2", "--format", "machine")
        assert code == 0
        kv = machine_dict(out)
        assert kv["magnitude"] == "4"
        assert kv["note"] == "(2!)^2"

    def test_su_case(self, capsys):
        code, out, _ = run(capsys, "poly", "--g", "5", "--h", "2",
                           "--group", "SU", "--n", "2", "--format", "machine")
        assert code == 0
        assert machine_dict(out)["magnitude"] == "6"

    def test_number_converted_once(self, capsys, monkeypatch):
        # U(2) at g - h = 3 has value -(3!)^2.
        calls = []
        monkeypatch.setattr(cli, "format_int",
                            lambda x: calls.append(x) or intlinalg.format_int(x))
        code, out, _ = run(capsys, "poly", "--g", "5", "--h", "2",
                           "--group", "U", "--n", "2", "--format", "machine")
        assert code == 0 and calls == [-36]
        kv = machine_dict(out)
        assert (kv["value"], kv["magnitude"]) == ("-36", "36")

    def test_bad_genus_exit_1(self, capsys):
        code, _, _ = run(capsys, "poly", "--g", "2", "--h", "2",
                         "--group", "U", "--n", "2")
        assert code == 1


class TestMultiindexCommand:
    def test_degree(self, capsys):
        code, out, _ = run(capsys, "multiindex", "--I", "1:2", "--J", "2:1",
                           "--format", "machine")
        assert code == 0
        assert machine_dict(out)["T"] == "10"

    def test_su_admissibility(self, capsys):
        code, out, _ = run(capsys, "multiindex", "--I", "1:1", "--group", "SU",
                           "--format", "machine")
        assert code == 0
        assert machine_dict(out)["su_admissible"] == "false"

    def test_malformed_exit_1(self, capsys):
        code, _, _ = run(capsys, "multiindex", "--I", "0:1")
        assert code == 1

    @pytest.mark.parametrize("pairs", ["x", "1:y"])
    def test_unparsable_pairs_exit_1(self, capsys, pairs):
        code, out, err = run(capsys, "multiindex", "--I", pairs)
        assert code == 1 and out == ""
        assert err.startswith("error: I:")


class TestFlagIntegers:
    """Numbers on the command line take the documents' integer syntax, an
    optional '-' and ASCII digits; int() would read the other spellings."""

    REFUSED = ["+2", "1_0", " 2", "2 ", "\u0661", "2.0", ""]

    @pytest.mark.parametrize("spelling", REFUSED)
    @pytest.mark.parametrize("flag", ["--g", "--h", "--n"])
    def test_poly_flags_exit_1(self, capsys, flag, spelling):
        values = {"--g": "4", "--h": "2", "--n": "1", flag: spelling}
        argv = [x for item in values.items() for x in item]
        code, out, err = run(capsys, "poly", "--group", "U", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument {flag}: invalid integer {spelling!r}\n")

    @pytest.mark.parametrize("spelling", REFUSED)
    def test_seed_exit_1(self, capsys, det6_path, spelling):
        code, out, err = run(capsys, "oracle", det6_path, "--seed", spelling)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument --seed: invalid integer {spelling!r}\n")

    @pytest.mark.parametrize("pairs, bad", [
        ("1_0:1", "1_0"), ("1:+1", "+1"), ("\u0661:1", "\u0661"),
        (" 1:1", " 1"), ("1: 1", " 1"), ("1:2, 3:1", " 3"),
    ])
    @pytest.mark.parametrize("flag", ["--I", "--J"])
    def test_pairs_exit_1(self, capsys, flag, pairs, bad):
        code, out, err = run(capsys, "multiindex", flag, pairs, "--format", "machine")
        assert (code, out) == (1, "")
        assert err == f"error: {flag[2:]}: invalid integer {bad!r}\n"

    def test_syntax_accepted(self, capsys, det6_path):
        code, out, _ = run(capsys, "poly", "--g", "04", "--h", "02", "--group", "U",
                           "--n", "2", "--format", "machine")
        assert code == 0 and machine_dict(out)["g"] == "4"
        code, out, _ = run(capsys, "multiindex", "--I", "01:2,3:1", "--J", "2:1",
                           "--format", "machine")
        assert code == 0
        assert out == run(capsys, "multiindex", "--I", "1:2,3:1", "--J", "2:1",
                          "--format", "machine")[1]
        seeded = run(capsys, "oracle", det6_path, "--seed", "-7", "--format", "machine")
        assert seeded[0] == 0


class TestOverlongNumbers:
    """A number past CPython's str-to-int digit limit is refused in one
    wording, on a flag, in a pair list, in a document field and in a word,
    and never with the interpreter's own advice."""

    ONES = "1" * 5000
    WORDING = "number of 5000 digits is too long to read; the limit is 4300 digits"

    def check(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert self.WORDING in err and "set_int_max_str_digits" not in err
        return err

    def test_flag(self, capsys):
        err = self.check(capsys, "poly", "--g", self.ONES, "--h", "2", "--group", "U", "--n", "1")
        assert err.startswith(f"error: argument --g: {self.WORDING}\n")

    def test_pairs(self, capsys):
        err = self.check(capsys, "multiindex", "--I", f"{self.ONES}:1")
        assert err == f"error: I: {self.WORDING}\n"

    def test_document_field(self, capsys, tmp_path):
        p = tmp_path / "long.split"
        p.write_text(TRIVIAL_DOCUMENT.replace("n = 2", f"n = {self.ONES}"))
        assert self.check(capsys, "validate", str(p)) == f"error: field 'n': {self.WORDING}\n"

    def test_word_exponent(self, capsys, tmp_path):
        p = tmp_path / "long.split"
        p.write_text(DET6_DOCUMENT.replace("k_map = g2^2 ; g1", f"k_map = g2^{self.ONES} ; g1"))
        assert self.check(capsys, "validate", str(p)) == f"error: k_map: {self.WORDING}\n"


class TestUsageErrors:
    """A command line argparse refuses returns the input-error status 1,
    distinct from the wrong-codimension status 2, without raising."""

    @pytest.mark.parametrize("argv", [
        ("poly", "--g", "x", "--h", "2", "--group", "U", "--n", "1"),
        ("poly", "--g", "4", "--h", "2", "--group", "U"),
        ("multiindex", "--group", "O"),
        ("invariant",),
        ("invariant", "doc.split", "--frobnicate"),
        ("bogus",),
        (),
    ])
    def test_usage_error_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "usage: repcount" in err
        assert "Traceback" not in err

    def test_distinct_from_wrong_codimension(self, capsys, tmp_path):
        doc = tmp_path / "t2.split"
        doc.write_text(TRIVIAL_DOCUMENT.replace("h1 = 1", "h1 = 2").replace("g1 = 1", "g1 = 0"))
        assert run(capsys, "invariant", str(doc))[0] == 2
        assert run(capsys, "invariant", str(doc), "--no-such-flag")[0] == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--help"])
        assert exc.value.code == 0
        assert "usage: repcount poly" in capsys.readouterr().out


class TestSharedParser:
    """One parser serves every ``main`` call in a process; no call leaves
    state in it that changes a later one."""

    def test_built_once(self, capsys, det6_path, monkeypatch):
        run(capsys, "invariant", det6_path)  # the parser exists from here on
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        for argv in (("homology", det6_path), ("bogus",), ("multiindex", "--I", "0:1"),
                     ("invariant", det6_path)):
            run(capsys, *argv)
        assert built == []

    def test_same_argv_same_result(self, capsys, det6_path):
        for argv in (("oracle", det6_path, "--format", "machine", "--seed", "5"),
                     ("poly", "--g", "x", "--h", "2", "--group", "U", "--n", "1")):
            assert run(capsys, *argv) == run(capsys, *argv)

    def test_usage_error_then_good_call(self, capsys, det6_path):
        code, out, err = run(capsys, "invariant", det6_path, "--frobnicate")
        assert code == 1 and out == "" and err.startswith("error: ")
        code, out, err = run(capsys, "invariant", det6_path, "--format", "machine")
        assert code == 0 and err == ""
        assert machine_dict(out)["abs_value"] == "36"

    def test_help_twice_exits_0(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert "usage: repcount" in capsys.readouterr().out
