"""Tests of the benchmark's independent checker.

Run from the repository root:  python -m pytest bench/test_checker.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DET6 = """\
n = 2
group = U
h1 = 2
h2 = 1
u = 2
g1 = 1
k_map = g2^2 ; g1
l_map = g1^-1 ; g1^-3
"""


def det6():
    spec, family, n = checker.parse_document(DET6)
    assert (family, n) == ("U", 2)
    return spec


def test_det6_glue_determinant_is_6():
    s = det6()
    assert checker.glue_rows(s) == [[2, 1], [0, 3]]
    assert checker.glue_det(s) == 6
    assert checker.rank(checker.mayer_vietoris_rows(s)) == 2


def test_det6_invariant_passes_and_corruptions_are_caught():
    s = det6()
    assert checker.check_invariant(s, 2, 36, 6, None) is None
    assert checker.check_invariant(s, 2, 37, 6, None) is not None
    assert checker.check_invariant(s, 2, 36, 5, None) is not None
    assert checker.check_invariant(s, 2, 36, None, "H2_nonzero") is not None
    assert checker.check_degree(s, 2, 36) is None
    assert checker.check_degree(s, 1, -6) is not None
    assert checker.check_homology(s, 6, 1) is None
    assert checker.check_homology(s, None, 1) is not None
    assert checker.check_homology(s, 6, 2) is not None


def test_vanishing_needs_infinite_k_and_a_reason():
    s = checker.Spec(h1=1, h2=1, u=1, g1=1, k=(((1, 1),),), l=((),))
    assert checker.glue_det(s) == 0
    assert checker.check_invariant(s, 1, 0, None, "H2_nonzero") is None
    assert checker.check_invariant(s, 1, 0, None, None) is not None
    assert checker.check_invariant(s, 1, 0, 1, "H2_nonzero") is not None


def test_document_round_trip():
    s = det6()
    again, family, n = checker.parse_document(checker.format_document(s, "U", 2))
    assert again == s and (family, n) == ("U", 2)


def test_cli_outputs():
    s = det6()
    out = ("group=U\nn=2\nT=0\nabs_value=36\nsign=UNDETERMINED\nK=6\n"
           "pipeline_det=36\npipeline_ext=36\npipeline_K=36\nagree=true\nvanishing_reason=\n")
    assert checker.check_cli_invariant(s, "U", 2, out, False) is None
    assert checker.check_cli_invariant(s, "U", 2, out.replace("=36\nsign", "=35\nsign"), False)
    assert checker.check_cli_invariant(s, "U", 2, out, True) is not None
    assert checker.check_poly(5, 2, "SU", 3, "magnitude=36\n") is None
    assert checker.check_poly(5, 2, "SU", 3, "magnitude=6\n") is not None
    assert checker.check_multiindex(((1, 2),), ((2, 1),), "T=10\n") is None
    assert checker.check_multiindex(((1, 2),), ((2, 1),), "T=8\n") is not None


@pytest.mark.parametrize("setup", [workloads.setup_corpus, workloads.setup_cli_docs])
def test_program_outputs_pass_and_a_corrupted_one_fails(setup, tmp_path):
    import repcount

    _, ops, files = setup(repcount, 7, tmp_path)
    for path, text in files.items():
        path.write_text(text)
    ops = [op for op in ops if not op.label.startswith("fault")][::40]
    for op in ops:
        assert op.check(op.run()) is None, op.label
    result = ops[0].run()
    if isinstance(result, tuple):
        status, out = result
        corrupted = (status, out.replace("abs_value=", "abs_value=1", 1)
                     .replace("valid=true", "valid=false"))
    else:
        corrupted = dataclasses.replace(result, abs_value=result.abs_value + 1)
    assert ops[0].check(corrupted) is not None


def test_fault_operations_raise(tmp_path):
    import repcount

    _, ops, files = workloads.setup_cli_docs(repcount, 1, tmp_path)
    for path, text in files.items():
        path.write_text(text)
    faults = [op for op in ops if op.label.startswith("fault")]
    assert len(faults) == 2
    for op in faults:
        with pytest.raises(ValueError):
            op.run()
