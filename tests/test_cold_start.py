"""What importing repcount loads.

Only the ``oracle`` command calls an oracle, so ``repcount.oracle`` and
``fractions`` load on first use, and no module of the package imports
``typing`` at run time.  Each check starts a fresh ``python -S``
interpreter, with nothing but the standard library and ``src/`` on its
path, so no other import can have loaded them first.
"""

import json
import subprocess
import sys
from pathlib import Path

import repcount
from support import DET6_DOCUMENT

SRC = str(Path(repcount.__file__).parents[1])
LAZY = ("repcount.oracle", "fractions", "typing")


def run_fresh(code: str):
    """The JSON that ``code``, run in a fresh interpreter, prints last."""
    prelude = f"import json, sys\nsys.path.insert(0, {SRC!r})\n"
    done = subprocess.run([sys.executable, "-S", "-c", prelude + code],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_no_oracle_fractions_or_typing():
    loaded = run_fresh(f"import repcount.cli\nprint(json.dumps([m for m in {LAZY!r} "
                       "if m in sys.modules]))")
    assert loaded == []


def test_package_import_loads_the_oracle_on_first_use():
    result = run_fresh(f"""
import repcount
before = [m for m in {LAZY!r} if m in sys.modules]
names = dir(repcount)
value = repcount.cokernel_enumeration(repcount.IntMat([[2, 0], [0, 3]]))
print(json.dumps([before, 'repcount.oracle' in sys.modules, value, names == dir(repcount),
                  [n for n in ('oracle', 'cokernel_enumeration', 'numeric_degree_u1',
                               'torus_preimage_count') if n not in names]]))
""")
    before, loaded, value, same_dir, missing = result
    assert before == []
    assert loaded and value == 6
    assert same_dir and missing == []


def test_lazy_names_are_the_oracle_functions():
    from repcount import oracle
    assert repcount.oracle is oracle
    for name in ("cokernel_enumeration", "numeric_degree_u1", "torus_preimage_count"):
        assert getattr(repcount, name) is getattr(oracle, name)
    assert not hasattr(repcount, "no_such_name")


def test_invariant_command_loads_no_oracle(tmp_path):
    doc = tmp_path / "det6.split"
    doc.write_text(DET6_DOCUMENT, encoding="utf-8")
    result = run_fresh(f"""
import contextlib, io
from repcount import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = cli.main(["invariant", {str(doc)!r}, "--format", "machine"])
invariant = [status, out.getvalue(), [m for m in {LAZY!r} if m in sys.modules]]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = cli.main(["oracle", {str(doc)!r}, "--format", "machine"])
print(json.dumps([invariant, [status, out.getvalue()], 'repcount.oracle' in sys.modules]))
""")
    (status, out, loaded), (oracle_status, oracle_out), oracle_loaded = result
    assert status == 0 and "abs_value=" in out and loaded == []
    assert oracle_status == 0 and "agree=true" in oracle_out.splitlines() and oracle_loaded
