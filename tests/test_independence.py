"""The pipelines and the oracles stay independent of one another.

P1 (the determinant power), P2 (the exterior degree) and P3 (the
cohomology order power) are checked against each other, and the oracles
against all three, so none may borrow another's elimination.  These
tests read ``src/repcount/*.py`` with ``ast`` and follow the call graph
without running it.  The graph over-approximates: a name or attribute
links a function to every function of the package it may denote (an
attribute ``x.m`` to every method named ``m``, a class to all of its
methods), so a path that exists at run time is never missed.  A relative
import inside a function binds its names for that function's body.
"""

import ast
from pathlib import Path

import repcount

SRC = Path(repcount.__file__).parent

# intlinalg's eliminations: P1's Bareiss determinant, P3's echelon (its
# packed loop included), and the Smith normal form behind cokernel_order.
DET = {"intlinalg.det"}
ECHELON = {"intlinalg.echelon", "intlinalg._echelon_packed"}
SNF = {"intlinalg.smith_normal_form", "intlinalg.cokernel_order"}


def relative_imports(nodes) -> dict[str, str]:
    """The names that the ``from .module import name`` statements among
    ``nodes`` bind, each to the package name it denotes."""
    scope = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                name = alias.asname or alias.name
                scope[name] = f"{node.module}.{alias.name}" if node.module else alias.name
    return scope


class CallGraph:
    """Functions of the package as ``module.name`` or ``module.Class.name``,
    each with the package names its body refers to."""

    def __init__(self):
        trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
                 for path in sorted(SRC.glob("*.py"))}
        self.functions: dict[str, ast.AST] = {}
        self.scopes: dict[str, dict[str, str]] = {}
        by_method: dict[str, set[str]] = {}
        classes: dict[str, list[str]] = {}
        for module, tree in trees.items():
            scope = self.scopes[module] = relative_imports(tree.body)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    scope[node.name] = qualified = f"{module}.{node.name}"
                    self.functions[qualified] = node
                    if isinstance(node, ast.ClassDef):
                        classes[qualified] = []
                        for item in node.body:
                            if isinstance(item, ast.FunctionDef):
                                method = f"{qualified}.{item.name}"
                                self.functions[method] = item
                                classes[qualified].append(method)
                                by_method.setdefault(item.name, set()).add(method)
        self.edges: dict[str, set[str]] = {name: set(methods) for name, methods in classes.items()}
        for name, node in self.functions.items():
            if name in classes:
                continue
            scope = {**self.scopes[name.split(".", 1)[0]], **relative_imports(ast.walk(node))}
            out = self.edges.setdefault(name, set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in scope:
                    out.add(scope[sub.id])
                elif isinstance(sub, ast.Attribute):
                    out |= by_method.get(sub.attr, set())
                    if isinstance(sub.value, ast.Name) and sub.value.id in scope:
                        out.add(f"{scope[sub.value.id]}.{sub.attr}")

    def reach(self, roots) -> set[str]:
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(self.edges.get(name, ()))
        return seen

    def statement_names(self, function: str, target: str) -> set[str]:
        """What the assignment to ``target`` in ``function`` refers to."""
        module = function.split(".", 1)[0]
        (statement,) = [node for node in ast.walk(self.functions[function])
                        if isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == target for t in node.targets)]
        return {self.scopes[module][sub.id] for sub in ast.walk(statement.value)
                if isinstance(sub, ast.Name) and sub.id in self.scopes[module]}


GRAPH = CallGraph()


def test_graph_sees_the_pipelines():
    # Guards the checks below against a graph that reaches nothing.
    reached = GRAPH.reach(["invariants.lambda_invariants"])
    assert DET | ECHELON <= reached
    assert {"exterior.degree_of_word_map", "exterior._wedge_row",
            "splitting._mayer_vietoris_rows"} <= reached
    assert {"oracle.torus_preimage_count", "oracle.cokernel_enumeration",
            "oracle._count_offsets"} <= GRAPH.reach(["cli.cmd_oracle"])


def test_oracle_reaches_no_pipeline():
    roots = [name for name in GRAPH.functions if name.startswith("oracle.")]
    reached = GRAPH.reach(roots)
    assert not reached & (DET | ECHELON | SNF)
    assert not [name for name in reached if name.startswith("exterior.")]
    # Importing one is a dependency too, even before a call.
    imported = set(GRAPH.scopes["oracle"].values())
    assert not imported & (DET | ECHELON | SNF)
    assert not [name for name in imported if name.split(".")[0] == "exterior"]


def test_p2_reaches_no_elimination_and_no_mayer_vietoris_rows():
    reached = GRAPH.reach(["exterior.degree_of_word_map"])
    assert "exterior._wedge_row" in reached
    assert not reached & (DET | ECHELON | SNF | {"splitting._mayer_vietoris_rows"})


def test_p1_route_calls_no_echelon():
    roots = GRAPH.statement_names("invariants.lambda_invariants", "glue_det")
    reached = GRAPH.reach(roots | {"splitting._mayer_vietoris_rows"})
    assert DET <= reached
    assert not reached & (ECHELON | SNF)


def test_p3_route_calls_no_det():
    roots = GRAPH.statement_names("invariants.lambda_invariants", "pair")
    reached = GRAPH.reach(roots | {"splitting.pair_cohomology"})
    assert ECHELON <= reached
    assert not reached & (DET | SNF)
