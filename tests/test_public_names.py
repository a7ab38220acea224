"""Every public function of stochnls has a caller, and no check is an assert.

A function named in a module's ``__all__`` must be referenced in the
package or in the benchmark harness somewhere other than its own body and
its ``__all__`` entry.  A reference is a name, an attribute, a keyword or
a string equal to the function's name, as the harness looks functions up
by name.  Tests do not count: a function only tests call is dead code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = [*sorted((ROOT / "src" / "stochnls").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# readouts of the paper's claims and a file format's reader, kept uncalled
EXEMPT = {
    ("ensemble", "weighted_energy_average"): "reads out 'on average, energy remains bounded'",
    ("propagator", "wave_operator_estimate"): "reads out 'solutions scatter'",
    ("propagator", "duhamel_residual"): "README's Duhamel-residual check",
    ("propagator", "load_snapshot"): "the one reader of final_snapshot.bin, pinning dump_snapshot",
}


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def test_every_public_function_is_referenced():
    public, references = set(), set()  # (module, name); (module, owner, name)
    for path in MODULES:
        module, body = path.stem, ast.parse(path.read_text()).body
        exported = {e.value for s in body if _is_all(s) for e in s.value.elts}
        public |= {(module, s.name) for s in body
                   if isinstance(s, ast.FunctionDef) and s.name in exported}
        for stmt in (s for s in body if not _is_all(s)):
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.arg if isinstance(node, ast.keyword)
                        else node.value if isinstance(node, ast.Constant) else None)
                if isinstance(name, str):
                    references.add((module, owner, name))
    assert len(public) > 40  # the sources were found and parsed
    dead = sorted(
        (module, name) for module, name in public - set(EXEMPT)
        if not any(ref == name and (mod, owner) != (module, name)
                   for mod, owner, ref in references))
    assert dead == []


def test_no_assert_statements_in_the_package():
    """A check the package relies on must raise: ``python -O`` strips asserts."""
    sources = sorted((ROOT / "src" / "stochnls").glob("*.py"))
    assert len(sources) >= 10
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
