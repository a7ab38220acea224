"""Every public function and method of stochnls has a caller, and no check
is an assert.

A function named in a module's ``__all__``, or a public method of a class
named there, must be referenced in the package or in the benchmark harness
somewhere other than its own body and its ``__all__`` entry.  A reference
is a name, an attribute, a keyword or a string equal to the function's
name, as the harness looks functions up by name.  Tests do not count: a
function only tests call is dead code.
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


def _owned_nodes(node, owner):
    """(owner, node) for node and everything under it; a method's nodes are
    owned by (class, method), the rest by the enclosing top-level name."""
    yield owner, node
    for child in ast.iter_child_nodes(node):
        method = isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
        yield from _owned_nodes(child, owner + (child.name,) if method else owner)


def test_every_public_function_is_referenced():
    public, references = set(), set()  # (module, owner, name defined or referenced)
    for path in MODULES:
        module, body = path.stem, ast.parse(path.read_text()).body
        exported = {e.value for s in body if _is_all(s) for e in s.value.elts}
        for s in body:
            if isinstance(s, ast.FunctionDef) and s.name in exported:
                public.add((module, (s.name,), s.name))
            if isinstance(s, ast.ClassDef) and s.name in exported:
                public |= {(module, (s.name, f.name), f.name) for f in s.body
                           if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
        for stmt in (s for s in body if not _is_all(s)):
            for owner, node in _owned_nodes(stmt, (getattr(stmt, "name", None),)):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.arg if isinstance(node, ast.keyword)
                        else node.value if isinstance(node, ast.Constant) else None)
                if isinstance(name, str):
                    references.add((module, owner, name))
    assert len({p for p in public if len(p[1]) == 1}) > 40  # the sources were parsed
    assert len({p for p in public if len(p[1]) == 2}) > 20  # and the classes too
    dead = sorted(
        (module, ".".join(key)) for module, key, name in public
        if (module, ".".join(key)) not in EXEMPT
        and not any(ref == name and (mod, owner) != (module, key)
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
