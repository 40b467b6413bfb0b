"""Every public library function, class, method or property has a caller inside the package.

A public name in ``src/mvsde`` that no other package code reaches is dead
code that only its own tests keep alive.  A name referenced only by such
dead code is dead too, so the check repeats until nothing new is found.

A top-level name is live when live code mentions it at all.  A public
method or property is live when live code reads an attribute of its name,
on any object: the check does not know types, so one live ``.to_json`` keeps
every class's ``to_json`` alive.  A dead method that shares its name with a
live one therefore goes unreported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvsde"

# Paper objects whose only callers are the acceptance tests that verify
# them (criteria 02-05), and the CLI entry point.
ALLOWED = {
    "q_density", "q_derivatives", "comparison_kernel", "moment_integral_g1",
    "exponent_scan", "perturbation_integral_g2", "remainder_R", "main",
}


def _refs(*nodes):
    """(every Name id and attribute name, the attribute names alone) under ``nodes``."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
                attrs.add(n.attr)
    return names, attrs


def _public_methods(cls: ast.ClassDef) -> list:
    return [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not n.name.startswith("_")]


def dead_names(src: Path = SRC) -> list:
    """Public top-level defs and public methods of ``src`` that no live package code references."""
    # key -> (name, is_method, (names, attrs) referenced by the def's own body)
    defs, roots = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{path.stem}.{node.name}"] = (node.name, False, _refs(node))
            elif isinstance(node, ast.ClassDef):
                methods = _public_methods(node)
                for m in methods:
                    defs[f"{path.stem}.{node.name}.{m.name}"] = (m.name, True, _refs(m))
                rest = [n for n in node.body if n not in methods]
                defs[f"{path.stem}.{node.name}"] = (
                    node.name, False, _refs(*rest, *node.bases, *node.decorator_list))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _refs(node)[0]
    dead = set()
    while True:
        names, attrs = set(roots), set()
        for key, (name, _, (n, a)) in defs.items():
            if key not in dead:
                names |= n - {name}
                attrs |= a - {name}
        new = {key for key, (name, is_method, _) in defs.items()
               if key not in dead and not name.startswith("_") and name not in ALLOWED
               and name not in (attrs if is_method else names)}
        if not new:
            return sorted(dead)
        dead |= new


def test_every_public_library_name_has_a_caller():
    assert dead_names() == []
