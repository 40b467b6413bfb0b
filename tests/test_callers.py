"""Every public library function or class has a caller inside the package.

A top-level public name in ``src/mvsde`` that no other package code reaches
is dead code that only its own tests keep alive.  A name referenced only by
such dead code is dead too, so the check repeats until nothing new is found.
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


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def dead_names(src: Path = SRC) -> list:
    """Public top-level defs of ``src`` that no live package code references."""
    defs, roots = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = (node.name, _names(node) - {node.name})
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    dead = set()
    while True:
        live = roots.union(*(refs for key, (_, refs) in defs.items() if key not in dead))
        new = {key for key, (name, _) in defs.items()
               if key not in dead and not name.startswith("_")
               and name not in live and name not in ALLOWED}
        if not new:
            return sorted(dead)
        dead |= new


def test_every_public_library_name_has_a_caller():
    assert dead_names() == []
