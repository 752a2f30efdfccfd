"""Every name defined in src/dhtfed is used by the program itself.

A function, method, class or module constant that only tests call is not
part of the simulator; it goes, or moves into tests/. References are read
with `ast` from src/dhtfed and perfbench: a name, an attribute, or a string
that is exactly the name (perfbench patches functions by attribute name).
Imports are not references, so a re-export in `__init__.py` keeps nothing
alive, and neither does a use inside the name's own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "dhtfed").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Names kept for tests to use as references or audits, with the reason.
TEST_ONLY = {
    "forward_batch": "the one-head softmax that forward_heads and the vote are checked against",
    "pfl_grad": "the one-leaf gradient that stacked fine-tuning is checked against",
    "trace_hash": "the digest that pins the simulator's event trace",
    "audit_decentralized_privacy": "the audit that tests run on gossip rounds' message logs",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """(name, file, first line, last line) of every module-level function,
    class and constant, and every method, in src/dhtfed."""
    out = []
    for path in SRC:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    found += [(sub.name, sub) for sub in node.body
                              if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.Assign):
                found = [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found = [(node.target.id, node)]
            else:
                continue
            out += [(name, path.name, d.lineno, d.end_lineno)
                    for name, d in found if not _is_dunder(name)]
    return out


def references():
    """name -> [(file, line)] of every use in src/dhtfed and perfbench."""
    refs = {}
    for path in SRC + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path.name, node.lineno))
    return refs


def unreferenced():
    refs = references()
    return sorted({name for name, path, first, last in definitions()
                   if not any(f != path or not first <= line <= last
                              for f, line in refs.get(name, []))})


def test_every_src_name_is_used_by_the_program():
    unused = set(unreferenced()) - set(TEST_ONLY)
    assert not unused, f"defined in src/dhtfed, used only by tests or nowhere: {sorted(unused)}"


def test_the_test_only_allowlist_is_exact():
    # A listed name that the program has come to use, or that is gone,
    # leaves the list.
    assert sorted(TEST_ONLY) == [n for n in unreferenced() if n in TEST_ONLY]
