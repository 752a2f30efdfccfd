"""Every name defined in src/dhtfed is used by the program itself.

A function, method, class or module constant that only tests call is not
part of the simulator; it goes, or moves into tests/. References are read
with `ast` from src/dhtfed and perfbench: a name, an attribute, or a string
that is exactly the name (perfbench patches functions by attribute name).
A method or property is only reached through an attribute (or patched by
its name), so a local variable of the same name does not count for it.
Imports are not references, so a re-export in `__init__.py` keeps nothing
alive, and neither does a use inside the name's own definition.

The same holds for state: every field a class in src/dhtfed declares or
stores on `self` is read, as an attribute, by src/dhtfed or perfbench. A
store, `+=` included, is not a read. And every module of src/dhtfed uses
what it imports.

And for options: every parameter with a default, of a module-level
function or a method in src/dhtfed, is passed by some call in src/dhtfed or
perfbench, by keyword or by position; a default that no call overrides is
a constant. Calls are matched by the called name, and a class's `__init__`
is called by the class's name or, in its own methods, by `cls`. The
parameters of nested functions are left out: their defaults bind values of
the enclosing scope.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "dhtfed").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Names kept for tests to use as references or audits, with the reason.
TEST_ONLY = {
    "forward_batch": "the one-head softmax that forward_heads and the vote are checked against",
    "pfl_grad": "the one-leaf gradient that stacked fine-tuning is checked against",
    "trace_hash": "the digest that pins the simulator's event trace",
    "pending": "the queue length that tests read to see a run drain the queue or stop at its cut-off",
}

# Fields stored by src/dhtfed and read only by tests, with the reason.
TEST_READ_FIELDS = {
    "Simulator.sent": "message total that tests check against deliveries and drops",
    "Simulator.delivered": "message total that tests check against sends and drops",
    "Simulator.dropped": "message total that tests read to see messages to dead nodes dropped",
    "MulticastResult.forwards": "forward total that tests check is one send per tree edge",
    "TreeStats.depth_histogram": "tree shape that tests compare with known and recounted depth counts",
    "RouteResult.key": "the looked-up key, part of the route results that tests compare between runs",
    "MessageRecord.src": "the sender, which tests check link for link against the reference round's log",
}

# Defaulted parameters that no call in src/dhtfed or perfbench passes, with
# the reason.
UNPASSED_DEFAULTS = {
    "Overlay.build(leaf_side)": "overlay tests build narrow leaf sets to reach the repair and "
                                "routing corner cases of small rings",
    "ModelParams.zeros(n_labels)": "the reference fine-tuning in tests/oracles.py builds its zero "
                                   "delta in the start head's shape",
    "pfl_loss(penalty)": "the one-leaf loss that tests check the stacked round loss against, "
                         "under both penalties",
    "pfl_grad(penalty)": "the one-leaf gradient that tests check stacked fine-tuning against, "
                         "under both penalties",
    "main(argv)": "the console script reads sys.argv; tests pass their own argument lists",
    "Simulator.__init__(keep_trace)": "the event trace that tests pin with trace_hash",
}

# Imports kept though their module does not use them, with the reason.
UNUSED_IMPORTS = {
    ("fedagg.py", "pfl_loss"): "perfbench attaches its model.loss span to fedagg.pfl_loss",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """(name, file, first line, last line, is a method) of every
    module-level function, class and constant, and every method, in
    src/dhtfed."""
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
            out += [(name, path.name, d.lineno, d.end_lineno, d is not node)
                    for name, d in found if not _is_dunder(name)]
    return out


def references(attributes_only=False):
    """name -> [(file, line)] of every use in src/dhtfed and perfbench; with
    `attributes_only`, of its uses as an attribute or a string."""
    refs = {}
    for path in SRC + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not attributes_only:
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
    refs, attr_refs = references(), references(attributes_only=True)
    return sorted({name for name, path, first, last, method in definitions()
                   if not any(f != path or not first <= line <= last
                              for f, line in (attr_refs if method else refs).get(name, []))})


def stored_fields():
    """"Class.field" of every dataclass field and every attribute stored on
    `self` by a method, in src/dhtfed."""
    out = set()
    for path in SRC:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    out.add(f"{cls.name}.{node.target.id}")
                if isinstance(node, ast.FunctionDef):
                    out.update(f"{cls.name}.{sub.attr}" for sub in ast.walk(node)
                               if isinstance(sub, ast.Attribute)
                               and isinstance(sub.ctx, ast.Store)
                               and isinstance(sub.value, ast.Name) and sub.value.id == "self")
    return out


def attribute_reads():
    """Every attribute name read (loaded) in src/dhtfed and perfbench."""
    return {node.attr for path in SRC + PERFBENCH
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields():
    reads = attribute_reads()
    return sorted(f for f in stored_fields() if f.split(".")[1] not in reads)


def unused_imports():
    """(file, name) of every name a src/dhtfed module imports and never
    uses. `__init__.py` imports are the package's exports."""
    out = []
    for path in SRC:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [(path.name, name) for alias in node.names
                        if (name := (alias.asname or alias.name).split(".")[0]) not in used]
    return out


def defaulted_parameters():
    """("qualified name(parameter)", called name, parameter, its position or
    None if keyword-only, file, first line, last line) of every parameter
    with a default of a module-level function or method in src/dhtfed. A
    method's positions skip self or cls."""
    out = []
    for path in SRC:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                funcs = [(None, node)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(node.name, sub) for sub in node.body if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            for cls, fn in funcs:
                args = fn.args
                positional = args.posonlyargs + args.args
                if cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                               for d in fn.decorator_list):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
                params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None]
                qual = fn.name if cls is None else f"{cls}.{fn.name}"
                called = cls if fn.name == "__init__" else fn.name
                out += [(f"{qual}({name})", called, name, pos, path.name, fn.lineno,
                         fn.end_lineno) for name, pos in params]
    return out


def calls():
    """called name -> [(file, line, positional count, keyword names)] of
    every call in src/dhtfed and perfbench. A `*args` counts as any number
    of positionals, and a `**kwargs` as the keyword None; `cls(...)` inside
    a class is a call of that class."""
    out = {}
    for path in SRC + PERFBENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(call): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for call in ast.walk(cls) if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Name) and call.func.id == "cls"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = owner.get(id(node), node.func.id)
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            out.setdefault(name, []).append((path.name, node.lineno, n_pos,
                                             {k.arg for k in node.keywords}))
    return out


def unpassed_defaults():
    """The defaulted parameters that no call, outside the function's own
    definition, passes."""
    found = calls()
    return sorted(qual for qual, called, name, pos, path, first, last in defaulted_parameters()
                  if not any((name in keywords or None in keywords
                              or (pos is not None and n_pos > pos))
                             and (f != path or not first <= line <= last)
                             for f, line, n_pos, keywords in found.get(called, [])))


def test_every_src_name_is_used_by_the_program():
    unused = set(unreferenced()) - set(TEST_ONLY)
    assert not unused, f"defined in src/dhtfed, used only by tests or nowhere: {sorted(unused)}"


def test_the_test_only_allowlist_is_exact():
    # A listed name that the program has come to use, or that is gone,
    # leaves the list.
    assert sorted(TEST_ONLY) == [n for n in unreferenced() if n in TEST_ONLY]


def test_every_stored_field_is_read_by_the_program():
    unread = set(unread_fields()) - set(TEST_READ_FIELDS)
    assert not unread, f"stored in src/dhtfed, read only by tests or nowhere: {sorted(unread)}"


def test_the_test_read_field_allowlist_is_exact():
    assert sorted(TEST_READ_FIELDS) == [f for f in unread_fields() if f in TEST_READ_FIELDS]


def test_every_import_is_used():
    assert sorted(set(unused_imports()) - set(UNUSED_IMPORTS)) == []
    assert sorted(UNUSED_IMPORTS) == sorted(i for i in unused_imports() if i in UNUSED_IMPORTS)


def test_every_defaulted_parameter_is_passed_by_the_program():
    unpassed = set(unpassed_defaults()) - set(UNPASSED_DEFAULTS)
    assert not unpassed, f"defaulted, never passed by src/dhtfed or perfbench: {sorted(unpassed)}"


def test_the_unpassed_default_allowlist_is_exact():
    assert sorted(UNPASSED_DEFAULTS) == [p for p in unpassed_defaults() if p in UNPASSED_DEFAULTS]
