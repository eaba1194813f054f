"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rydghz"


def _unused_module_imports(tree):
    """Names bound by module-level imports that nothing in the module reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


# The package, the tests and the demos.  Package files keep their bare
# names as test ids; the others are named by folder.
_SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for folder in ("tests", "demos") for p in (PACKAGE.parent.parent / folder).glob("*.py")
)


@pytest.mark.parametrize(
    "path", _SOURCES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_no_unused_module_level_imports(path):
    unused = _unused_module_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n")
    assert _unused_module_imports(tree) == [(2, "pi")]



# ---------------------------------------------------------------------------
# Options that no caller sets

ROOT = PACKAGE.parent.parent
# Calls in these count as uses of the public API: the package, the demos,
# the benchmark, and the paper's acceptance criteria.
CALLERS = (ROOT / "src", ROOT / "demos", ROOT / "ghzperf", ROOT / "tests" / "test_acceptance.py")

# Optional parameters that only tests set, each with the reason it stays.
OPTIONS_SET_ONLY_BY_TESTS = {
    "cli.main(argv)": "tests run the command line in-process with an argument list",
    "hamiltonian.build_terms(bond_factors)":
        "asymmetric bonds break the reflection, to test the full-basis paths",
    "hamiltonian.drive_coupling(phase)":
        "the phase-phi oracle for the Bell fringe's D U(0) D^dag shortcut",
    "optimize.diabaticity_weight(s_grid)": "the N=16 Lanczos oracle points",
    "protocols.bell_distribution_protocol(phases)":
        "shows the fringe's cost does not grow with the number of phases",
    "protocols.exact_ghz_decomposition(basis)":
        "density-matrix input, which needs its basis; no caller decomposes one",
}


def _public_signatures(module, tree):
    """(label stem, callee name, {positional index: name}, keyword-only names)
    for the optional parameters of each public module-level function and
    each public method of a public class.  Method indices skip self/cls."""
    found = []

    def add(qualname, fn, bound):
        args = fn.args
        positional = args.posonlyargs + args.args
        first_optional = len(positional) - len(args.defaults)
        found.append((
            f"{module}.{qualname}", fn.name,
            {i - bound: a.arg for i, a in enumerate(positional) if i >= first_optional},
            {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None},
        ))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node.name, node, bound=0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    add(f"{node.name}.{item.name}", item, bound=int(not static))
    return found


def _calls(tree, module=None):
    """(callee name, positional sources, keyword sources) per call, matched
    by the callee's last name.  A source is None, or for a bare parameter
    of the enclosing public function of package `module`, that parameter's
    label: the call forwards it.  Starred arguments give None for the
    positional sources, ** for the keyword ones: they may set anything.
    Workload.op(label, fn, *args, **kwargs) also counts as a call of fn."""
    out = []

    def name_of(func):
        if isinstance(func, ast.Name):
            return func.id
        return func.attr if isinstance(func, ast.Attribute) else None

    def record(name, args, keywords, owner):
        def source(value):
            if owner and isinstance(value, ast.Name):
                return f"{owner}({value.id})"
            return None

        if name is not None:
            out.append((
                name,
                None if any(isinstance(a, ast.Starred) for a in args)
                else [source(a) for a in args],
                None if any(k.arg is None for k in keywords)
                else {k.arg: source(k.value) for k in keywords},
            ))

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and owner is None:
                visit(child, None, f"{child.name}.")
                continue
            inner = owner
            if isinstance(child, ast.FunctionDef) and owner is None and module:
                inner = f"{module}.{prefix}{child.name}"
            if isinstance(child, ast.Call):
                name = name_of(child.func)
                record(name, child.args, child.keywords, inner)
                if name == "op" and len(child.args) >= 2:
                    record(name_of(child.args[1]), child.args[2:], child.keywords, inner)
            visit(child, inner, prefix)

    visit(tree, None, "")
    return out


def _unset_options(definitions, calls):
    """Labels 'module.function(param)' of the optional parameters of called
    public functions that no call sets.  A forwarded argument sets a
    parameter only if its source is set in turn."""
    by_name = {}
    for name, positional, keywords in calls:
        by_name.setdefault(name, []).append((positional, keywords))
    options = {}
    for stem, name, positional, keyword in definitions:
        for index, param in [*positional.items(), *((None, p) for p in keyword)]:
            options[f"{stem}({param})"] = (name, index, param)
    called = {label for label, (name, _, _) in options.items() if name in by_name}
    is_set = set()

    def sets(source):
        return source is None or source not in options or source in is_set

    def set_by(positional, keywords, index, param):
        if positional is None or keywords is None:
            return True
        if index is not None and index < len(positional) and sets(positional[index]):
            return True
        return param in keywords and sets(keywords[param])

    grew = True
    while grew:
        grew = False
        for label, (name, index, param) in options.items():
            if label not in is_set and any(set_by(p, k, index, param)
                                           for p, k in by_name.get(name, ())):
                is_set.add(label)
                grew = True
    return sorted(called - is_set)


def _api_unset_options():
    definitions, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        definitions += _public_signatures(path.stem, ast.parse(path.read_text()))
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            module = path.stem if path.parent == PACKAGE else None
            calls += _calls(ast.parse(path.read_text(), filename=str(path)), module)
    return _unset_options(definitions, calls)


def test_every_public_option_has_a_caller():
    unset = _api_unset_options()
    unexplained = [label for label in unset if label not in OPTIONS_SET_ONLY_BY_TESTS]
    assert unexplained == [], (
        f"optional parameters that no caller in src/, demos/, ghzperf/ or "
        f"tests/test_acceptance.py sets: {unexplained}; make each a module "
        f"constant, or give it a reason in OPTIONS_SET_ONLY_BY_TESTS"
    )
    stale = sorted(set(OPTIONS_SET_ONLY_BY_TESTS) - set(unset))
    assert stale == [], f"allowlisted options that a caller sets or that are gone: {stale}"


def test_option_checker_follows_forwarding_and_op():
    package = ast.parse(
        "def scale(x, factor=2.0, offset=0.0, *, clip=None):\n"
        "    return x\n"
        "def wrapper(x, offset=0.0):\n"
        "    return scale(x, offset=offset)\n"
        "def unused(x, y=1):\n"
        "    return x\n"
        "class Box:\n"
        "    def fit(self, data, weights=None, order=1):\n"
        "        return data\n"
    )
    callers = ast.parse(
        "scale(1.0, 3.0)\n"
        "wrapper(2.0)\n"
        "w.op('label', Box().fit, [1], order=2)\n"
    )
    calls = _calls(package, "m") + _calls(callers)
    assert _unset_options(_public_signatures("m", package), calls) == [
        "m.Box.fit(weights)", "m.scale(clip)", "m.scale(offset)", "m.wrapper(offset)",
    ]
