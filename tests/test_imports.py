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


def _scoped_nodes(tree, module=None):
    """(owner, node) for every node below the root of `tree`.  In package
    `module` the owner is the label 'module.function' or
    'module.Class.method' of the enclosing top-level function or method;
    elsewhere, and in module-level or class-level code, it is None."""
    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and owner is None:
                yield from visit(child, None, f"{child.name}.")
                continue
            inner = owner
            if isinstance(child, ast.FunctionDef) and owner is None and module:
                inner = f"{module}.{prefix}{child.name}"
            yield inner, child
            yield from visit(child, inner, prefix)

    yield from visit(tree, None, "")


def _calls(tree, module=None):
    """(callee name, positional sources, keyword sources) per call, matched
    by the callee's last name.  A source is None, or for a bare parameter
    of the enclosing function of package `module`, that parameter's
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

    for owner, node in _scoped_nodes(tree, module):
        if isinstance(node, ast.Call):
            name = name_of(node.func)
            record(name, node.args, node.keywords, owner)
            if name == "op" and len(node.args) >= 2:
                record(name_of(node.args[1]), node.args[2:], node.keywords, owner)
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


def _references(tree, module=None):
    """(owner, name) for each bare or attribute name a scope loads, with the
    owners of `_scoped_nodes`."""
    return [(owner, node.id if isinstance(node, ast.Name) else node.attr)
            for owner, node in _scoped_nodes(tree, module)
            if isinstance(node, (ast.Name, ast.Attribute))]


def _api_graph():
    """Public signatures of the package, and the calls and references of
    every caller."""
    definitions, calls, references = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        definitions += _public_signatures(path.stem, ast.parse(path.read_text()))
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            module = path.stem if path.parent == PACKAGE else None
            tree = ast.parse(path.read_text(), filename=str(path))
            calls += _calls(tree, module)
            references += _references(tree, module)
    return definitions, calls, references


def _api_unset_options():
    definitions, calls, _ = _api_graph()
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


# ---------------------------------------------------------------------------
# Public functions that nothing reaches

# Public functions and methods that no command, demo, benchmark workload
# or acceptance criterion reaches, each with the reason it stays.
UNREACHED_PUBLIC_FUNCTIONS = {
    "basis.staggered_magnetization":
        "pins the sign of M (+N on 0101...01) that the probe field and the (k, M) grouping use",
    "controls.constant_pulse": "square drives for the closed-form Rabi tests of the propagator",
    "fileio.TableData.column": "reads back a column of the tables the commands write",
    "fileio.TableData.metadata_value": "reads back the metadata of the tables the commands write",
    "fileio.TableData.n_rows": "reads back the length of the tables the commands write",
    "fileio.read_table": "reads back the tables the commands write",
    "fileio.write_json": "the JSON half of the atomic writers, beside read_json",
    "fileio.write_table": "the table half of the atomic writers, beside read_table",
    "hamiltonian.HamiltonianTerms.number_diagonal": "single-site occupations; tests only",
    "hamiltonian.LocalShifts.is_reflection_symmetric":
        "the shift presets' symmetry, which the tests of the presets check",
    "hamiltonian.LocalShifts.staggered": "the staggered shift pattern of the Hamiltonian oracle tests",
    "noise.NoiseModel.decay_free": "tells a dephasing-only model apart; tests only",
    "propagate.StateVector.normalized": "normalizes perturbed test states",
    "propagate.basis_state": "product states for propagation and readout tests",
    "units.angular_to_mhz": "the inverse of mhz_to_angular, for the unit round trip",
}


def _unreached(definitions, references):
    """Labels of the public functions and methods that no root reaches.

    Scopes with owner None are the roots: the callers outside the package,
    and module- and class-level package code, which runs on import.  A
    package function or method is reached when a reached scope names it,
    matched by last name as calls are: a call, a callback or a property
    read all name it."""
    names_by_owner = {}
    for owner, name in references:
        names_by_owner.setdefault(owner, set()).add(name)
    reached = names_by_owner.pop(None, set())
    grew = True
    while grew:
        grew = False
        for owner in [o for o in names_by_owner if o.rsplit(".", 1)[-1] in reached]:
            reached |= names_by_owner.pop(owner)
            grew = True
    return sorted(stem for stem, name, *_ in definitions if name not in reached)


def test_every_public_function_is_reached():
    definitions, _, references = _api_graph()
    unreached = _unreached(definitions, references)
    unexplained = [label for label in unreached if label not in UNREACHED_PUBLIC_FUNCTIONS]
    assert unexplained == [], (
        f"public functions that no command, demo, benchmark workload or "
        f"acceptance criterion reaches: {unexplained}; remove each, make it "
        f"private, or give it a reason in UNREACHED_PUBLIC_FUNCTIONS"
    )
    stale = sorted(set(UNREACHED_PUBLIC_FUNCTIONS) - set(unreached))
    assert stale == [], f"allowlisted functions that a caller reaches or that are gone: {stale}"


def test_reach_checker_follows_references_from_roots():
    package = ast.parse(
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return chain()\n"
        "def chain():\n"
        "    return 2\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return 0\n"
        "TABLE = {'x': used}\n"
    )
    callers = ast.parse("print(Box().size)\n")
    references = _references(package, "m") + _references(callers)
    assert _unreached(_public_signatures("m", package), references) == [
        "m.Box.unused", "m.chain", "m.orphan",
    ]
