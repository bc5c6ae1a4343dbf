import ast
import re
from pathlib import Path

import pytest

import qnetcap
from qnetcap import errors, network

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11


def requirement_names(requirements):
    return sorted(re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements)


def test_runtime_needs_numpy_only_and_tests_add_scipy():
    text = (Path(qnetcap.__file__).parents[2] / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    assert requirement_names(project["dependencies"]) == ["numpy"]
    assert requirement_names(project["optional-dependencies"]["test"]) == ["pytest", "scipy"]


PACKAGE = Path(qnetcap.__file__).parent
ROOT = PACKAGE.parents[1]


def layer_order():
    """Module names in the order the package docstring lists its layers."""
    return re.findall(r"^\* ``(\w+)``", qnetcap.__doc__, flags=re.MULTILINE)


def test_each_module_imports_only_earlier_layers():
    order = layer_order()
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert sorted(order) == [p.stem for p in modules]
    for path in modules:
        earlier = set(order[: order.index(path.stem)])
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                for name in names:
                    assert name in earlier, f"{path.stem} imports .{name}"


def test_every_imported_name_is_read():
    # an import binds a name (the first part of a dotted module); the module
    # must read it somewhere, or the import goes
    unread = []
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [(a.asname or a.name).partition(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [a.asname or a.name for a in node.names]
                else:
                    continue
                unread += [f"{path.relative_to(ROOT)}: {name}" for name in bound
                           if name not in read]
    assert not unread, unread


# Public names with no caller in src/, demos/ or perfbench/, each with the
# result of the thesis (arXiv:1208.4188) it states or the README entry that
# documents it.
KEPT_WITHOUT_CALLER = {
    "entropic.shannon_entropy": "README Library: Shannon entropy",
    "entropic.von_neumann_entropy": "README Library: Shannon/von Neumann entropies",
    "entropic.binary_entropy": "README Library: Shannon entropy of a bit",
    "entropic.g_thermal": "README Library: the thermal-state entropy",
    "regions.region_from_json": "reader of the public region_to_json format",
    "regions.polymatroid_slacks": "polymatroid orderings of the CMG split-rate region",
    "regions.equivalent": "exact equality of the direct and projected CMG regions",
    "network.successive_decoding_corners": "successive decoding on the interference channel",
    "network.relay_df_rate": "decode-forward, partial decode-forward at U = X",
    "codesim.typical_projector": "typical subspace: rank and weight",
    "codesim.cond_typical_projector": "conditionally typical subspace: rank",
    "network.CodeDistribution.p2p": "README Library: one CodeDistribution constructor per kind",
    "network.CodeDistribution.hk": "README Library: one CodeDistribution constructor per kind",
    "network.CodeDistribution.cmg": "README Library: one CodeDistribution constructor per kind",
}


def public_names():
    """module.name of every public top-level function and class of the
    library (outside ``cli``), and module.Class.name of every public
    classmethod."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, ast.FunctionDef) and item.name[0] != "_"
                        and any(getattr(d, "id", None) == "classmethod"
                                for d in item.decorator_list)):
                    found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names():
    """Every identifier that code in src/, demos/ or perfbench/ reads: names,
    attributes, imported names, and strings that patch a name; and, apart,
    the attributes alone.  Outside src/ a read of a function or class that
    the file itself defines at top level reaches that definition, not the
    library's, so it does not count."""
    seen, attributes = set(), set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            own = {node.name for node in tree.body if folder != "src"
                   and isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and node.id not in own:
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias):
                    seen.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    seen.add(node.value)
    return seen, attributes


def is_referenced(qual, name, seen, attributes):
    """A function or class is referenced by any read of its name.  A
    classmethod is reached only through its class, so it is referenced by an
    attribute read (``X.name``) or a string "Class.name", not by a local
    variable or a subcommand string that shares its name."""
    if qual.count(".") == 1:
        return name in seen
    cls = qual.split(".")[1]
    return name in attributes or f"{cls}.{name}" in seen


def test_every_public_name_has_a_caller_or_a_reason():
    names = public_names()
    seen, attributes = referenced_names()
    uncalled = {q for q, name in names.items()
                if not is_referenced(q, name, seen, attributes)}
    assert uncalled <= set(KEPT_WITHOUT_CALLER), sorted(uncalled - set(KEPT_WITHOUT_CALLER))
    # a name that gains a caller or leaves the library leaves the list too
    assert set(KEPT_WITHOUT_CALLER) <= uncalled, sorted(set(KEPT_WITHOUT_CALLER) - uncalled)


# Small float literals of src/ outside the tolerance table, each a constant
# of a numerical method rather than a threshold that a result is held to.
NUMERICAL_CONSTANTS = {
    ("bosonic", 1e-17): "series of _x_psi stops once a term is below double precision",
    ("bosonic", 1e-300): "_thermal_gain switches form where 1/b would overflow",
    ("entropic", 1e-300): "g_thermal switches form where 1/N would overflow",
}


def test_every_threshold_is_named_once_in_the_tolerance_table():
    table = {name for name in vars(errors) if name.isupper()}
    literals, read = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                if 0 < abs(node.value) < 1e-5:
                    literals.add((path.stem, node.value))
            elif isinstance(node, ast.Name):
                assert not (node.id in table and isinstance(node.ctx, ast.Store)), (
                    f"{path.stem} assigns {node.id}")
                read.add(node.id)
    assert literals == set(NUMERICAL_CONSTANTS)
    assert table <= read, sorted(table - read)


def test_each_layer_accepts_what_the_layer_before_it_produces():
    # a measured row Tr[E_y rho] misses 1 by the state's trace defect plus the
    # POVM's completeness defect times ||rho||_1; negative eigenvalues raise
    # ||rho||_1 by at most 2 d |PSD_TOL|, and d = 2**16 exceeds any dense state
    trace_norm = 1 + errors.PROB_SUM_TOL + 2 * 2**16 * abs(errors.PSD_TOL)
    row_defect = errors.PROB_SUM_TOL + errors.PROB_SUM_TOL * trace_norm
    assert row_defect <= errors.DERIVED_SUM_TOL
    # a joint-table row multiplies one accepted factor per part (five for hk and cmg)
    factors = max(len(parts) for parts, _, _ in network._LAYOUTS.values())
    assert factors == 5
    assert (1 + errors.PROB_SUM_TOL) ** factors - 1 <= errors.DERIVED_SUM_TOL
    # a bosonic rate accepted down to -CLOSED_FORM_TOL becomes a region bound
    assert errors.CLOSED_FORM_TOL <= errors.INFO_CLAMP
    # exact region equality reads polygon vertices held to POLYGON_TOL
    assert errors.POLYGON_TOL <= errors.MEMBERSHIP_TOL


# Defaulted parameters of the library that no call in src/, demos/ or
# perfbench/ passes, each with the reason it stays.
KEPT_OPTIONS = {
    "network.classical_capacity_BA.max_iter": "tests stop the iteration to see the "
                                              "unconverged report",
    "network.hsw_capacity.max_iter": "tests stop the iteration to see the unconverged report",
    "codesim.srm_error_sweep.prior": "the thesis's random-coding distribution p(x)",
}


def defaulted_options():
    """module.callable.parameter -> (the name a call uses, the parameter, its
    position or None) for every defaulted parameter of a public function,
    public method or constructor (``__init__`` or dataclass field) of the
    library outside ``cli``; a constructor is called by its class name."""
    found = {}

    def add(qual, callee, fn, bound):
        positional = (fn.args.posonlyargs + fn.args.args)[bound:]
        first = len(positional) - len(fn.args.defaults)
        for k, arg in enumerate(positional[first:], first):
            found[f"{qual}.{arg.arg}"] = (callee, arg.arg, k)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found[f"{qual}.{arg.arg}"] = (callee, arg.arg, None)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                add(f"{path.stem}.{node.name}", node.name, node, 0)
            if not isinstance(node, ast.ClassDef) or node.name[0] == "_":
                continue
            cls = f"{path.stem}.{node.name}"
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    add(cls, node.name, item, 1)
                elif isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    add(f"{cls}.{item.name}", item.name, item, 0 if static else 1)
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and "init=False" not in ast.unparse(item)]
                for k, item in enumerate(fields):
                    if item.value is not None:
                        found[f"{cls}.{item.target.id}"] = (node.name, item.target.id, k)
    return found


def passed_arguments():
    """(callee name, keyword or position) of every argument that a call in
    src/, demos/ or perfbench/ passes.  ``cls(...)`` calls its enclosing
    class; perfbench's ``late(module, "name", *args, **kwargs)`` calls
    ``name`` with those arguments and ``batch(module, "name", items,
    **kwargs)`` with those keywords."""
    passed = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            enclosing = {node: cls.name for cls in ast.walk(tree)
                         if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                args = call.args
                if name == "cls":
                    name = enclosing.get(call)
                elif (name in ("late", "batch") and len(args) >= 2
                      and isinstance(args[1], ast.Constant)):
                    name, args = args[1].value, args[2:] if name == "late" else []
                passed.update((name, k) for k in range(len(args)))
                passed.update((name, kw.arg) for kw in call.keywords if kw.arg)
    return passed


def test_every_option_is_set_by_a_caller_or_has_a_reason():
    passed = passed_arguments()
    unset = {q for q, (callee, arg, k) in defaulted_options().items()
             if (callee, arg) not in passed and (callee, k) not in passed}
    assert unset <= set(KEPT_OPTIONS), sorted(unset - set(KEPT_OPTIONS))
    # an option that gains a setter or leaves the library leaves the list too
    assert set(KEPT_OPTIONS) <= unset, sorted(set(KEPT_OPTIONS) - unset)
