"""The benchmark's view of the package stays valid: the functions its
tracer expects stay public in their modules, its hooks read only real
parameters, and every name its checks import from lharg still resolves
and accepts the calls made there."""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "lharg"
TESTS = Path(__file__).resolve().parent
TRACING = BENCH / "tracing.py"
CHECKS = BENCH / "checks.py"


def _expected_names():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECTED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("EXPECTED not found in bench/tracing.py")


def test_every_import_is_used():
    # a name a module or test imports and never reads is left over from a
    # deletion; __init__ imports only to re-export, so it is exempt
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = \
                        node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_traced_boundaries_are_public_functions():
    names = _expected_names()
    assert names
    for dotted in names:
        module_name, func_name = dotted.split(".")
        module = importlib.import_module("lharg." + module_name)
        fn = getattr(module, func_name, None)
        assert inspect.isfunction(fn), f"{dotted} is not a function"
        assert not func_name.startswith("_")
        # the tracer names a function by where it is defined
        assert fn.__module__ == "lharg." + module_name, dotted


def _resolve(module_name, name):
    # what `from module_name import name` binds: an attribute of the
    # module, or else its submodule
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def _checks_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "lharg":
            for alias in node.names:
                bound[alias.asname or alias.name] = _resolve(node.module,
                                                             alias.name)
    return bound


def test_bench_checks_imports_resolve():
    tree = ast.parse(CHECKS.read_text())
    bound = _checks_imports(tree)
    assert {"lio", "loglik", "model_atm_iv"} <= set(bound)
    # every call of an imported function, or of a function reached through
    # an imported module, binds to its current signature
    n_calls = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in bound:
            target = bound[func.id]
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and inspect.ismodule(bound.get(func.value.id)):
            target = getattr(bound[func.value.id], func.attr, None)
            assert target is not None, f"{func.value.id}.{func.attr} is gone"
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        inspect.signature(target).bind(*node.args,
                                       **{k.arg: k for k in node.keywords})
        n_calls += 1
    assert n_calls >= 5


def test_model_atm_iv_positional_order():
    # the chain check calls model_atm_iv(params, nu1, maturity, state)
    from lharg.pricing import model_atm_iv

    bound = inspect.signature(model_atm_iv).bind(1, 2, 3, 4)
    assert list(bound.arguments) == ["params", "nu1", "maturity_days", "state"]


def test_states_have_no_default():
    # the conditioning state is always explicit: no public function of
    # mgf, pricing or estimate defaults a state or a state mapping
    scanned, defaulted = set(), []
    for module_name in ("mgf", "pricing", "estimate"):
        module = importlib.import_module("lharg." + module_name)
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.name in ("state", "states"):
                    scanned.add(f"{module_name}.{name}")
                    if param.default is not param.empty:
                        defaulted.append(f"{module_name}.{name}")
    assert {"mgf.mgf_p", "mgf.cumulants", "pricing.price_chain",
            "pricing.model_atm_iv", "estimate.calibrate_nu1"} <= scanned
    assert not defaulted, defaulted


def _hook_reads(tree):
    # {traced name: argument names its HOOKS extractor reads as a["..."]}
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    hooks = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "HOOKS"
                         for t in node.targets))
    reads = {}
    for key, value in zip(hooks.keys, hooks.values):
        fn = defs[value.id] if isinstance(value, ast.Name) else value
        arg = fn.args.args[0].arg
        reads[ast.literal_eval(key)] = {
            node.slice.value for node in ast.walk(fn)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == arg
            and isinstance(node.slice, ast.Constant)}
    return reads


def test_tracer_hooks_read_real_parameters():
    reads = _hook_reads(ast.parse(TRACING.read_text()))
    checked = set()
    for dotted, names in reads.items():
        module_name, func_name = dotted.split(".")
        fn = getattr(importlib.import_module("lharg." + module_name),
                     func_name, None)
        if not inspect.isfunction(fn):
            continue        # a wrapped library function, not lharg's
        params = inspect.signature(fn).parameters
        for name in names:
            assert name in params, f"{dotted} has no parameter {name!r}"
            checked.add(name)
    assert {"n_paths", "horizon", "maturities", "z"} <= checked


def test_nu1_is_the_only_premium():
    # the variance premium is one float named nu1 everywhere: no premia
    # container in the package, and no public parameter called premia
    import lharg

    assert not hasattr(lharg, "RiskPremia")
    scanned, named = set(), []
    for module_name in ("mgf", "pricing", "simulate", "model"):
        module = importlib.import_module("lharg." + module_name)
        assert not hasattr(module, "RiskPremia"), module_name
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            if "nu1" in params:
                scanned.add(f"{module_name}.{name}")
            if "premia" in params:
                named.append(f"{module_name}.{name}")
    assert {"mgf.mgf_q", "mgf.cumulants", "pricing.model_atm_iv",
            "simulate.simulate_paths",
            "model.risk_neutral_parabolic"} <= scanned
    assert not named, named


def _names_read(tree, skip=None):
    # every name a module reads, as a bare name or as an attribute,
    # outside the definition `skip`
    skipped = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_orphan_public_names():
    # a public function or class of the package is read somewhere else in
    # src/ or named by the benchmark's tracer or checks; otherwise nothing
    # uses it and it should go.  A re-export from lharg/__init__ is not a
    # use: it only makes an unused name public
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    bench = {name.split(".")[1] for name in _expected_names()}
    bench |= _names_read(ast.parse(CHECKS.read_text()))
    defined, orphans = 0, []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            defined += 1
            if node.name in bench:
                continue
            if not any(node.name in _names_read(other,
                                                node if other is tree
                                                else None)
                       for other in trees.values()):
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert defined > 30
    assert not orphans, orphans


def test_no_function_level_package_imports():
    # the package's modules import each other at module level only: an
    # import of lharg inside a function, relative or absolute, hides a
    # dependency (there is no import cycle to break); lazy third-party
    # imports stay allowed
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested += [f"{path.name}:{node.lineno} in {fn.name}"
                       for node in ast.walk(fn)
                       if isinstance(node, ast.ImportFrom) and (
                           node.level or node.module.startswith("lharg"))]
    assert not nested, nested
