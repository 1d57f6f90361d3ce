"""Static checks on the package source."""

import ast
import pathlib

import pytest

from evospace.experiments import _RUNNERS, SCENARIOS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "evospace"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


# Products whose rounding depends on the BLAS kernel or on how many rows are
# stacked in the call; reported numbers go through evospace.kernels instead.
BLAS_CALLS = {"dot", "matmul", "inner", "einsum", "linalg.norm"}
# Dataset generation and acceptance keep their products, so that every
# scenario seed draws the same datasets as before the kernels existed.
BLAS_ALLOWED = {("experiments.py", name) for name in (
    "gen_gaussian_mixture", "_hulls_overlap", "_perceptron_separable",
    "_mean_window", "_supervised_accept")}


def blas_products(tree) -> list:
    """(enclosing top-level function or class, line, product) of each use."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner or getattr(child, "name", None)
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(child.op, ast.MatMult):
                found.append((name, child.lineno, "@"))
            elif isinstance(child, ast.Attribute):
                dotted = ast.unparse(child)
                for call in BLAS_CALLS:
                    if dotted in (f"np.{call}", f"numpy.{call}") or \
                            (call == "dot" and dotted.endswith(".dot")):
                        found.append((name, child.lineno, dotted))
            visit(child, name)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernels.py"],
                         ids=lambda p: p.name)
def test_reported_products_use_the_kernels(path):
    # LAPACK calls (eigvalsh, qr, det, matrix_rank, and solve outside the
    # projections) stay: the golden digests hold under every OpenBLAS
    # kernel with them in place
    products = [(name, line, what) for name, line, what
                in blas_products(ast.parse(path.read_text()))
                if (path.name, name) not in BLAS_ALLOWED]
    assert products == []


def test_the_product_check_finds_each_form():
    source = ("def f(a, b):\n    return a @ b\n"
              "def g(a, b):\n    a @= b\n    return np.dot(a, b) + a.dot(b)\n"
              "class H:\n    def m(self, a):\n"
              "        return np.linalg.norm(np.einsum('i,i', a, a))\n")
    assert [(n, w) for n, _, w in blas_products(ast.parse(source))] == [
        ("f", "@"), ("g", "@"), ("g", "np.dot"), ("g", "a.dot"),
        ("H", "np.linalg.norm"), ("H", "np.einsum")]


def private_reads(tree) -> list:
    """(line, expression) of each ``obj._name`` the module reads but does not define.

    ``self._name`` and ``cls._name`` are the object's own; any other
    ``obj._name`` must name a function, class, variable or attribute that
    the module itself defines, so that no module reaches into another's
    internals.  Dunder names are public protocol.
    """
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_") and not node.attr.startswith("__")
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls"))
                  and node.attr not in defined)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    assert private_reads(ast.parse(path.read_text())) == []


def test_the_private_read_check_finds_each_form():
    source = ("class A:\n    _own = 1\n    def f(self, b):\n"
              "        self._x = b._own + self._y + A._own\n"
              "        return b._x, b.sampler._reduce(), cls._z, b.__len__()\n"
              "def _helper(m):\n    m._missing = 0\n"
              "    return m._helper, m._missing, np.random._pcg\n")
    assert [what for _, what in private_reads(ast.parse(source))] == [
        "b.sampler._reduce", "np.random._pcg"]


def read_names(tree) -> set:
    """Names a module reads, as a bare name or as an attribute, that it does not define."""
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return read - defined


def test_every_public_name_is_read_outside_its_module():
    # a public name that no other module and no acceptance gate reads has
    # no user outside the tests (ROADMAP aim 2)
    init = ast.parse((SRC / "__init__.py").read_text())
    public = next(ast.literal_eval(node.value) for node in init.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    readers = MODULES + [SRC.parents[1] / "tests" / "test_acceptance.py"]
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in readers))
    assert sorted(set(public) - read) == []


def acceptance_override_keys(tree) -> set:
    """Keys of the override dicts a scenario is run with: an ``overrides=``
    argument, or the dict of a ``(scenario, overrides)`` pair."""
    dicts = [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call)
             for kw in node.keywords if kw.arg == "overrides"]
    dicts += [node.elts[1] for node in ast.walk(tree)
              if isinstance(node, ast.Tuple) and len(node.elts) == 2
              and isinstance(node.elts[0], ast.Constant)
              and node.elts[0].value in SCENARIOS]
    return {key.value for d in dicts if isinstance(d, ast.Dict) for key in d.keys}


def test_every_override_is_set_by_an_acceptance_gate():
    # an override that no gate sets is a constant that only tests vary
    # (ROADMAP aim 2)
    tree = ast.parse((SRC.parents[1] / "tests" / "test_acceptance.py").read_text())
    settable = {key for table, _ in _RUNNERS.values() for key in table}
    assert sorted(settable - acceptance_override_keys(tree)) == []
