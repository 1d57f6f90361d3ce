"""Static checks on the package source."""

import ast
import pathlib

import pytest

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
