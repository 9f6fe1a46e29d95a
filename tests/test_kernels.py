"""The chunk kernels ``rowsum`` and ``stable_argsort`` give numpy's bits.

Stream passes route every per-chunk row sum and stable sort through these
two helpers, so artifacts depend on them matching ``np.sum(p, axis=1)`` and
``np.argsort(v, kind="stable")`` exactly on the installed numpy.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from glset.expressions import ExpressionFunctional
from glset.functionals import rowsum, stable_argsort

SRC = Path(__file__).resolve().parents[1] / "src" / "glset"


def wide(rng, shape):
    # magnitudes over 16 decades, so any change of summation order shows
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowsum:
    def test_every_width_to_300(self, rng):
        # covers the column loop (d < 8) and every width np.sum takes itself
        for d in range(1, 301):
            p = wide(rng, (23, d))
            assert same_bits(rowsum(p), np.sum(p, axis=1)), d

    @pytest.mark.parametrize("d", [2, 5, 8, 17, 32, 64, 128, 129, 300])
    def test_chunk_shape(self, rng, d):
        p = wide(rng, (16384, d))
        assert same_bits(rowsum(p), np.sum(p, axis=1))

    @pytest.mark.parametrize("d", [1, 5, 8, 13, 200])
    def test_rows_of_negative_zero(self, d):
        p = np.full((4, d), -0.0)
        out = rowsum(p)
        assert same_bits(out, np.sum(p, axis=1))
        assert not np.signbit(out).any()

    def test_signed_zero_mixes(self, rng):
        for d in list(range(1, 20)) + [64, 130, 257]:
            p = np.where(rng.random((64, d)) < 0.5, -0.0, 0.0)
            assert same_bits(rowsum(p), np.sum(p, axis=1)), d
            # zeros of both signs among values that cancel exactly
            q = np.where(rng.random((64, d)) < 0.5, p, rng.choice([-1.0, 1.0], (64, d)))
            assert same_bits(rowsum(q), np.sum(q, axis=1)), d

    @pytest.mark.parametrize("d", [3, 12, 150])
    def test_strided_and_fortran_inputs(self, rng, d):
        base = wide(rng, (40, 2 * d))
        for p in (base[:, ::2], base[::2, :d], base[:, :d], np.asfortranarray(base[:, :d])):
            assert same_bits(rowsum(p), np.sum(p, axis=1))

    def test_degenerate_shapes(self, rng):
        p = wide(rng, (9, 1))
        assert same_bits(rowsum(p), np.sum(p, axis=1))
        for d in (0, 1, 5, 9):
            p = np.empty((0, d))
            assert same_bits(rowsum(p), np.sum(p, axis=1))
        p = np.empty((3, 0))
        assert same_bits(rowsum(p), np.sum(p, axis=1))


class TestStableArgsort:
    @staticmethod
    def check(v):
        order, sorted_v = stable_argsort(v)
        want = np.argsort(v, kind="stable")
        assert same_bits(order, want)
        assert same_bits(sorted_v, v[want])

    def test_distinct_values(self, rng):
        self.check(rng.standard_normal(16384))

    def test_clamped_chunk_with_many_ties(self, rng):
        v = ExpressionFunctional("min(norm2(), 6)").value(rng.standard_normal((16384, 5)))
        assert np.count_nonzero(v == 6.0) > 1000
        self.check(v)

    def test_signed_zeros(self, rng):
        v = np.where(rng.random(1000) < 0.5, -0.0, 0.0)
        v[::7] = rng.standard_normal(len(v[::7]))
        self.check(v)
        self.check(np.array([0.0, -0.0]))
        self.check(np.array([-0.0, 0.0]))

    @pytest.mark.parametrize("v", [[], [3.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
    def test_short_inputs(self, v):
        self.check(np.array(v))

    def test_sorted_and_reversed(self, rng):
        v = np.sort(rng.standard_normal(5000))
        self.check(v)
        self.check(v[::-1].copy())
        ties = np.repeat(np.arange(100.0), 7)
        self.check(ties)
        self.check(ties[::-1].copy())

    def test_nans_take_the_stable_sort(self):
        self.check(np.array([np.nan, 1.0, np.nan, 0.5, np.nan]))


# ----------------------------- source guard -----------------------------

HELPERS = {"rowsum", "stable_argsort"}


def _const(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _slow_call(call):
    """Why ``call`` is a per-row sum or a stable sort, or None."""
    for kw in call.keywords:
        if kw.arg == "kind" and _const(kw.value) == "stable":
            return 'kind="stable"'
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "sum":
        axis = [kw.value for kw in call.keywords if kw.arg == "axis"]
        on_np = isinstance(func.value, ast.Name) and func.value.id == "np"
        positional = call.args[1:2] if on_np else call.args[:1]
        if any(_const(a) in (1, -1) for a in axis + positional):
            return "sum over axis 1"
    return None


def slow_calls(tree):
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in HELPERS
        if isinstance(node, ast.Call) and not inside:
            why = _slow_call(node)
            if why:
                found.append((node.lineno, why))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_guard_sees_the_slow_calls():
    code = ("import numpy as np\n"
            "a = np.sum(x * x, axis=1)\n"
            "b = (x * x).sum(axis=-1)\n"
            "c = np.sum(x, 1)\n"
            "d = np.argsort(v, kind='stable')\n"
            "e = np.sum(x, axis=0) + np.sum(x)\n"
            "def rowsum(p):\n"
            "    return np.sum(p, axis=1)\n")
    assert [line for line, _ in slow_calls(ast.parse(code))] == [2, 3, 4, 5]


def test_row_sums_and_stable_sorts_go_through_the_helpers():
    offenders = [f"{path.name}:{line}: {why}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, why in slow_calls(ast.parse(path.read_text()))]
    assert offenders == [], ("use functionals.rowsum / functionals.stable_argsort: "
                             + "; ".join(offenders))


# ----------------------------- FD stencil guard -----------------------------

STENCIL_HELPER = "fd_sides"


def _is_copy(node):
    """``x.copy()`` or ``np.copy(x)``."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    return node.func.attr == "copy" and (
        not node.args or isinstance(node.func.value, ast.Name) and node.func.value.id == "np")


def perturbed_copies(tree):
    """Lines that write into an element of a copied array outside ``fd_sides``."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or fn.name == STENCIL_HELPER:
            continue
        copies = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                  and _is_copy(node.value) for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign) else [])
            found.update(t.lineno for t in targets if isinstance(t, ast.Subscript)
                         and isinstance(t.value, ast.Name) and t.value.id in copies)
    return sorted(found)


def test_stencil_guard_sees_perturbed_copies():
    code = ("import numpy as np\n"
            "def fd_partial(value, xi, k, step):\n"
            "    hi = xi.copy()\n"
            "    hi[:, k - 1] += step\n"
            "    lo = np.copy(xi)\n"
            "    lo[:, k - 1] = xi[:, k - 1] - step\n"
            "    out = xi.copy()\n"
            "    out += 1.0\n"
            "    return value(hi) - value(lo)\n"
            "def fd_sides(f, xi, step):\n"
            "    buf = xi.copy()\n"
            "    buf[:, 0] += step\n")
    assert perturbed_copies(ast.parse(code)) == [4, 6]


def test_fd_stencils_perturb_one_buffer():
    path = SRC / "functionals.py"
    offenders = perturbed_copies(ast.parse(path.read_text()))
    assert offenders == [], (f"perturb copies of an input through "
                             f"functionals.{STENCIL_HELPER}: {path.name} lines {offenders}")


# ----------------------------- directional derivative guard -----------------------------

DIRECTIONAL = "jvp"


def _is_gradient_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "gradient")


def _contracted(node):
    """The operands that ``node`` multiplies and sums along a row, if any:
    ``rowsum(a * b)``, ``np.sum(a * b, ...)``, ``(a * b).sum(...)``,
    ``a @ b``, ``np.einsum(spec, a, b)``, ``np.dot(a, b)`` or ``np.inner(a, b)``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return [node.left, node.right]
    if not isinstance(node, ast.Call):
        return []
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("einsum", "dot", "inner"):
        return node.args
    if name == "rowsum" or name == "sum" and isinstance(func, ast.Attribute):
        on_np = name == "sum" and isinstance(func.value, ast.Name) and func.value.id == "np"
        summed = node.args[:1] if name == "rowsum" or on_np else [func.value]
        return [side for p in summed if isinstance(p, ast.BinOp) and isinstance(p.op, ast.Mult)
                for side in (p.left, p.right)]
    return []


def gradient_contractions(tree):
    """Lines that contract a ``<x>.gradient(...)`` call with a vector outside
    a ``jvp`` method, which is where a directional derivative is taken."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == DIRECTIONAL
        if not inside and any(_is_gradient_call(op) for op in _contracted(node)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_guard_sees_gradient_contractions():
    code = ("import numpy as np\n"
            "a = rowsum(phi.gradient(xi) * g) / s\n"
            "b = np.sum(g * f.gradient(xi), axis=1)\n"
            "c = (f.gradient(xi) * u).sum(axis=-1)\n"
            "d = np.einsum('ij,ij->i', f.gradient(xi), u)\n"
            "e = f.gradient(xi) @ w\n"
            "f = rowsum(g * g) + f.gradient(xi)[:, 0] * v\n"
            "h = f.gradient(xi) * scale[:, None]\n"
            "class F:\n"
            "    def jvp(self, xi, u):\n"
            "        return rowsum(self.gradient(xi) * u)\n")
    assert gradient_contractions(ast.parse(code)) == [2, 3, 4, 5, 6]


def test_directional_derivatives_go_through_jvp():
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in gradient_contractions(ast.parse(path.read_text()))]
    assert offenders == [], ("take grad f . u as f.jvp(xi, u), which may skip the "
                             "(n, d) gradient: " + ", ".join(offenders))


# ----------------------------- chunk layout guard -----------------------------

LAYOUT_OWNER = "model.py"


def chunk_size_names(tree):
    """Lines that name ``CHUNK_SIZE``: an import of it, a bare name or an
    attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(node.lineno for alias in node.names if alias.name == "CHUNK_SIZE")
        elif isinstance(node, ast.Name) and node.id == "CHUNK_SIZE" \
                or isinstance(node, ast.Attribute) and node.attr == "CHUNK_SIZE":
            found.add(node.lineno)
    return sorted(found)


def test_guard_sees_chunk_size_names():
    code = ("from .model import GaussianModel, CHUNK_SIZE\n"
            "from . import model\n"
            "start = index * CHUNK_SIZE\n"
            "size = min(n, model.CHUNK_SIZE)\n"
            "layout = model.chunk_layout(n)\n"
            "chunk_size = 16384\n")
    assert chunk_size_names(ast.parse(code)) == [1, 3, 4]


def test_only_the_model_knows_the_chunk_size():
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 if path.name != LAYOUT_OWNER
                 for line in chunk_size_names(ast.parse(path.read_text()))]
    assert offenders == [], ("take chunk boundaries from model.chunk_layout, the "
                             "layout's one definition: " + ", ".join(offenders))
