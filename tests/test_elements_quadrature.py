import hashlib
import math

import numpy as np
import pytest

from lbblab.fem.elements import Family, reference_element
from lbblab.fem.quadrature import quad_rule


def tri_monomial_integral(p, q):
    """Exact integral of x^p y^q over the reference triangle."""
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def test_quad_midpoint_rule():
    r = quad_rule(Family.QUAD, 1)
    assert len(r.weights) == 1
    assert r.weights[0] == pytest.approx(1.0)
    assert np.allclose(r.points[0], [0.5, 0.5])


def test_triangle_rule_constant():
    r = quad_rule(Family.TRIANGLE, 4)
    assert r.weights.sum() == pytest.approx(0.5, abs=1e-15)


def test_triangle_rule_x3y5():
    r = quad_rule(Family.TRIANGLE, 8)
    val = (r.points[:, 0] ** 3 * r.points[:, 1] ** 5 * r.weights).sum()
    assert val == pytest.approx(
        math.factorial(3) * math.factorial(5) / math.factorial(10), rel=1e-13
    )


@pytest.mark.parametrize("exactness", range(0, 11))
def test_triangle_exactness_vs_factorial_oracle(exactness):
    r = quad_rule(Family.TRIANGLE, exactness)
    assert (r.weights > 0).all()
    for p in range(exactness + 1):
        for q in range(exactness + 1 - p):
            val = (r.points[:, 0] ** p * r.points[:, 1] ** q * r.weights).sum()
            assert val == pytest.approx(tri_monomial_integral(p, q), abs=1e-13)


@pytest.mark.parametrize("exactness", range(0, 11))
def test_quad_exactness(exactness):
    r = quad_rule(Family.QUAD, exactness)
    assert (r.weights > 0).all()
    for p in range(exactness + 1):
        for q in range(exactness + 1):
            if p + q > exactness and max(p, q) > exactness:
                continue
            val = (r.points[:, 0] ** p * r.points[:, 1] ** q * r.weights).sum()
            assert val == pytest.approx(1.0 / ((p + 1) * (q + 1)), abs=1e-13)


@pytest.mark.parametrize(
    "family,degree",
    [(Family.TRIANGLE, d) for d in range(1, 6)]
    + [(Family.QUAD, d) for d in (1, 2, 3, 6, 10, 16)],
)
def test_nodal_basis_properties(family, degree):
    ref = reference_element(family, degree)
    vals = ref.eval(ref.nodes)
    assert np.allclose(vals, np.eye(ref.n_basis), atol=1e-10)
    rng = np.random.default_rng(degree)
    pts = rng.uniform(0.05, 0.45, size=(30, 2))
    assert np.allclose(ref.eval(pts).sum(axis=1), 1.0, atol=1e-11)
    assert np.allclose(ref.grad(pts).sum(axis=1), 0.0, atol=1e-9)


@pytest.mark.parametrize("family,degree", [(Family.TRIANGLE, 4), (Family.QUAD, 5)])
def test_gradients_match_finite_differences(family, degree):
    ref = reference_element(family, degree)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.1, 0.4, size=(12, 2))
    g = ref.grad(pts)
    h = 1e-6
    for d, e in enumerate(np.eye(2)):
        fd = (ref.eval(pts + h * e) - ref.eval(pts - h * e)) / (2 * h)
        assert np.allclose(g[:, :, d], fd, atol=5e-6)


def test_basis_dimensions():
    assert reference_element(Family.TRIANGLE, 4).n_basis == 15
    assert reference_element(Family.TRIANGLE, 0).n_basis == 1
    assert reference_element(Family.QUAD, 3).n_basis == 16
    assert reference_element(Family.QUAD, 0).n_basis == 1


def _kinds(family, degree):
    ref = reference_element(family, degree)
    return [(str(c), int(e), int(s)) for c, e, s in zip(ref.kind, ref.entity, ref.slot)]


# per node in node order: v<corner>, e<side>.<slot> or i<interior index>
NODE_KINDS = {
    (Family.TRIANGLE, 0): "i0",
    (Family.TRIANGLE, 1): "v0 v1 v2",
    (Family.TRIANGLE, 2): "v0 e0.0 v1 e2.0 e1.0 v2",
    (Family.TRIANGLE, 3): "v0 e0.0 e0.1 v1 e2.1 i0 e1.0 e2.0 e1.1 v2",
    (Family.QUAD, 0): "i0",
    (Family.QUAD, 1): "v0 v1 v3 v2",
    (Family.QUAD, 2): "v0 e0.0 v1 e3.0 i0 e1.0 v3 e2.0 v2",
    (Family.QUAD, 3): "v0 e0.0 e0.1 v1 e3.1 i0 i1 e1.0 e3.0 i2 i3 e1.1 v3 e2.1 e2.0 v2",
}


@pytest.mark.parametrize("family, degree", list(NODE_KINDS), ids=lambda v: str(v))
def test_node_kinds_by_hand(family, degree):
    want = []
    for token in NODE_KINDS[family, degree].split():
        entity, _, slot = token[1:].partition(".")
        want.append((token[0], int(entity), int(slot or 0)))
    assert _kinds(family, degree) == want


@pytest.mark.parametrize(
    "family, digest",
    [(Family.TRIANGLE, "f022f0f875ccec03d262a54b7ee8a9f29017f2107e3a9ea313f80b920ef6cbf6"),
     (Family.QUAD, "90352fbcf931a22d3c16cf8bc165f3d2c9829f220e245543e8f2dc9bf5458276")],
    ids=["tri", "quad"],
)
def test_node_kinds_are_pinned(family, digest):
    # SHA-256 of the (kind, entity, slot) lists of degrees 0-16: the kinds
    # fix the global dof numbering, on which every output's bytes depend
    h = hashlib.sha256()
    for degree in range(17):
        h.update(repr(_kinds(family, degree)).encode())
    assert h.hexdigest() == digest


def test_quad_lattice_is_gauss_lobatto():
    ref = reference_element(Family.QUAD, 2)
    xs = sorted(set(np.round(ref.nodes[:, 0], 14)))
    assert xs == pytest.approx([0.0, 0.5, 1.0])
    ref4 = reference_element(Family.QUAD, 4)
    xs4 = np.array(sorted(set(np.round(ref4.nodes[:, 0], 14))))
    # interior Lobatto points of degree 4: roots of P4' mapped to [0,1]
    assert np.allclose(xs4, [0.0, (1 - math.sqrt(3.0 / 7.0)) / 2, 0.5,
                             (1 + math.sqrt(3.0 / 7.0)) / 2, 1.0], atol=1e-12)


def _loop_values(t, x):
    n = len(t)
    out = np.ones((len(x), n))
    for i in range(n):
        for j in range(n):
            if j != i:
                out[:, i] *= (x - t[j]) / (t[i] - t[j])
    return out


def _loop_derivs(t, x):
    n = len(t)
    out = np.zeros((len(x), n))
    for i in range(n):
        for m in range(n):
            if m == i:
                continue
            term = np.full(len(x), 1.0 / (t[i] - t[m]))
            for j in range(n):
                if j != i and j != m:
                    term *= (x - t[j]) / (t[i] - t[j])
            out[:, i] += term
    return out


@pytest.mark.parametrize("degree", [0, 1, 2, 5, 9, 16])
def test_quad_tables_match_nested_loops_bitwise(degree):
    # the vectorized 1D Lagrange tables keep the loops' arithmetic exactly
    ref = reference_element(Family.QUAD, degree)
    k1 = degree + 1
    rng = np.random.default_rng(degree)
    for pts in [
        quad_rule(Family.QUAD, 2 * degree + 2).points,
        rng.uniform(-0.1, 1.1, (30, 2)),
        ref.nodes,
    ]:
        lx, ly = _loop_values(ref._t, pts[:, 0]), _loop_values(ref._t, pts[:, 1])
        dx, dy = _loop_derivs(ref._t, pts[:, 0]), _loop_derivs(ref._t, pts[:, 1])
        vals = (ly[:, :, None] * lx[:, None, :]).reshape(len(pts), k1 * k1)
        gx = (ly[:, :, None] * dx[:, None, :]).reshape(len(pts), k1 * k1)
        gy = (dy[:, :, None] * lx[:, None, :]).reshape(len(pts), k1 * k1)
        assert np.array_equal(ref.eval(pts), vals)
        assert np.array_equal(ref.grad(pts), np.stack([gx, gy], axis=2))
