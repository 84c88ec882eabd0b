import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from riccatint import linops
from riccatint.linops import (adjoint, is_nonnegative, is_self_adjoint,
                              loewner_leq, min_eigenvalue, op_norm,
                              quadratic_form, sup_opnorm, symmetry_report)

from conftest import brute_force_matmul, sup_opnorm_reference

SRC = Path(__file__).resolve().parents[1] / "src" / "riccatint"


def test_adjoint_transposes():
    assert_allclose(adjoint([[0.0, 1.0], [0.0, 0.0]]), [[0.0, 0.0], [1.0, 0.0]])


def test_adjoint_fixes_symmetric():
    m = np.array([[2.0, -1.0], [-1.0, 3.0]])
    assert np.array_equal(adjoint(m), m)


def test_adjoint_reverses_products(rng):
    # oracle: entrywise product computed by explicit loops
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        lhs = adjoint(brute_force_matmul(a, b))
        rhs = brute_force_matmul(adjoint(b), adjoint(a))
        assert_allclose(lhs, rhs, atol=1e-13)


def test_adjoint_is_involution(rng):
    for _ in range(10):
        m = rng.standard_normal((4, 2))
        assert np.array_equal(adjoint(adjoint(m)), m)


def test_is_self_adjoint_basic():
    assert is_self_adjoint(np.eye(3), 1e-12)
    assert not is_self_adjoint([[0.0, 1.0], [0.0, 0.0]], 1e-12)


def test_is_self_adjoint_tolerates_tiny_perturbation(rng):
    m = np.array([[1.0, 0.5], [0.5, 2.0]])
    noise = rng.standard_normal((2, 2))
    noise /= np.linalg.norm(noise, 2)
    assert is_self_adjoint(m + 1e-14 * noise, 1e-12)


def test_is_self_adjoint_rejects_nonsquare():
    with pytest.raises(ValueError):
        is_self_adjoint(np.zeros((2, 3)))


def test_is_nonnegative_zero_and_identity():
    assert is_nonnegative(np.zeros((2, 2)))
    assert is_nonnegative(np.eye(4))


def test_is_nonnegative_indefinite():
    # characteristic polynomial of [[1,2],[2,1]] gives eigenvalues 3 and -1
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert not is_nonnegative(m)
    assert_allclose(min_eigenvalue(m), -1.0, atol=1e-12)


def test_is_nonnegative_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_nonnegative([[0.0, 1.0], [0.0, 0.0]])


def test_loewner_examples():
    assert loewner_leq(np.zeros((2, 2)), np.eye(2))
    assert not loewner_leq(np.eye(2), np.zeros((2, 2)))
    # B - A = diag(1, 0) has eigenvalues 1 and 0
    assert loewner_leq(np.diag([1.0, 2.0]), np.diag([2.0, 2.0]))


def test_loewner_shape_mismatch():
    with pytest.raises(ValueError):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_reflexive_transitive(rng):
    for _ in range(5):
        base = rng.standard_normal((3, 3))
        a = base @ base.T
        b = a + _random_psd(rng, 3)
        c = b + _random_psd(rng, 3)
        assert loewner_leq(a, a, 1e-10)
        assert loewner_leq(a, b, 1e-10) and loewner_leq(b, c, 1e-10)
        assert loewner_leq(a, c, 1e-10)


def _random_psd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T


def test_op_norm_values():
    assert_allclose(op_norm(np.eye(3)), 1.0)
    assert_allclose(op_norm(np.diag([3.0, -4.0])), 4.0)
    # M^T M = diag(0, 4)
    assert_allclose(op_norm([[0.0, 2.0], [0.0, 0.0]]), 2.0)
    assert op_norm(np.zeros((3, 3))) == 0.0


def test_op_norm_homogeneous(rng):
    m = rng.standard_normal((4, 4))
    assert_allclose(op_norm(-2.5 * m), 2.5 * op_norm(m), rtol=1e-12)


def test_quadratic_form_values():
    assert quadratic_form(np.eye(2), [1.0, 1.0]) == 2.0
    assert quadratic_form(np.zeros((3, 3)), [1.0, -2.0, 0.5]) == 0.0
    # expand the bilinear form by hand
    assert quadratic_form([[1.0, 2.0], [2.0, 1.0]], [1.0, -1.0]) == -2.0


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(ValueError):
        quadratic_form(np.eye(3), [1.0, 2.0])


def test_nonnegative_iff_quadratic_forms(rng):
    """Eigenvalue criterion agrees with sampled quadratic forms."""
    for trial in range(8):
        sym = _random_psd(rng, 3) - (trial % 2) * 2.0 * np.eye(3)
        tol = 1e-12
        scale = tol * (1.0 + op_norm(sym))
        if is_nonnegative(sym, tol):
            for _ in range(50):
                x = rng.standard_normal(3)
                x /= np.linalg.norm(x)
                assert quadratic_form(sym, x) >= -scale
        else:
            eigvals, eigvecs = np.linalg.eigh(sym)
            assert quadratic_form(sym, eigvecs[:, 0]) < -scale


def test_op_norm_of_psd_is_max_quadratic_form(rng):
    for _ in range(5):
        m = _random_psd(rng, 4)
        eigvals, eigvecs = np.linalg.eigh(m)
        attained = quadratic_form(m, eigvecs[:, -1])
        assert_allclose(op_norm(m), attained, rtol=1e-10)
        for _ in range(40):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            assert quadratic_form(m, x) <= op_norm(m) + 1e-12


def test_symmetry_report():
    rep = symmetry_report(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert rep.symmetric and not rep.nonnegative
    assert rep.asymmetry == 0.0
    assert_allclose(rep.min_eigenvalue, -1.0, atol=1e-12)
    rep2 = symmetry_report(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not rep2.symmetric


# ---------------------------------------------------------------- sup norm of a stack

_SHAPES = [(n, n) for n in (1, 2, 3, 8, 32)] + [(1, 4), (4, 1), (2, 5), (8, 3), (3, 32)]
_KINDS = ("random", "zero", "identical", "dominant", "rank-one", "near-tie",
          "rank-one-near-tie", "permuted", "rank-one-permuted", "flat-and-spike")


def _stack(kind, nodes, shape, seed):
    """A stack of ``nodes`` matrices of one structure, with entries of order 1.

    Near ties (factors within 1e-12 of 1) and signed row and column
    permutations of one matrix (equal norms, each computed its own way) test
    the margin of the bound; flat spectra next to a slightly larger rank-one
    spike, whose bound is smaller, test the power of the bound.
    """
    rng = np.random.default_rng(seed)
    rows, cols = shape
    if kind == "zero" or nodes == 0:
        return np.zeros((nodes, rows, cols))
    if kind == "flat-and-spike":
        stack = np.linalg.qr(rng.standard_normal((nodes, max(shape), min(shape))))[0]
        stack = stack if rows >= cols else np.swapaxes(stack, -1, -2)
        for i in range(1, nodes, 2):
            stack[i] = 0.0
            stack[i, rng.integers(rows), rng.integers(cols)] = 1.0 + 0.05 * rng.random()
        return stack
    if kind.startswith("rank-one"):
        base = rng.standard_normal((nodes, rows, 1)) @ rng.standard_normal((nodes, 1, cols))
    else:
        base = rng.standard_normal((nodes, rows, cols))
    if kind == "identical":
        return np.repeat(base[:1], nodes, axis=0)
    if kind == "dominant":
        base *= 1e-3
        base[rng.integers(nodes)] *= 1e3
    if kind.endswith("near-tie"):
        return base[:1] * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, (nodes, 1, 1)))
    if kind.endswith("permuted"):
        signs = rng.choice([-1.0, 1.0], (nodes, rows, 1))
        return np.stack([(sign * base[0][rng.permutation(rows)])[:, rng.permutation(cols)]
                         for sign in signs])
    return base


@settings(max_examples=400)
@given(nodes=st.integers(0, 40), shape=st.sampled_from(_SHAPES),
       kind=st.sampled_from(_KINDS),
       exponent=st.one_of(st.integers(-150, 150), st.just(200)),
       seed=st.integers(0, 2 ** 32 - 1), mixed=st.booleans())
def test_sup_opnorm_bitwise_equals_full_svd(nodes, shape, kind, exponent, seed, mixed):
    stack = _stack(kind, nodes, shape, seed) * 10.0 ** exponent
    if mixed:   # nodes scaled by 2^-600, 1 and 2^600: most bounds underflow
        assume(exponent <= 100)
        powers = np.random.default_rng(seed).choice([-600, 0, 600], nodes)
        stack = np.ldexp(stack, powers[:, None, None])
    assert sup_opnorm(stack) == sup_opnorm_reference(stack)


def test_sup_opnorm_small_and_single_stacks(rng):
    for stack in (np.zeros((0, 3, 3)), np.zeros((0, 2, 5)), np.zeros((4, 3, 3)),
                  rng.standard_normal((1, 3, 3)), rng.standard_normal((3, 4)),
                  np.full((2, 2, 2), 1e200), rng.standard_normal((2, 3, 2, 2))):
        assert sup_opnorm(stack) == sup_opnorm_reference(stack)
    assert sup_opnorm(np.zeros((0, 3, 3))) == 0.0


def test_sup_opnorm_non_finite_entries_behave_as_full_svd(rng):
    stack = rng.standard_normal((5, 3, 3))
    stack[2, 1, 0] = np.nan
    for norm in (sup_opnorm_reference, sup_opnorm):
        with pytest.raises(np.linalg.LinAlgError):
            norm(stack)
    for bad in (np.inf, -np.inf):
        stack[2, 1, 0] = bad
        assert np.isnan(sup_opnorm_reference(stack))
        assert np.isnan(sup_opnorm(stack))


@pytest.mark.parametrize("nodes, n, chunks", [
    (63, 32, 1), (64, 32, 1), (65, 32, 2),      # just below, at and above 512 KiB
    (501, 32, 8), (287, 8, 1), (2001, 8, 2),    # the benchmark's stacks
    (2, 400, 2), (1, 300, 1),                   # fewer nodes than 512 KiB chunks
])
def test_sup_opnorm_bounds_in_chunks_of_at_most_512_kib(monkeypatch, nodes, n, chunks):
    rng = np.random.default_rng(nodes)
    stack = rng.standard_normal((nodes, n, n))
    stack[rng.integers(nodes)] *= 1.0 + 1e-13       # a near tie for the largest norm
    sizes = []
    bounds = linops._opnorm_bounds

    def recording(part):
        sizes.append(part.nbytes)
        return bounds(part)

    monkeypatch.setattr(linops, "_opnorm_bounds", recording)
    assert sup_opnorm(stack) == sup_opnorm_reference(stack)
    assert len(sizes) == chunks and sum(sizes) == stack.nbytes
    assert max(sizes) <= max(512 << 10, n * n * 8)


def test_only_linops_calls_the_svd():
    """One norm helper: every SVD of the package goes through linops."""
    offenders = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "linops.py"
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\bsvd\b", line)]
    assert offenders == []
