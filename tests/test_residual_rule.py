"""The shared residual rule `linalg.negligible` and the verdicts built on it.

Every "residual is zero" verdict in the package goes through `negligible`.
Each test below keeps the rule its site wrote out by hand before that
(`residual <= abs_tol * max(1, scale)` with the site's own residual and
scale) as a reference, and checks that the site's verdict equals it with
the tolerance placed just below, exactly at and just above every threshold
the seeded inputs meet, where the two are closest to disagreeing.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import realqm
from realqm.dynamics import poisson_bracket, symplectic_form, symplectic_lie_form_check
from realqm.linalg import (
    DEFAULT_TOL,
    ConstraintError,
    Tolerance,
    anticommutes,
    commutes,
    frobenius,
    is_antisymmetric,
    is_symmetric,
    negligible,
)
from realqm.realify import (
    ComplexMatrixRep,
    ComplexStructure,
    classify,
    embed_matrix,
    standard_complex_structure,
)
from realqm.states import (
    DensityMatrix,
    are_orthogonal_states,
    density_matrix,
    physical_from_complex,
    state_stack,
)
from realqm.tensor import (
    FactorSpace,
    _apply_lifted,
    _apply_projector,
    build_product_space,
    lift_operator,
    physical_basis,
    physical_escape_check,
    subspace_projector,
    subspace_unit_relation,
    validate_product_density,
)

SEED = 5150
# Relative offset of the placed tolerances from each threshold.
NEAR = 1e-9


def tol_of(abs_tol: float) -> Tolerance:
    return Tolerance(abs_tol=abs_tol, spectral_gap_tol=max(abs_tol, 1e-8))


def placed(pairs):
    """Tolerances just below, at and just above the flip of each (residual, scale)."""
    tols = []
    for residual, scale in pairs:
        critical = float(residual) / max(1.0, float(scale))
        assert critical > 0.0, "a zero residual has no threshold to place"
        tols += [tol_of(critical * f) for f in (1.0 - NEAR, 1.0, 1.0 + NEAR)]
    return tols


def assert_flips(reference, pairs):
    """The reference verdict is False just below each lone threshold, True above."""
    for residual, scale in pairs:
        critical = residual / max(1.0, scale)
        assert not reference(tol_of(critical * (1.0 - NEAR)))
        assert reference(tol_of(critical * (1.0 + NEAR)))


def random_structure(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((2 * d, 2 * d)))
    return ComplexStructure(d=d, matrix=q @ standard_complex_structure(d).matrix @ q.T)


def sym(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def antisym(rng, n):
    g = rng.standard_normal((n, n))
    return (g - g.T) / 2.0


def split(m, j):
    """The J-commuting and J-anticommuting parts of m."""
    return (m - j @ m @ j) / 2.0, (m + j @ m @ j) / 2.0


# ---------------------------------------------------------------------------
# The predicate itself


class TestPredicate:
    @pytest.mark.parametrize("scale", [0.0, 0.25, 1.0, 3.0, 1e6])
    def test_threshold_passes_and_next_float_fails(self, scale):
        at = DEFAULT_TOL.abs_tol * max(1.0, scale)
        assert negligible(at, scale) is True
        assert negligible(np.nextafter(at, np.inf), scale) is False
        assert negligible(np.nextafter(at, -np.inf), scale) is True

    def test_custom_tolerance(self):
        tol = tol_of(1e-3)
        assert negligible(2e-3, 2.0, tol) is True
        assert negligible(np.nextafter(2e-3, 1.0), 2.0, tol) is False

    def test_nan_residual_fails(self):
        assert negligible(np.nan, 1.0) is False
        assert negligible(float("nan"), np.inf) is False
        assert not negligible(np.array([np.nan, 0.0]), np.ones(2))[0]

    def test_nan_scale_counts_as_one_like_python_max(self):
        assert max(1.0, float("nan")) == 1.0
        assert negligible(DEFAULT_TOL.abs_tol, np.nan) is True
        assert negligible(np.nextafter(DEFAULT_TOL.abs_tol, 1.0), np.nan) is False
        at = DEFAULT_TOL.abs_tol
        np.testing.assert_array_equal(
            negligible(np.array([at, np.nextafter(at, 1.0)]), np.array([np.nan, np.nan])),
            [True, False])

    @pytest.mark.parametrize("residual,scale", [(0.0, 1.0), (1.0, 1.0), (np.float64(0.0), 2),
                                                (np.array(0.0), np.array(1.0))])
    def test_scalars_give_python_bool(self, residual, scale):
        assert type(negligible(residual, scale)) is bool

    def test_stacks_give_bool_arrays(self):
        verdict = negligible(np.array([0.0, 1e-10, 3e-10, 1.0]), np.array([0.5, 1.0, 3.0, 5.0]))
        assert isinstance(verdict, np.ndarray) and verdict.dtype == bool
        np.testing.assert_array_equal(verdict, [True, True, True, False])

    def test_rule_is_written_once(self):
        src = Path(realqm.__file__).parent
        hits = [(path.name, line) for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines() if re.search(r"abs_tol \*", line)]
        assert len(hits) == 1 and hits[0][0] == "linalg.py"


# ---------------------------------------------------------------------------
# linalg


def ref_is_symmetric(a, tol):
    return frobenius(a - a.T) <= tol.abs_tol * max(1.0, frobenius(a))


def ref_is_antisymmetric(a, tol):
    return frobenius(a + a.T) <= tol.abs_tol * max(1.0, frobenius(a))


def ref_commutes(a, b, tol):
    scale = max(1.0, frobenius(a) * frobenius(b))
    return frobenius(a @ b - b @ a) <= tol.abs_tol * scale


def ref_anticommutes(a, b, tol):
    scale = max(1.0, frobenius(a) * frobenius(b))
    return frobenius(a @ b + b @ a) <= tol.abs_tol * scale


# Magnitudes on both sides of the max(1, scale) floor.
MAGNITUDES = [0.01, 0.3, 1.0, 7.0]


class TestLinalgPredicates:
    @pytest.mark.parametrize("size", MAGNITUDES)
    def test_symmetry(self, size):
        rng = np.random.default_rng(SEED)
        for n in (2, 4, 8):
            a = size * (sym(rng, n) + 1e-9 * antisym(rng, n))
            pairs = [(frobenius(a - a.T), frobenius(a))]
            assert_flips(lambda t: ref_is_symmetric(a, t), pairs)
            for tol in placed(pairs):
                assert is_symmetric(a, tol) is ref_is_symmetric(a, tol)

    @pytest.mark.parametrize("size", MAGNITUDES)
    def test_antisymmetry(self, size):
        rng = np.random.default_rng(SEED + 1)
        for n in (2, 4, 8):
            a = size * (antisym(rng, n) + 1e-9 * sym(rng, n))
            pairs = [(frobenius(a + a.T), frobenius(a))]
            assert_flips(lambda t: ref_is_antisymmetric(a, t), pairs)
            for tol in placed(pairs):
                assert is_antisymmetric(a, tol) is ref_is_antisymmetric(a, tol)

    @pytest.mark.parametrize("size", MAGNITUDES)
    def test_commutes_and_anticommutes(self, size):
        rng = np.random.default_rng(SEED + 2)
        for d in (1, 2, 4):
            j = random_structure(rng, d).matrix
            plus, minus = split(rng.standard_normal((2 * d, 2 * d)), j)
            for a, check, ref, sign in [(plus + 1e-9 * minus, commutes, ref_commutes, -1.0),
                                        (minus + 1e-9 * plus, anticommutes, ref_anticommutes,
                                         1.0)]:
                a = size * a
                residual = a @ j - j @ a if sign < 0 else a @ j + j @ a
                pairs = [(frobenius(residual), frobenius(a) * frobenius(j))]
                assert_flips(lambda t: ref(a, j, t), pairs)
                for tol in placed(pairs):
                    assert check(a, j, tol) is ref(a, j, tol)


# ---------------------------------------------------------------------------
# states


def ref_stack_symmetric(m, tol):
    norms = np.linalg.norm(m, axis=(1, 2))
    return (np.linalg.norm(m - m.transpose(0, 2, 1), axis=(1, 2))
            <= tol.abs_tol * np.maximum(1.0, norms))


def stack_physicality(m, j):
    norms = np.linalg.norm(m, axis=(1, 2))
    return np.linalg.norm(m @ j - j @ m, axis=(1, 2)), norms * frobenius(j)


def ref_stack_physical(m, j, tol):
    residual, scale = stack_physicality(m, j)
    return residual <= tol.abs_tol * np.maximum(1.0, scale)


def ref_orthogonal_states(r1, r2, tol):
    scale = max(1.0, frobenius(r1) * frobenius(r2))
    return (frobenius(r1 @ r2) <= tol.abs_tol * scale
            and frobenius(r2 @ r1) <= tol.abs_tol * scale)


def near_physical_density(rng, d, eps):
    """A full-rank physical density matrix for the standard J, plus eps times
    a symmetric, traceless, J-anticommuting matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho_c = g @ g.conj().T + 0.5 * np.eye(d)
    rho = physical_from_complex(ComplexMatrixRep.from_complex(rho_c / np.trace(rho_c).real))
    _, minus = split(sym(rng, 2 * d), standard_complex_structure(d).matrix)
    return rho.matrix + eps * minus


class TestStates:
    def _stack(self, rng, j, count):
        """Symmetric matrices whose J-anticommuting parts span five decades."""
        n = j.shape[0]
        mats = []
        for k in range(count):
            plus, minus = split(sym(rng, n), j)
            mats.append((0.2 if k % 2 else 5.0) * (plus + 10.0 ** (-6 - 5 * k / count) * minus))
        return np.array(mats)

    def test_batched_physicality(self):
        rng = np.random.default_rng(SEED + 3)
        j = random_structure(rng, 3)
        m = self._stack(rng, j.matrix, 12)
        residual, scale = stack_physicality(m, j.matrix)
        for tol in placed(zip(residual, scale)):
            got = state_stack(m, j, tol, density=False).physical
            want = ref_stack_physical(m, j.matrix, tol)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want)
        # Each placed pair flips exactly its own entry.
        k = 4
        critical = residual[k] / max(1.0, scale[k])
        below = ref_stack_physical(m, j.matrix, tol_of(critical * (1 - NEAR)))
        above = ref_stack_physical(m, j.matrix, tol_of(critical * (1 + NEAR)))
        assert not below[k] and above[k]

    def test_batched_symmetry(self):
        rng = np.random.default_rng(SEED + 4)
        n, count = 6, 10
        m = np.array([(0.2 if k % 2 else 5.0)
                      * (sym(rng, n) + 10.0 ** (-6 - 5 * k / count) * antisym(rng, n))
                      for k in range(count)])
        norms = np.linalg.norm(m, axis=(1, 2))
        residual = np.linalg.norm(m - m.transpose(0, 2, 1), axis=(1, 2))
        times = np.arange(count, dtype=float)
        for tol in placed(zip(residual, norms)):
            want = ref_stack_symmetric(m, tol)
            if want.all():
                state_stack(m, None, tol, times=times, density=False)
                continue
            first = int(np.argmin(want))
            with pytest.raises(ConstraintError, match=rf"must be symmetric at t = {first}\.0$"):
                state_stack(m, None, tol, times=times, density=False)

    @pytest.mark.parametrize("eps", [1e-7, 1e-4])
    def test_single_state_physicality(self, eps):
        rng = np.random.default_rng(SEED + 5)
        j = standard_complex_structure(3)
        m = near_physical_density(rng, 3, eps)
        residual, scale = stack_physicality(m[np.newaxis], j.matrix)
        pairs = [(residual[0], scale[0])]
        assert_flips(lambda t: bool(ref_stack_physical(m[np.newaxis], j.matrix, t)[0]), pairs)
        for tol in placed(pairs):
            got = density_matrix(m, j, tol).physical
            assert got is bool(ref_stack_physical(m[np.newaxis], j.matrix, tol)[0])

    def test_single_state_symmetry(self):
        rng = np.random.default_rng(SEED + 6)
        j = standard_complex_structure(2)
        m = near_physical_density(rng, 2, 0.0) + 1e-8 * antisym(rng, 4)
        pairs = [(frobenius(m - m.T), frobenius(m))]
        for tol in placed(pairs):
            if ref_stack_symmetric(m[np.newaxis], tol)[0]:
                density_matrix(m, j, tol)
            else:
                with pytest.raises(ConstraintError, match="must be symmetric"):
                    density_matrix(m, j, tol)

    @pytest.mark.parametrize("size", [0.1, 1.0, 10.0])
    def test_orthogonal_states(self, size):
        rng = np.random.default_rng(SEED + 7)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        r1 = size * q[:, :2] @ np.diag([0.7, 0.3]) @ q[:, :2].T
        r2 = q[:, 2:5] @ np.diag([0.5, 0.3, 0.2]) @ q[:, 2:5].T
        r2 = r2 + 1e-8 * (q[:, :1] @ q[:, 2:3].T + q[:, 2:3] @ q[:, :1].T)
        s1, s2 = DensityMatrix(r1, physical=False), DensityMatrix(r2, physical=False)
        scale = frobenius(r1) * frobenius(r2)
        pairs = [(frobenius(r1 @ r2), scale), (frobenius(r2 @ r1), scale)]
        for tol in placed(pairs):
            assert are_orthogonal_states(s1, s2, tol) is ref_orthogonal_states(r1, r2, tol)


# ---------------------------------------------------------------------------
# dynamics and realify


def ref_lie_form(a, b, c, jm, hbar, tol):
    lhs = (jm @ a) @ (jm @ b) - (jm @ b) @ (jm @ a)
    rhs = -hbar * (jm @ c)
    scale = max(1.0, frobenius(a) * frobenius(b))
    return frobenius(lhs - rhs) <= tol.abs_tol * scale


def ref_classify(a, jm, tol):
    fro = frobenius(a)
    eye = np.eye(a.shape[0])
    quad_scale = max(1.0, fro * fro)
    return (frobenius(a.T @ a - eye) <= tol.abs_tol * quad_scale,
            frobenius(a.T @ jm @ a - jm) <= tol.abs_tol * quad_scale)


class TestDynamicsAndRealify:
    @pytest.mark.parametrize("size", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("hbar", [0.5, 1.0])
    def test_symplectic_lie_form(self, size, hbar):
        rng = np.random.default_rng(SEED + 8)
        j = random_structure(rng, 2)
        jm = j.matrix
        a, b = size * sym(rng, 4), sym(rng, 4)
        c = poisson_bracket(a, b, symplectic_form(j, hbar)) + 1e-8 * sym(rng, 4)
        lhs = (jm @ a) @ (jm @ b) - (jm @ b) @ (jm @ a)
        pairs = [(frobenius(lhs + hbar * (jm @ c)), frobenius(a) * frobenius(b))]
        assert_flips(lambda t: ref_lie_form(a, b, c, jm, hbar, t), pairs)
        for tol in placed(pairs):
            assert (symplectic_lie_form_check(a, b, c, j, hbar, tol)
                    is ref_lie_form(a, b, c, jm, hbar, tol))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_orthogonal_and_symplectic_flags(self, d):
        rng = np.random.default_rng(SEED + 9 + d)
        j = standard_complex_structure(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        a = embed_matrix(ComplexMatrixRep.from_complex(u)) + 1e-9 * rng.standard_normal(
            (2 * d, 2 * d))
        fro = frobenius(a)
        pairs = [(frobenius(a.T @ a - np.eye(2 * d)), fro * fro),
                 (frobenius(a.T @ j.matrix @ a - j.matrix), fro * fro)]
        for tol in placed(pairs):
            flags = classify(a, j, tol)
            assert (flags.orthogonal, flags.symplectic) == ref_classify(a, j.matrix, tol)
            assert type(flags.orthogonal) is bool and type(flags.symplectic) is bool


# ---------------------------------------------------------------------------
# tensor


def ref_subspace_unit_relation(space, signs, tol):
    projector = subspace_projector(space, signs)
    dims = [f.dim for f in space.factors]
    first = _apply_lifted(space.factors[0].j.matrix, 0, dims, projector)
    scale = max(1.0, float(space.dim))
    for k, sign in enumerate(signs, start=1):
        residual = first - sign * _apply_lifted(space.factors[k].j.matrix, k, dims,
                                                projector)
        if frobenius(residual) > tol.abs_tol * scale:
            return False
    return True


def unit_relation_residuals(space, signs):
    projector = subspace_projector(space, signs)
    dims = [f.dim for f in space.factors]
    first = _apply_lifted(space.factors[0].j.matrix, 0, dims, projector)
    return [(frobenius(first - sign * _apply_lifted(space.factors[k].j.matrix, k, dims,
                                                    projector)), space.dim)
            for k, sign in enumerate(signs, start=1)]


def ref_escape(lifted, space, tol):
    signs = [1] * (len(space.factors) - 1)
    limit = tol.abs_tol * max(1.0, frobenius(lifted))
    l_p = _apply_projector(space.factors, signs, lifted, right=True)
    within = frobenius(l_p - _apply_projector(space.factors, signs, lifted)) <= limit
    across = frobenius(_apply_projector(space.factors, signs, l_p)) <= limit
    return within, across


def escape_residuals(lifted, space):
    signs = [1] * (len(space.factors) - 1)
    l_p = _apply_projector(space.factors, signs, lifted, right=True)
    return [(frobenius(l_p - _apply_projector(space.factors, signs, lifted)), frobenius(lifted)),
            (frobenius(_apply_projector(space.factors, signs, l_p)), frobenius(lifted))]


def density_residuals(rho, space):
    signs = [1] * (len(space.factors) - 1)
    dims = [f.dim for f in space.factors]
    rho_p = _apply_projector(space.factors, signs, rho, right=True)
    residuals = [frobenius(rho - _apply_projector(space.factors, signs, rho)),
                 frobenius(rho - rho_p),
                 frobenius(rho - _apply_projector(space.factors, signs, rho_p))]
    residuals += [frobenius(_apply_lifted(f.j.matrix, k, dims, rho, right=True)
                            - _apply_lifted(f.j.matrix, k, dims, rho))
                  for k, f in enumerate(space.factors)]
    return residuals


def ref_validate(rho, space, tol):
    signs = [1] * (len(space.factors) - 1)
    limit = tol.abs_tol * max(1.0, frobenius(rho))

    def unchanged(compressed):
        return frobenius(rho - compressed) <= limit

    if not unchanged(_apply_projector(space.factors, signs, rho)):
        return False
    rho_p = _apply_projector(space.factors, signs, rho, right=True)
    if not (unchanged(rho_p) and unchanged(_apply_projector(space.factors, signs, rho_p))):
        return False
    dims = [f.dim for f in space.factors]
    for k, factor in enumerate(space.factors):
        j = factor.j.matrix
        commutator = (_apply_lifted(j, k, dims, rho, right=True)
                      - _apply_lifted(j, k, dims, rho))
        if frobenius(commutator) > limit:
            return False
    return True


TENSOR_SHAPES = [[1, 1], [1, 2], [1, 1, 1]]


def rotated_space(rng, ds):
    return build_product_space([FactorSpace(d=d, j=random_structure(rng, d)) for d in ds])


class TestTensor:
    @pytest.mark.parametrize("ds", TENSOR_SHAPES)
    def test_subspace_unit_relation(self, ds):
        rng = np.random.default_rng(SEED + 20 + sum(ds))
        space = rotated_space(rng, ds)
        for signs in ([1] * (len(ds) - 1), [-1] * (len(ds) - 1)):
            pairs = [p for p in unit_relation_residuals(space, signs) if p[0] > 0.0]
            assert pairs, "roundoff-free residuals leave no threshold to place"
            for tol in placed(pairs):
                assert (subspace_unit_relation(space, signs, tol)
                        is ref_subspace_unit_relation(space, signs, tol))

    @pytest.mark.parametrize("ds", TENSOR_SHAPES)
    @pytest.mark.parametrize("size", [0.05, 3.0])
    def test_escape_check(self, ds, size):
        rng = np.random.default_rng(SEED + 30 + sum(ds))
        space = rotated_space(rng, ds)
        j0 = space.factors[0].j.matrix
        plus, minus = split(rng.standard_normal(j0.shape), j0)
        for op in (plus + 1e-9 * minus, minus + 1e-9 * plus):
            lifted = size * lift_operator(op, 0, space)
            for tol in placed(escape_residuals(lifted, space)):
                got = physical_escape_check(lifted, space, tol)
                assert (got.maps_within, got.maps_across) == ref_escape(lifted, space, tol)

    @pytest.mark.parametrize("ds", TENSOR_SHAPES)
    @pytest.mark.parametrize("size", [1.0, 5.0])
    def test_product_density(self, ds, size):
        rng = np.random.default_rng(SEED + 40 + sum(ds))
        space = rotated_space(rng, ds)
        basis = physical_basis(space)
        r = basis.shape[1] // 2
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        inner = embed_matrix(ComplexMatrixRep.from_complex(g @ g.conj().T))
        rho = basis @ inner @ basis.T
        # The trace is not checked, so size > 1 puts the scale above the floor.
        rho = size * (rho / np.trace(rho) + 1e-9 * sym(rng, space.dim))
        scale = frobenius(rho)
        for tol in placed([(res, scale) for res in density_residuals(rho, space)]):
            got = validate_product_density(rho, space, tol)
            assert got is ref_validate(rho, space, tol)
