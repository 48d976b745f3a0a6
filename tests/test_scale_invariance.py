"""Verdicts that do not depend on units.

`negligible` bounds a residual relative to its scale with no floor, so
scaling every input of a predicate by 2^k, which is exact in binary,
leaves each verdict unchanged.  A Hamiltonian of small norm in particular
is complex-linear only when it really commutes with J.
"""

import json
from dataclasses import astuple

import numpy as np
import pytest

from realqm.dynamics import SymplecticForm, hamiltonian, symplectic_lie_form_check
from realqm.linalg import (
    ConstraintError,
    anticommutes,
    commutes,
    is_antisymmetric,
    is_symmetric,
)
from realqm.realify import (
    ComplexStructure,
    classify,
    conjugation_operator,
    embed_matrix,
    standard_complex_structure,
)
from realqm.states import state_stack
from realqm.tensor import (
    EscapeCheck,
    FactorSpace,
    ProductSpace,
    lift_operator,
    physical_escape_check,
)

from helpers import random_structure, run_cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# Relative size of the off-structure part: its decades straddle abs_tol.
EPS_DECADES = (-14.0, -6.0)


def near_structure(seed, decade):
    """The seeded generator, a random J, the symmetric and antisymmetric
    parts s, a of a random matrix, the J-commuting and J-anticommuting
    parts of s, and eps = 10^decade."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    j = random_structure(rng, d)
    g = rng.standard_normal((2 * d, 2 * d))
    s, a = (g + g.T) / 2.0, (g - g.T) / 2.0
    plus, minus = (s - j.matrix @ s @ j.matrix) / 2.0, (s + j.matrix @ s @ j.matrix) / 2.0
    return rng, j, s, a, plus, minus, 10.0 ** decade


cases = st.tuples(st.integers(0, 2**32 - 1), st.floats(*EPS_DECADES), st.integers(-100, 100))

# Scaling only the matrix under test keeps each residual and each scale
# linear in 2^k, so no product leaves the float range over k in [-900, 900];
# the sums of squares inside the norms do, from about |k| = 510 on.
wide_cases = st.tuples(st.integers(0, 2**32 - 1), st.floats(*EPS_DECADES),
                       st.integers(-900, 900))


@SETTINGS
@given(cases)
def test_predicate_verdicts_are_scale_invariant(case):
    seed, decade, k = case
    _, j, s, a, plus, minus, eps = near_structure(seed, decade)
    c = 2.0 ** k
    for m in (s + eps * a, a + eps * s):
        assert is_symmetric(c * m) is is_symmetric(m)
    for m in (plus + eps * minus, minus + eps * plus):
        assert commutes(c * m, c * j.matrix) is commutes(m, j.matrix)
        assert anticommutes(c * m, c * j.matrix) is anticommutes(m, j.matrix)
        assert commutes(c * m, j.matrix) is commutes(m, j.matrix)


def stack_verdicts(m, j):
    """`state_stack`'s flowed-matrix verdicts, or "asymmetric"."""
    try:
        return state_stack(m, j, density=False).physical.tolist()
    except ConstraintError as exc:
        assert "must be symmetric" in str(exc)
        return "asymmetric"


def predicate_verdicts(m, j):
    """The same verdicts from `is_symmetric` and `commutes`."""
    if not all(is_symmetric(x) for x in m):
        return "asymmetric"
    return [commutes(x, j.matrix) for x in m]


@SETTINGS
@given(wide_cases)
def test_state_stack_verdicts_are_scale_invariant(case):
    seed, decade, k = case
    rng, j, _, _, plus, minus, eps = near_structure(seed, decade)
    n = j.dim
    g = rng.standard_normal((n, n))
    stack = np.array([plus + eps * minus, plus + eps * (g - g.T) / 2.0])

    def verdicts(m):
        return stack_verdicts(m, j)

    def predicates(m):
        return predicate_verdicts(m, j)

    scaled = 2.0 ** k * stack
    assert verdicts(scaled) == verdicts(stack) == predicates(scaled) == predicates(stack)
    for x in scaled:
        assert verdicts(x[np.newaxis]) == predicates(x[np.newaxis])


def test_small_generic_hamiltonian_is_not_complex_linear():
    rng = np.random.default_rng(7)
    j = standard_complex_structure(2)
    g = rng.standard_normal((4, 4))
    for c in (1.0, 1e-12, 1e-40):
        assert not commutes(c * (g + g.T) / 2.0, j.matrix)
    assert commutes(np.zeros((4, 4)), j.matrix)


STATE = '{"physical_density": [0.25, 0.25, 0, 0.25]}'


def matrix_spec(m):
    return json.dumps({"matrix": {"dim": m.shape[0], "entries": m.ravel().tolist()}})


def test_small_generic_hamiltonian_is_rejected_at_long_times(capsys):
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4))
    h = 1e-12 * (g + g.T) / 2.0
    code, out, err = run_cli(capsys, "evolve", "--state", STATE, "--hamiltonian",
                             matrix_spec(h), "--t1", "1e12", "--steps", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("realqm: constraint violated:") and err.count("\n") == 1
    assert "does not commute with the complex structure" in err


def test_si_units_evolve_physically(capsys):
    rng = np.random.default_rng(8)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = 1e-31 * embed_matrix((g + g.conj().T) / 2.0)
    code, out, err = run_cli(capsys, "evolve", "--state", STATE, "--hamiltonian",
                             matrix_spec(h), "--hbar", "1.054571817e-34", "--t1", "1e-3",
                             "--steps", "4")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for row in rows:
        assert abs(row["trace"] - 1.0) <= 1e-12
        assert row["physicality_residual"] <= 1e-12


@SETTINGS
@given(wide_cases)
def test_verdicts_hold_where_the_squares_leave_the_float_range(case):
    seed, decade, k = case
    _, j, s, a, plus, minus, eps = near_structure(seed, decade)
    c = 2.0 ** k
    # numpy warns when the first dot of a norm overflows, as its norm did.
    with np.errstate(over="ignore"):
        for m in (s + eps * a, a + eps * s):
            assert is_symmetric(c * m) is is_symmetric(m)
            assert is_antisymmetric(c * m) is is_antisymmetric(m)
        for m in (plus + eps * minus, minus + eps * plus):
            assert commutes(c * m, j.matrix) is commutes(m, j.matrix)
            assert anticommutes(c * m, j.matrix) is anticommutes(m, j.matrix)


@pytest.mark.parametrize("c", [1.0, 1e200, 1e-200])
def test_symmetry_verdict_survives_overflow_and_underflow(c):
    with np.errstate(over="ignore"):
        assert not is_symmetric(c * np.array([[1.0, 1.0], [-1.0, 1.0]]))
        assert is_antisymmetric(c * np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("c", [1.0, 1e-140, 1e-170, 1e-300])
def test_tiny_antilinear_matrix_does_not_commute_with_j(c):
    j = standard_complex_structure(1).matrix
    m = np.diag([c, -c])
    assert not commutes(m, j)
    assert anticommutes(m, j)


@pytest.mark.parametrize("c", [1e-140, 1e-170])
def test_tiny_antilinear_hamiltonian_is_rejected(capsys, c):
    code, out, err = run_cli(capsys, "evolve",
                             "--state", '{"matrix": {"dim": 2, "entries": [0.5, 0, 0, 0.5]}}',
                             "--hamiltonian", matrix_spec(np.diag([c, -c])))
    assert code == 2
    assert out == ""
    assert err.startswith("realqm: constraint violated:") and err.count("\n") == 1
    assert "does not commute with the complex structure" in err


def to_the_top(m):
    """m times the power of two that puts its largest entry in [2^1023, 2^1024)."""
    return np.ldexp(m, 1024 - np.frexp(np.abs(m).max())[1])


@SETTINGS
@given(st.tuples(st.integers(0, 2**32 - 1), st.floats(*EPS_DECADES), st.integers(520, 1000)))
def test_verdicts_hold_where_a_scale_passes_the_float_range(case):
    # An infinite scale admitted every residual, inf included, and inf * 0
    # or inf - inf gave NaN, which admits none.
    seed, decade, k = case
    _, j, s, a, plus, minus, eps = near_structure(seed, decade)
    c = 2.0 ** k
    space = ProductSpace((FactorSpace(j), FactorSpace.standard(1)))
    for m in (s + eps * a, a + eps * s):
        assert is_symmetric(to_the_top(m)) is is_symmetric(m)
        assert is_antisymmetric(to_the_top(m)) is is_antisymmetric(m)
    for m in (plus + eps * minus, minus + eps * plus):
        assert commutes(c * m, c * j.matrix) is commutes(m, j.matrix)
        assert anticommutes(c * m, c * j.matrix) is anticommutes(m, j.matrix)
        assert commutes(to_the_top(m), j.matrix) is commutes(m, j.matrix)
        lifted = lift_operator(m, 0, space)
        assert (physical_escape_check(to_the_top(lifted), space)
                == physical_escape_check(lifted, space))
    for m in (s + eps * a, a + eps * s, plus + eps * minus, minus + eps * plus):
        # classify's flags but orthogonal and symplectic, which are not homogeneous
        top, flags = classify(to_the_top(m), j), classify(m, j)
        assert (top.symmetric, top.antisymmetric, top.complex_linear, top.complex_antilinear) == (
            flags.symmetric, flags.antisymmetric, flags.complex_linear, flags.complex_antilinear)


def test_orthogonality_and_symplecticity_past_the_float_range():
    # a^T a = I and a^T J a = J are not homogeneous in a, so no power of two
    # keeps their verdicts: a residual past the float range fails, and a
    # residual is judged against |a| where only |a|^2 is past the range.
    # Each of these read orthogonal and symplectic.
    j = standard_complex_structure(2)
    for m, expected in [  # symmetric, antisymmetric, orthogonal, symplectic, linear, antilinear
        (1.5e308 * j.matrix, (False, True, False, False, True, False)),
        (1e200 * np.eye(4), (True, False, False, False, True, False)),
        (0.8e154 * np.eye(4), (True, False, False, False, True, False)),
        (np.diag([1e200, 1e-200] * 2), (True, False, False, True, False, False)),
    ]:
        assert astuple(classify(m, j)) == expected
    for c in (1e200, 0.8e154, 2.0):
        with pytest.raises(ValueError, match="must be antisymmetric and orthogonal"):
            ComplexStructure(c * j.matrix)


def test_a_scale_past_the_float_range_admits_no_residual(capsys):
    big = [[1e308, 1.7e308], [0.0, 1e308]]
    assert not is_symmetric(big) and not is_antisymmetric(big)
    e, f = np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    for c in (2.0 ** 600, 2.0 ** 1000):
        assert not commutes(c * e, c * f) and commutes(c * e, c * e)
        assert anticommutes(c * z, c * x) and not anticommutes(c * z, c * z)
    assert commutes(np.array(big), np.zeros((2, 2)))  # inf * 0 is no scale
    # The escape check judges its operator as the predicates do; it read both
    # verdicts true, which no nonzero operator has.
    space = ProductSpace((FactorSpace.standard(1),) * 2)
    for op, factor, verdicts in [(conjugation_operator(1), 0, (False, True)),
                                 (np.eye(2), 1, (True, False))]:
        lifted = lift_operator(1.5e308 * op, factor, space)
        assert physical_escape_check(lifted, space) == EscapeCheck(*verdicts)
    # {A, A} = 0 holds exactly; (JA)(JA) overflowed to inf - inf, which failed it.
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4))
    w = SymplecticForm(standard_complex_structure(2))
    for c in (1.0, 1e150, 1e160, 1e300):
        a = c * (g + g.T) / 2.0
        assert symplectic_lie_form_check(a, a, np.zeros((4, 4)), w)
    # state_stack judges such a matrix as the predicates do; it flagged this
    # one physical, and m + m^T overflowed in its eigenvalues.
    j = standard_complex_structure(1)
    with pytest.raises(ConstraintError, match="^flowed matrix must be symmetric$"):
        state_stack([big], j, density=False)
    assert state_stack([np.diag([1e308, 1e308])], j, density=False).physical.tolist() == [True]
    assert state_stack([np.diag([1e308, -1e308])], j, density=False).physical.tolist() == [False]
    wide = state_stack([[[1e308, 1.7e308], [1.7e308, 1e308]]], density=False)
    assert wide.min_eigenvalue[0] == pytest.approx(-0.7e308, rel=1e-15)
    with pytest.raises(ConstraintError, match="^Hamiltonian must be symmetric$"):
        hamiltonian(big, standard_complex_structure(1))
    code, out, err = run_cli(capsys, "evolve",
                             "--state", '{"matrix": {"dim": 2, "entries": [0.5, 0, 0, 0.5]}}',
                             "--hamiltonian", matrix_spec(np.array(big)),
                             "--steps", "1", "--t1", "1e-300")
    assert (code, out) == (2, "")
    assert err == "realqm: constraint violated: Hamiltonian must be symmetric\n"


@SETTINGS
@given(st.tuples(st.integers(0, 2**32 - 1), st.floats(*EPS_DECADES), st.integers(500, 1100)))
def test_state_stack_verdicts_hold_where_a_scale_passes_the_float_range(case):
    # Judged at the raw scale, an infinite scale admitted every residual.
    # 2^k stops at the power that puts the largest entry in [2^1023, 2^1024).
    seed, decade, k = case
    _, j, s, a, plus, minus, eps = near_structure(seed, decade)
    stack = np.array([plus + eps * minus, minus + eps * plus, s + eps * a, a + eps * s])
    scaled = np.ldexp(stack, min(k, 1024 - np.frexp(np.abs(stack).max())[1]))
    assert stack_verdicts(scaled, j) == predicate_verdicts(scaled, j)
    for x, m in zip(scaled, stack):
        assert stack_verdicts(x[np.newaxis], j) == predicate_verdicts(x[np.newaxis], j) \
            == predicate_verdicts(m[np.newaxis], j)
