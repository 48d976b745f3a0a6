"""The tensor layer's unsigned projector kernel and in-place residuals.

A sign pattern's projector is the physical projector of the product with
each factor k where s_k = -1 conjugated (J_k -> -J_k), so one unsigned
kernel serves every pattern; each step writes x - U_0 U_k x into the
flipped temporary, and each residual is written into a temporary the
function owns.  The previous signed three-pass step, the previous residual
expressions and the previous three-test density check are kept below,
verbatim, as the bit-for-bit reference.  Every public function must leave
its inputs untouched, read-only ones included.
"""

import contextlib
import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest

from realqm import linalg, tensor
from realqm.linalg import DEFAULT_TOL, Tolerance, as_real_matrix, frobenius, negligible
from realqm.realify import standard_complex_structure
from realqm.tensor import (
    EscapeCheck,
    FactorSpace,
    ProductSpace,
    _apply_lifted,
    _apply_projector,
    _conjugated_units,
    build_product_space,
    lift_operator,
    physical_basis,
    physical_escape_check,
    subspace_projector,
    subspace_unit_relation,
    validate_product_density,
)
from helpers import random_structure
from test_tensor import _split, rotated_space

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

FACTOR_LISTS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (1, 2, 1), (2, 1, 2))

# Every tolerance passes, so every residual of a function is computed.
ACCEPT_ALL = Tolerance(abs_tol=np.inf)


# ---------------------------------------------------------------------------
# Reference: the previous three-pass step and residual expressions, unchanged.


def _old_apply_projector(factors, signs, x: np.ndarray, right: bool = False) -> np.ndarray:
    """prod_k (I - s_k U_0 U_k)/2 times x, from the left (or the right)."""
    dims = [f.dim for f in factors]
    j0 = factors[0].j.matrix
    for k, sign in enumerate(signs, start=1):
        flipped = _apply_lifted(
            j0, 0, dims, _apply_lifted(factors[k].j.matrix, k, dims, x, right), right)
        # x <- (x - sign * flipped) / 2, in place to spare two n x c temporaries
        flipped *= -sign
        flipped += x
        flipped *= 0.5
        x = flipped
    return x


def _old_subspace_unit_relation(space, signs, tol=DEFAULT_TOL) -> bool:
    signs = list(signs)
    projector = _old_apply_projector(space.factors, signs, np.eye(space.dim))
    dims = [f.dim for f in space.factors]
    first = _apply_lifted(space.factors[0].j.matrix, 0, dims, projector)
    for k, sign in enumerate(signs, start=1):
        other = _apply_lifted(space.factors[k].j.matrix, k, dims, projector)
        if not negligible(frobenius(first - sign * other), space.dim, tol):
            return False
    return True


def _old_physical_escape_check(lifted, space, tol=DEFAULT_TOL) -> EscapeCheck:
    lifted = as_real_matrix(lifted)
    if lifted.shape[0] != space.dim:
        raise ValueError("operator dimension does not match the product space")
    signs = [1] * (len(space.factors) - 1)
    scale = frobenius(lifted)
    l_p = _old_apply_projector(space.factors, signs, lifted, right=True)
    within = negligible(frobenius(l_p - _old_apply_projector(space.factors, signs, lifted)),
                        scale, tol)
    # (I - P) L P - L P = -P L P, so P L P alone decides "across".
    across = negligible(frobenius(_old_apply_projector(space.factors, signs, l_p)), scale, tol)
    return EscapeCheck(maps_within=within, maps_across=across)


def _old_validate_product_density(rho, space, tol=DEFAULT_TOL) -> bool:
    rho = as_real_matrix(rho)
    if rho.shape[0] != space.dim:
        raise ValueError("state dimension does not match the product space")
    signs = [1] * (len(space.factors) - 1)
    scale = frobenius(rho)

    def unchanged(compressed):
        return negligible(frobenius(rho - compressed), scale, tol)

    if not unchanged(_old_apply_projector(space.factors, signs, rho)):
        return False
    rho_p = _old_apply_projector(space.factors, signs, rho, right=True)
    if not (unchanged(rho_p) and unchanged(_old_apply_projector(space.factors, signs, rho_p))):
        return False
    dims = [f.dim for f in space.factors]
    return all(negligible(frobenius(_apply_lifted(f.j.matrix, k, dims, rho, right=True)
                                    - _apply_lifted(f.j.matrix, k, dims, rho)), scale, tol)
               for k, f in enumerate(space.factors))


# ---------------------------------------------------------------------------
# Inputs


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _space(rng, ds, rotated: bool) -> ProductSpace:
    """A product space whose factor J matrices are all read-only."""
    space = (rotated_space(rng, ds) if rotated
             else build_product_space([FactorSpace.standard(d) for d in ds]))
    for f in space.factors:
        _read_only(f.j.matrix)
    return space


def _operator(rng, space, kind: str) -> np.ndarray:
    """A generic operator, or a lifted J-commuting or antilinear one."""
    if kind == "generic":
        return rng.standard_normal((space.dim, space.dim))
    k = int(rng.integers(len(space.factors)))
    linear, antilinear = _split(rng, space.factors[k].j.matrix)
    return lift_operator(linear if kind == "linear" else antilinear, k, space)


def _state(rng, space, kind: str) -> np.ndarray:
    """A generic symmetric matrix, or a physical state built on the physical basis."""
    if kind == "generic":
        g = rng.standard_normal((space.dim, space.dim))
        return (g + g.T) / 2.0
    basis = physical_basis(space)
    j = standard_complex_structure(basis.shape[1] // 2).matrix
    g = rng.standard_normal((basis.shape[1],) * 2)
    m = g @ g.T
    m = (m - j @ m @ j) / 2.0
    return basis @ (m / np.trace(m)) @ basis.T


def _scaled(rng, a: np.ndarray, k: int, zeros: float) -> np.ndarray:
    """a * 2^k with a share of its entries set to signed zeros."""
    a = a * 2.0 ** k
    mask = rng.uniform(size=a.shape) < zeros
    a[mask] = np.copysign(0.0, rng.choice((-1.0, 1.0), size=int(mask.sum())))
    return a


def _past_the_early_range(a: np.ndarray) -> np.ndarray:
    """a scaled so that its largest entry is 2^1010, past the scale of 2^1000
    up to which the checks take early verdicts; zero stays zero."""
    big = np.abs(a).max()
    return _read_only(a / big * 2.0 ** 1010 if big else a.copy())


def _signs(data, n: int) -> list[int]:
    """n signs of +-1, mixed or not."""
    return data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))


@contextlib.contextmanager
def _recorded_residuals():
    """Record the bytes of every array whose norm `tensor` or the reference takes."""
    seen = []

    def record(a):
        seen.append(a.tobytes())
        return linalg.frobenius(a)

    with mock.patch.object(tensor, "frobenius", record), \
            mock.patch.object(sys.modules[__name__], "frobenius", record):
        yield seen


CASE = st.fixed_dictionaries({
    "ds": st.sampled_from(FACTOR_LISTS),
    "rotated": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
    # 2^-1070 puts every entry in the subnormal range.
    "k": st.one_of(st.integers(-1070, 0), st.sampled_from((-1074, -1060, -1022, -600, 0))),
    "zeros": st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    "kind": st.sampled_from(("generic", "linear", "antilinear")),
})


# ---------------------------------------------------------------------------
# Bit-exactness against the reference


@SETTINGS
@given(CASE, st.data())
def test_projector_steps_match_the_three_pass_reference(case, data):
    rng = np.random.default_rng(case["seed"])
    space = _space(rng, case["ds"], case["rotated"])
    signs = _signs(data, len(case["ds"]) - 1)
    x = _read_only(_scaled(rng, rng.standard_normal((space.dim, space.dim)),
                           case["k"], case["zeros"]))
    units = _conjugated_units(space, signs)
    for right in (False, True):
        got = _apply_projector(units, x, right)
        want = _old_apply_projector(space.factors, signs, x, right)
        if all(s == 1 for s in signs):
            assert got.tobytes() == want.tobytes()
        # A negated J_k gives -y for y = U_0 U_k x bit for bit, except that a
        # sum of zeros of both signs is +0 either way; so on a block holding
        # signed zeros the two steps can differ in the sign of a zero entry.
        # Adding +0.0 maps -0 to +0 and leaves every other value as it is.
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


@st.composite
def _factor_lists(draw):
    """Complex factor dimensions, two or more, with a real product dimension of at most 256."""
    ds = [draw(st.integers(1, 8)), draw(st.integers(1, 8))]
    while draw(st.booleans()):
        d = draw(st.integers(1, 4))
        if math.prod(ds) * d * 2 ** (len(ds) + 1) > tensor.MAX_PRODUCT_DIM:
            break
        ds.append(d)
    return tuple(ds)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_factor_lists(), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_sign_pattern_is_the_conjugated_physical_projector(ds, rotated, seed):
    """Negating J_k where s_k = -1 reproduces the signed projector bit for bit."""
    rng = np.random.default_rng(seed)
    space = build_product_space([FactorSpace(random_structure(rng, d)) if rotated
                                 else FactorSpace.standard(d) for d in ds])
    for signs in itertools.product((1, -1), repeat=len(ds) - 1):
        want = _old_apply_projector(space.factors, signs, np.eye(space.dim))
        assert subspace_projector(space, signs).tobytes() == want.tobytes()
    assert (space.physical_projector.tobytes()
            == subspace_projector(space, [1] * (len(ds) - 1)).tobytes())


def _escape_residuals(lifted, space) -> list[bytes]:
    """The arrays the escape check takes norms of, in its order, from the
    reference kernel: L, P L P, L P - P L P and L P - P L."""
    signs = [1] * (len(space.factors) - 1)
    l_p = _old_apply_projector(space.factors, signs, lifted, right=True)
    p_l_p = _old_apply_projector(space.factors, signs, l_p)
    p_l = _old_apply_projector(space.factors, signs, lifted)
    return [a.tobytes() for a in (lifted, p_l_p, l_p - p_l_p, l_p - p_l)]


@SETTINGS
@given(CASE)
def test_escape_residuals_and_verdicts_match_the_reference(case):
    """Each norm the check takes is of an array bit for bit the reference's;
    PL, the last, is taken unless L is exactly symmetric inside the early
    range (here: L is not zero and its scale is at most 2^1000)."""
    rng = np.random.default_rng(case["seed"])
    space = _space(rng, case["ds"], case["rotated"])
    lifted = _read_only(_scaled(rng, _operator(rng, space, case["kind"]),
                                case["k"], case["zeros"]))
    assert physical_escape_check(lifted, space) == _old_physical_escape_check(lifted, space)
    symmetric = _read_only((lifted + lifted.T) / 2.0)
    for op, in_range in ((lifted, True), (symmetric, True),
                         (_past_the_early_range(symmetric), False)):
        with _recorded_residuals() as got:
            physical_escape_check(op, space, ACCEPT_ALL)
        want = _escape_residuals(op, space)
        early = in_range and op.any() and np.array_equal(op, op.T)
        assert got == (want[:3] if early else want)


@SETTINGS
@given(CASE)
def test_density_residuals_and_verdicts_match_the_reference(case):
    """Each norm the check takes is of an array bit for bit the reference's:
    rho, rho - P rho P, then [rho, U_0] and, outside the early range (here
    a scale past 2^1000), every other [rho, U_k]."""
    rng = np.random.default_rng(case["seed"])
    space = _space(rng, case["ds"], case["rotated"])
    kind = "generic" if case["kind"] == "generic" else "physical"
    rho = _read_only(_scaled(rng, _state(rng, space, kind), case["k"], case["zeros"]))
    assert validate_product_density(rho, space) == _old_validate_product_density(rho, space)
    for state, early in ((rho, True), (_past_the_early_range(rho), False)):
        with _recorded_residuals() as got:
            validate_product_density(state, space, ACCEPT_ALL)
        with _recorded_residuals() as want:
            _old_validate_product_density(state, space, ACCEPT_ALL)
        if not state.any():  # 0 <= inf * 0 is false, so each stops at its first test
            assert len(got) == len(want) == 2
        else:  # the reference's rho - P rho and rho - rho P tests are gone
            assert got == [want[0], *want[3:]][:3 if early else None]


@SETTINGS
@given(CASE, st.sampled_from(("generic", "across", "outside")), st.integers(-17, -4))
def test_one_projector_test_gives_the_three_test_verdict(case, part, e):
    """|rho - P rho P| alone decides as the three tests did, with tolerances
    at and above the size of a perturbation of a physical state.

    The perturbation is generic, or confined to P g (I - P) + its transpose,
    or to (I - P) g (I - P), which P annihilates from either side.
    """
    rng = np.random.default_rng(case["seed"])
    space = _space(rng, case["ds"], case["rotated"])
    rho = _state(rng, space, "physical")
    g = rng.standard_normal((space.dim, space.dim))
    p = space.physical_projector
    q = np.eye(space.dim) - p
    g = {"generic": g, "across": p @ g @ q, "outside": q @ g @ q}[part]
    rho = _scaled(rng, rho + 10.0 ** e * (g + g.T), case["k"], case["zeros"])
    for tol in (DEFAULT_TOL, *(Tolerance(abs_tol=10.0 ** (e + i)) for i in (0, 1, 2))):
        assert (validate_product_density(rho, space, tol)
                == _old_validate_product_density(rho, space, tol))


@SETTINGS
@given(CASE, st.data())
def test_unit_relation_residuals_and_verdicts_match_the_reference(case, data):
    rng = np.random.default_rng(case["seed"])
    space = _space(rng, case["ds"], case["rotated"])
    signs = _signs(data, len(case["ds"]) - 1)
    assert subspace_unit_relation(space, signs) == _old_subspace_unit_relation(space, signs)
    with _recorded_residuals() as got:
        subspace_unit_relation(space, signs, ACCEPT_ALL)
    with _recorded_residuals() as want:
        _old_subspace_unit_relation(space, signs, ACCEPT_ALL)
    assert got == want


def test_verdicts_of_each_kind_are_reached():
    """The generated inputs reach both verdicts of every check."""
    rng = np.random.default_rng(5)
    space = _space(rng, (2, 2), rotated=True)
    assert {physical_escape_check(_operator(rng, space, kind), space)
            for kind in ("generic", "linear", "antilinear")} == {
        EscapeCheck(False, False), EscapeCheck(True, False), EscapeCheck(False, True)}
    assert [validate_product_density(_state(rng, space, kind), space)
            for kind in ("generic", "physical")] == [False, True]


# ---------------------------------------------------------------------------
# Purity and aliasing


@pytest.mark.parametrize("ds", [(1, 2), (2, 1, 1)])
@pytest.mark.parametrize("rotated", [False, True])
def test_public_functions_leave_read_only_inputs_untouched(ds, rotated):
    rng = np.random.default_rng(17)
    space = _space(rng, ds, rotated)
    lifted = _read_only(_operator(rng, space, "generic"))
    rho = _read_only(_state(rng, space, "physical"))
    op = _read_only(rng.standard_normal((space.factors[0].dim,) * 2))
    inputs = [lifted, rho, op, *(f.j.matrix for f in space.factors)]
    before = [a.tobytes() for a in inputs]
    signs = [1] + [-1] * (len(ds) - 2)
    physical_escape_check(lifted, space)
    assert validate_product_density(rho, space)
    subspace_projector(space, signs)
    subspace_unit_relation(space, signs)
    lift_operator(op, 0, space)
    physical_basis(space)
    assert [a.tobytes() for a in inputs] == before
