"""The structural dataclasses check their own fields.

A `ComplexStructure` is a finite, antisymmetric and orthogonal matrix, so
of even size 2d, and derives d; a `FactorSpace` reads its d and dimension
off its `J`; a `ProductSpace` has two or more factors and derives its
dimension, their product, at most `MAX_PRODUCT_DIM`; a `SymplecticForm`
holds a `J` and a positive, finite hbar and derives Omega = -J/hbar.  A
`DensityMatrix` is a finite, symmetric, PSD, unit-trace matrix and a
`Hamiltonian` a finite, symmetric one, each holding that matrix alone: whether
it commutes with a `J` is asked of `commutes` at the `J` in hand, so neither
takes a verdict (`physical`, `complex_linear`) as an argument.  Each invariant
needs no outside `J`, so a build with inconsistent fields raises ValueError;
a derived field (`ComplexStructure.d`, `FactorSpace.d`, `ProductSpace.dim`,
`SymplecticForm.omega`, `Tolerance.spectral_gap_tol`, the matrices of a `CanonicalPair` and of a
`FermionicStructure`) is no argument at all, and neither is the time a
`Propagator` was built for.  A type that holds arrays compares and hashes
by identity.
"""

import copy
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import realqm
from realqm import dynamics, linalg, oscillator, states, tensor
from realqm.dynamics import Hamiltonian, SymplecticForm
from realqm.realify import ComplexStructure, split_linear_antilinear, standard_complex_structure
from realqm.states import DensityMatrix
from realqm.tensor import MAX_PRODUCT_DIM, FactorSpace, ProductSpace

from helpers import random_structure, run_cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)

VALUE_KINDS = ("non_finite", "non_square", "asymmetric", "flag")
BAD_HBAR = ("zero", "negative", "nan", "inf")
KINDS = ("size", "scaled", "perturbed", "symmetric", "non_finite", "propagator",
         *(f"form_{k}" for k in (*BAD_HBAR, "omega")),
         *(f"state_{k}" for k in (*VALUE_KINDS, "off_trace", "negative")),
         *(f"generator_{k}" for k in VALUE_KINDS))
# The error and message of a kind's bad build, where any ValueError is not enough.
RAISES = {"size": (TypeError, "'d'"), "propagator": (TypeError, "'t'"),
          "form_omega": (TypeError, "omega"), "state_flag": (TypeError, "'physical'"),
          "generator_flag": (TypeError, "'complex_linear'"),
          **{f"form_{k}": (ValueError, "hbar must be positive") for k in BAD_HBAR}}


def value_builds(rng, n, kind):
    """A consistent direct build of a state or generator and an inconsistent one."""
    cls, kind = kind.split("_", 1)
    cls = DensityMatrix if cls == "state" else Hamiltonian
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    # A state's spectrum is a probability vector; any symmetric matrix generates.
    weights = rng.standard_normal(n) if cls is Hamiltonian else rng.dirichlet(np.ones(n))
    good = (q * weights) @ q.T
    bad = good.copy()
    if kind == "non_finite":
        bad[tuple(rng.integers(0, n, size=2))] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "non_square":
        bad = bad[:, :-1]
    elif kind == "asymmetric":
        g = rng.standard_normal((n, n))
        bad += 1e-6 * (g - g.T)
    elif kind == "off_trace":
        bad *= rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 3.0)])
    elif kind == "negative":  # unit trace, one eigenvalue well below -1e-10
        low = rng.uniform(1e-6, 0.5)
        weights = np.concatenate([[-low], weights[1:] * (1.0 + low) / weights[1:].sum()])
        bad = (q * weights) @ q.T
    if kind == "flag":  # a verdict against a J: no argument of a direct build
        flag = "physical" if cls is DensityMatrix else "complex_linear"
        return lambda: cls(good), lambda: cls(good, **{flag: True})
    return lambda: cls(good), lambda: cls(bad)


def builds(rng, d, kind):
    """A consistent build of the `kind`'s type and an inconsistent one."""
    if kind.startswith(("state_", "generator_")):
        return value_builds(rng, 2 * d, kind)
    j = random_structure(rng, d)
    other = d + int(rng.integers(1, 3))
    if kind == "size":  # d is half the matrix size: it cannot disagree with it
        def good():
            assert ComplexStructure(j.matrix).d == d

        return good, lambda: ComplexStructure(j.matrix, d=other)
    if kind == "propagator":  # U alone: the time is the caller's
        u = j.matrix  # orthogonal
        return lambda: dynamics.Propagator(u), lambda: dynamics.Propagator(u, t=1.0)
    if kind.startswith("form_"):
        hbar = float(10.0 ** rng.uniform(-3.0, 3.0))

        def good():  # Omega is derived bit for bit, on a rotated J too
            w = SymplecticForm(j, hbar)
            assert w.omega.tobytes() == (-j.matrix / hbar).tobytes()

        if kind == "form_omega":  # Omega is no argument: it cannot disagree with J
            return good, lambda: SymplecticForm(j, hbar, omega=-j.matrix / hbar)
        bad = {"zero": 0.0, "negative": -hbar, "nan": np.nan,
               "inf": float(rng.choice([np.inf, -np.inf]))}[kind[len("form_"):]]
        return good, lambda: SymplecticForm(j, bad)
    bad = j.matrix.copy()
    if kind == "scaled":
        bad *= rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 3.0)])
    elif kind == "perturbed":
        bad += 1e-6 * rng.standard_normal(bad.shape)
    elif kind == "symmetric":  # J^2 = -I is orthogonal but symmetric
        bad = bad @ bad
    else:
        bad[tuple(rng.integers(0, 2 * d, size=2))] = rng.choice([np.nan, np.inf])
    return lambda: ComplexStructure(j.matrix), lambda: ComplexStructure(bad)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(KINDS))
def test_inconsistent_fields_raise(seed, d, kind):
    good, bad = builds(np.random.default_rng(seed), d, kind)
    good()
    error, message = RAISES.get(kind, (ValueError, None))
    with pytest.raises(error, match=message):
        bad()


DERIVED = [*((oscillator.CanonicalPair, name) for name in ("x", "p")),
           *((oscillator.FermionicStructure, name) for name in (
               "x", "p", "commuting_unit", "lowering", "raising", "hamiltonian",
               "basis_swap")), (linalg.Tolerance, "spectral_gap_tol")]


@pytest.mark.parametrize("cls, name", DERIVED, ids=lambda v: getattr(v, "__name__", v))
def test_derived_fields_are_no_arguments(cls, name):
    args = {linalg.Tolerance: (1e-6,)}.get(cls, (1.0, oscillator.OscillatorParams()))
    value = cls(*args)
    with pytest.raises(TypeError, match=f"'{name}'"):
        cls(*args, **{name: getattr(value, name)})


@pytest.mark.parametrize("cls", [DensityMatrix, Hamiltonian], ids=lambda c: c.__name__)
def test_states_and_generators_hold_their_matrix_alone(cls):
    # A verdict against a J is no field: it is asked of `commutes` at the J in hand.
    assert [f.name for f in dataclasses.fields(cls)] == ["matrix"]


def array_holders():
    j = standard_complex_structure(2)
    h = dynamics.hamiltonian(np.diag([1.0, 1.0, 2.0, 2.0]), j)
    rho = states.density_matrix(np.eye(4) / 4.0, j)
    fs = oscillator.FermionicStructure(1.3, oscillator.OscillatorParams())
    return [j, split_linear_antilinear(np.eye(4), j), SymplecticForm(j), h,
            dynamics.Propagator(u=np.eye(4)), rho,
            states.state_stack(rho.matrix[np.newaxis], j), states.spectral_decompose(h.matrix),
            oscillator.CanonicalPair([1.0, 2.0], fs.params), fs,
            oscillator.dual_picture(0.25, 0.25, 0.1, 0.05, fs, 0.5), FactorSpace.standard(2),
            ProductSpace(factors=(FactorSpace.standard(1),) * 2)]


@pytest.mark.parametrize("value", array_holders(), ids=lambda v: type(v).__name__)
def test_array_holders_compare_by_identity(value):
    # With generated equality, == on a distinct copy asked numpy for the truth
    # value of an array, and hash raised TypeError.
    twin = copy.deepcopy(value)
    assert value == value and value != twin
    assert len({value, twin}) == 2


def test_product_space_needs_two_factors_within_the_cap():
    # Accepted, one factor made every operator "map within", and a dim-1024
    # product allocated its dense fields past the cap.
    with pytest.raises(ValueError, match="at least two factors"):
        ProductSpace(factors=(FactorSpace.standard(2),))
    with pytest.raises(ValueError, match=f"1024 exceeds the cap {MAX_PRODUCT_DIM}"):
        ProductSpace(factors=(FactorSpace.standard(16),) * 2)


def test_identity_is_not_a_complex_structure():
    # Accepted, it made the maximally mixed state "physical".
    with pytest.raises(ValueError, match="antisymmetric and orthogonal"):
        ComplexStructure(np.eye(4))


def test_factor_dimension_must_match_its_structure():
    # It does by construction: d and dim are read off J, and a stated d is no argument.
    f = FactorSpace(random_structure(np.random.default_rng(0), 3))
    assert (f.d, f.dim) == (3, 6)
    with pytest.raises(TypeError, match="'d'"):
        FactorSpace(standard_complex_structure(1), d=3)


@pytest.mark.parametrize("matrix", [
    [[0.0]],
    [[1.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],  # a rotation: orthogonal
    [[0.0, -0.6, 0.0], [0.6, 0.0, -0.8], [0.0, 0.8, 0.0]],  # n x v: antisymmetric
    np.pad(standard_complex_structure(2).matrix, ((0, 1), (0, 1))),
], ids=["zero_1x1", "one_1x1", "rotation_3x3", "cross_product_3x3", "padded_5x5"])
def test_an_odd_size_is_no_complex_structure(matrix):
    # d is half the size with no check that 2d is the size: an antisymmetric
    # M of odd size has det M = det(-M^T) = -det M = 0, so it is not orthogonal.
    with pytest.raises(ValueError, match="^a complex structure must be antisymmetric "
                                         "and orthogonal$"):
        ComplexStructure(matrix)


def test_list_matrix_is_stored_as_an_array():
    j = ComplexStructure([[0, -1], [1, 0]])
    assert isinstance(j.matrix, np.ndarray) and j.matrix.dtype == float
    np.testing.assert_array_equal(j.matrix, standard_complex_structure(1).matrix)


def test_flagged_values_are_built_by_validators_and_judged_once(monkeypatch, capsys):
    src = Path(realqm.__file__).parent
    hits = [(path.name, line) for path in sorted(src.glob("*.py"))
            for line in path.read_text().splitlines()
            if re.search(r"\b(DensityMatrix|Hamiltonian)\(", line)]
    assert hits == []
    seen = []

    def spy(module, name, before="", after=""):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.append(before or name)
            try:
                return original(*args, **kwargs)
            finally:
                if after:
                    seen.append(after)

        monkeypatch.setattr(module, name, wrapped)

    spy(dynamics, "hamiltonian")
    for module in (linalg, dynamics, states):
        spy(module, "as_real_matrix")
    spy(dynamics, "_spectrum", before="enter", after="leave")
    code, _, err = run_cli(
        capsys, "evolve", "--state", '{"physical_density": [0.25, 0.25, 0.1, 0.05]}',
        "--hamiltonian", '{"matrix": {"dim": 4, "entries": '
        '[1,0,0,0, 0,1,0,0, 0,0,2,0, 0,0,0,2]}}')
    assert code == 0, err
    assert seen.count("hamiltonian") == 1
    assert seen[seen.index("enter"):seen.index("leave")] == ["enter"]


@pytest.mark.parametrize("name", ["build_canonical_pair", "build_fermionic", "kron"])
def test_constructor_aliases_are_gone(name):
    # Each only restated CanonicalPair(xis, params), FermionicStructure(xi,
    # params) or np.kron of two validated matrices; the constructor is the one spelling.
    for module in (realqm, oscillator, tensor):
        assert not hasattr(module, name)
    for info in pkgutil.iter_modules(realqm.__path__):
        module = importlib.import_module(f"realqm.{info.name}")
        assert name not in getattr(module, "__all__", ())
