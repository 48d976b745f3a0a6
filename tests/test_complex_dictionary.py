"""Complex matrices enter the dictionary as numpy complex arrays.

`embed_matrix` validates a complex array-like once, with the messages of
`as_real_matrix`; `extract_matrix` inverts it bit for bit, signed zeros
included; and the CLI's `complex_density` state is that embedding halved,
with the sign of every zero of its `re` and `im` kept.
"""

import json

import numpy as np
import pytest

from realqm.cli import _state_from_spec
from realqm.linalg import DEFAULT_TOL, as_real_matrix
from realqm.realify import embed_matrix, extract_matrix, standard_complex_structure

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

BAD = {
    "1-d": (np.array([1.0 + 1j, 2.0]), "expected a square matrix, got shape (2,)"),
    "non-square": (np.ones((2, 3), dtype=complex), "expected a square matrix, got shape (2, 3)"),
    "0x0": (np.empty((0, 0), dtype=complex), "matrix dimension must be at least 1"),
    "nan": (np.array([[1.0, 0.0], [0.0, complex(0.0, np.nan)]]), "matrix entries must be finite"),
    "inf": (np.array([[1.0, complex(np.inf, 0.0)], [0.0, 1.0]]), "matrix entries must be finite"),
    "-inf imaginary": (np.array([[complex(0.0, -np.inf)]]), "matrix entries must be finite"),
}


@pytest.mark.parametrize("a,message", BAD.values(), ids=BAD.keys())
def test_embed_rejects_with_the_messages_of_as_real_matrix(a, message):
    # np.abs keeps the shape and the non-finite entries: the real counterpart.
    for call in (embed_matrix, lambda a: as_real_matrix(np.abs(a))):
        with pytest.raises(ValueError) as exc:
            call(a)
        assert str(exc.value) == message


def test_real_input_is_complex_with_zero_imaginary_part():
    a = np.array([[1.0, -0.0], [2.5, 3.0]])
    want = embed_matrix(a.astype(complex)).tobytes()
    assert embed_matrix(a).tobytes() == embed_matrix(a.tolist()).tobytes() == want


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda d: hnp.arrays(complex, (d, d), elements=st.complex_numbers(
    max_magnitude=1e300, allow_nan=False, allow_infinity=False))))  # 2 * 1e300 is finite
@example(np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)], [complex(-0.0, 0.0), 5e-324j]]))
def test_extract_inverts_embed_bit_for_bit(a):
    back = extract_matrix(embed_matrix(a))
    assert back.dtype == complex and back.shape == a.shape
    assert back.tobytes() == a.tobytes()


def test_cli_complex_density_is_the_halved_embedding_with_signed_zeros():
    re = np.array([[0.6, -0.0], [-0.0, 0.4]])
    im = np.array([[-0.0, 0.2], [-0.2, 0.0]])
    spec = json.dumps({"complex_density": {"re": re.tolist(), "im": im.tolist()}})
    assert "-0.0" in spec
    stack, rho = _state_from_spec(spec, DEFAULT_TOL, need_physical=True)
    rho_c = np.empty((2, 2), dtype=complex)
    rho_c.real, rho_c.imag = re, im  # keeps the sign of every zero of both parts
    want = embed_matrix(rho_c) / 2.0
    assert stack.physical[0] and rho.matrix.tobytes() == want.tobytes()
    assert np.any((want == 0.0) & np.signbit(want))
    # re + 1j * im would lose the sign of the -0.0 entries of re.
    assert (embed_matrix(re + 1j * im) / 2.0).tobytes() != want.tobytes()
