"""Property-based tests of the CLI input boundary.

Generated argv for every subcommand -- spec documents, numeric flags
(including non-finite and out-of-range values) and branch lists -- must
end in a documented exit code with a message on stderr, never in an
uncaught exception.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from realqm.cli import MAX_STEPS, main  # noqa: E402

# Fixed examples, no example database: each run tries the same inputs.
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Numbers as command-line text: any float repr (nan, inf, subnormals,
# 1e+308, ...), small integers, and a few malformed strings.
number_text = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["0", "-0.0", "1e308", "-1e308", "5e-324", "abc", "", "1,2"]),
)

# Numbers inside a JSON document: floats (NaN and Infinity are valid input
# to Python's JSON reader), integers, and non-numeric values.
json_number = st.one_of(
    st.floats(), st.integers(-3, 3), st.sampled_from([0.25, 0.5, 1.0, "x", None, [1.0]]))


# A flag value: half plausible, half drawn from the whole of number_text.
flag_number = st.one_of(st.floats(0.1, 10.0).map(repr), number_text)
FLAG_VALUES = {
    "seed": st.one_of(st.integers(-3, 3), st.integers(0, 2**70)),
    "format": st.sampled_from(["json", "csv", "xml"]),
}


def _common_flags(draw):
    # at most three flags, so that most examples get past argument parsing
    names = draw(st.lists(st.sampled_from(["hbar", "mass", "omega", "tol", "seed", "format"]),
                          max_size=3, unique=True))
    return [f"--{name}={draw(FLAG_VALUES.get(name, flag_number))}" for name in names]


def _matrix_doc(draw):
    dim = draw(st.one_of(st.integers(-1, 5), st.sampled_from([2.0, 2.5, "4", None, [2]])))
    size = draw(st.integers(0, 17))
    entries = draw(st.one_of(
        st.lists(json_number, min_size=size, max_size=size),
        st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size),
        st.just("entries")))
    if draw(st.booleans()):
        return {"dim": dim, "entries": entries}
    # a symmetric, J-commuting matrix of a drawn complex dimension
    d = draw(st.integers(1, 2))
    vals = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    m = [[0.0] * (2 * d) for _ in range(2 * d)]
    for i, v in enumerate(vals):
        m[2 * i][2 * i] = m[2 * i + 1][2 * i + 1] = v
    return {"dim": 2 * d, "entries": [x for row in m for x in row]}


@st.composite
def state_spec(draw):
    kind = draw(st.sampled_from(
        ["quarter", "physical_density", "complex_density", "matrix", "other"]))
    if kind == "quarter":
        return '{"physical_density": [0.25, 0.25, 0, 0.25]}'
    if kind == "physical_density":
        doc = {"physical_density": draw(st.lists(json_number, min_size=0, max_size=5))}
    elif kind == "complex_density":
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        grid = st.lists(st.lists(json_number, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
        doc = {"complex_density": {"re": draw(grid), "im": draw(st.one_of(grid, json_number))}}
    elif kind == "matrix":
        doc = {"matrix": _matrix_doc(draw)}
    else:
        return draw(st.sampled_from(['{"bogus": 1}', "[1, 2]", "{", '{"a": 1, "b": 2}', "null"]))
    return json.dumps(doc)


@st.composite
def hamiltonian_spec(draw):
    kind = draw(st.sampled_from(["fermionic", "oscillator", "matrix", "other"]))
    if kind == "fermionic":
        doc = {"fermionic": {"length": draw(json_number)}}
    elif kind == "oscillator":
        doc = {"oscillator": {"lengths": draw(st.one_of(
            st.lists(json_number, min_size=0, max_size=3), json_number))}}
    elif kind == "matrix":
        doc = {"matrix": _matrix_doc(draw)}
    else:
        return draw(st.sampled_from(['{"oscillator": {}}', "[]", "not json", '{"fermionic": 1}']))
    return json.dumps(doc)


@st.composite
def spectrum_argv(draw):
    targets = draw(st.one_of(
        st.lists(number_text, min_size=0, max_size=5).map(",".join),
        st.lists(st.floats(0.5, 50.0).map(repr), min_size=1, max_size=5).map(",".join)))
    argv = ["spectrum", *_common_flags(draw)]
    branch = draw(st.one_of(
        st.none(),
        st.sampled_from(["plus", "minus", "bogus", ""]),
        st.lists(st.sampled_from(["plus", "minus", " minus", "bogus", ""]),
                 max_size=5).map(",".join)))
    if branch is not None:
        argv.append(f"--branch={branch}")
    return [*argv, "--", targets]


@st.composite
def uncertainty_argv(draw):
    # a valid state and lengths with up to six arguments replaced
    values = ["0.25", "0.25", "0", "0", "1", "2"]
    for slot in draw(st.lists(st.integers(0, 5), max_size=6)):
        values[slot] = draw(number_text)
    return ["uncertainty", *_common_flags(draw), "--", *values]


@st.composite
def evolve_argv(draw):
    argv = ["evolve", "--state", draw(state_spec()),
            "--hamiltonian", draw(hamiltonian_spec()), *_common_flags(draw)]
    for flag in ("t0", "t1"):
        value = draw(st.one_of(st.none(), flag_number))
        if value is not None:
            argv.append(f"--{flag}={value}")
    steps = draw(st.one_of(st.none(), st.sampled_from([-1, 0, 1, 3, MAX_STEPS + 1])))
    if steps is not None:
        argv.append(f"--steps={steps}")
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["matrix", "list", "other"]))
        if kind == "matrix":
            doc = {"observable": {"name": draw(st.text(max_size=3)),
                                  "matrix": _matrix_doc(draw)}}
        else:
            doc = {"observable": [1, 0]} if kind == "list" else {"other": {}}
        argv.append(f"--observable={json.dumps(doc)}")
    if draw(st.booleans()):
        argv.append("--diagnostics")
    return argv


@st.composite
def check_argv(draw):
    argv = ["check", *_common_flags(draw)]
    suites = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(["linalg", "realify", "states", "dynamics",
                                  "oscillator", "tensor", "bogus", ""]),
                 max_size=3).map(",".join)))
    if suites is not None:
        argv.append(f"--suite={suites}")
    return argv


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv, allowed=(0, 1, 2)):
    code, out, err = run_quietly(argv)
    assert code in allowed, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert not any("np.float64(" in line for line in err.splitlines()), (argv, err)
    if code in (1, 2):
        assert out == "", (argv, out)
        assert err.splitlines()[-1].startswith("realqm"), (argv, err)


@SETTINGS
@given(spectrum_argv())
def test_spectrum_boundary(argv):
    assert_clean_exit(argv)


@SETTINGS
@given(uncertainty_argv())
def test_uncertainty_boundary(argv):
    assert_clean_exit(argv)


def complex_at_psd_boundary(lam):
    state = {"complex_density": {"re": [[1.0 - lam, 0], [0, lam]], "im": [[0, 0], [0, 0]]}}
    return ["evolve", "--state", json.dumps(state), "--hamiltonian",
            '{"fermionic": {"length": 1.0}}']


# Once reported as "minimum eigenvalue np.float64(-1.5e-10)".  The real image
# halves the eigenvalue: -1.5e-10 now passes, -3e-10 fails naming -1.5e-10.
@SETTINGS
@given(evolve_argv())
@example(complex_at_psd_boundary(-1.5e-10))
@example(complex_at_psd_boundary(-3e-10))
def test_evolve_boundary(argv):
    assert_clean_exit(argv)


@settings(SETTINGS, max_examples=30)
@given(check_argv())
def test_check_boundary(argv):
    # exit 3 reports failed invariant checks, e.g. under a tiny --tol
    assert_clean_exit(argv, allowed=(0, 1, 2, 3))
