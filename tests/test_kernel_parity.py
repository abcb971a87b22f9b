"""The compiled and pure word kernels must agree letter for letter.

They agree on valid input, reduced or not, down to the type of every
letter, and raise the same exception type on the invalid input below,
letters beyond a C long included. Tier-1 runs both: the
``compiled_kernel`` fixture builds the extension when it is not built in
place.
"""

import ctypes

import pytest
from hypothesis import given, strategies as st

from conftest import c_compiler, compile_kernel
from mcgcalc import _wordops_py as py

RANK = 6
LONG_MIN = -(1 << (8 * ctypes.sizeof(ctypes.c_long) - 1))
LONG_MAX = -LONG_MIN - 1

letters = st.integers(-RANK, RANK).filter(bool)
unreduced = st.lists(letters, max_size=40)
words = st.one_of(unreduced, unreduced.map(py.reduce_letters))
tables = st.lists(words, min_size=RANK, max_size=RANK).map(lambda imgs: [(), *imgs])


def outcome(fn, *args):
    """The result of a call with its type and its letters' types, or the type
    of what it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # the exception type is what both kernels must share
        return type(exc)
    return type(result), result, [type(s) for s in result]


@given(u=words, v=words, table=tables, as_lists=st.booleans())
def test_kernels_agree(compiled_kernel, u, v, table, as_lists):
    if as_lists:
        table = [list(img) for img in table]
    else:
        u, v = tuple(u), tuple(v)
    calls = [
        ("reduce_letters", (u,)),
        ("concat_reduced", (u, v)),
        ("substitute", (u, table)),
        ("substitute", (v, table)),
    ]
    for name, args in calls:
        assert outcome(getattr(compiled_kernel, name), *args) == outcome(
            getattr(py, name), *args
        ), name


# Letters and images the compiled kernel refuses, mixed with valid ones: both
# kernels must raise the same exception type for the first fault they meet.
faulty_letters = st.one_of(
    letters,
    st.sampled_from(
        [0, RANK + 1, -(RANK + 1), True, 1.0, -2.0, "x1", None, LONG_MIN, 1 << 80]
    ),
)
faulty_words = st.lists(faulty_letters, max_size=12)
faulty_tables = st.lists(
    st.one_of(faulty_words, faulty_words.map(tuple), st.sampled_from(["ab", None])),
    min_size=RANK + 1,
    max_size=RANK + 1,
)


@given(u=faulty_words, v=faulty_words, table=faulty_tables)
def test_kernels_agree_on_faulty_input(compiled_kernel, u, v, table):
    calls = [
        ("reduce_letters", (u,)),
        ("concat_reduced", (tuple(u), tuple(v))),
        ("substitute", (u, table)),
    ]
    for name, args in calls:
        assert outcome(getattr(compiled_kernel, name), *args) == outcome(
            getattr(py, name), *args
        ), name


uniforms = st.floats(0.0, 1.0, exclude_max=True)
letter_tables = st.lists(letters, max_size=2 * RANK).map(tuple)


@given(draws=st.lists(uniforms, max_size=40), table=letter_tables)
def test_kernels_agree_on_draws(compiled_kernel, draws, table):
    assert outcome(compiled_kernel.draw_letters, draws, table) == outcome(
        py.draw_letters, draws, table
    )


faulty_uniforms = st.one_of(
    uniforms,
    st.sampled_from(
        [1.0, -0.0, -1e-300, 1.5, float("nan"), float("inf"), 0, 1, True, "0.5", None]
    ),
)


@given(draws=st.lists(faulty_uniforms, max_size=12), table=faulty_words)
def test_kernels_agree_on_faulty_draws(compiled_kernel, draws, table):
    assert outcome(compiled_kernel.draw_letters, draws, table) == outcome(
        py.draw_letters, draws, table
    )


def public_ops(module):
    """The functions a kernel module defines itself, by name."""
    return {
        name
        for name, obj in vars(module).items()
        if callable(obj) and not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
    }


def test_kernels_expose_the_same_ops(compiled_kernel):
    ops = public_ops(py)
    assert ops == public_ops(compiled_kernel)
    assert ops == {"reduce_letters", "concat_reduced", "substitute", "draw_letters"}
    from mcgcalc import _wordops

    assert all(getattr(_wordops, op) is getattr(_wordops._impl, op) for op in ops)


BAD = object()

# (function, arguments, result or exception type), the same for both kernels.
# A row's index is part of its test id, so rows are appended, never moved;
# the rows of a retired op are replaced in place.
CONTRACT = [
    ("substitute", ((3,), [(), (1,), (2,)]), IndexError),
    ("substitute", ((-3,), [(), (1,), (2,)]), IndexError),
    ("substitute", ((LONG_MIN,), [(), (1,)]), IndexError),
    ("substitute", ((1 << 80,), [(), (1,)]), IndexError),
    ("substitute", ((0,), [(1, 2), (3,)]), (-2, -1)),
    ("substitute", ([2, -1], [(), [1, 2], [3]]), (3, -2, -1)),
    ("substitute", ((1, -1), ((), (2,))), ()),
    ("substitute", (("x1",), [(), (1,)]), TypeError),
    ("substitute", ((1.0,), [(), (1,)]), TypeError),
    ("substitute", ((1,), [(), (1, "x1")]), TypeError),
    ("substitute", ((1,),), TypeError),
    ("substitute", (5, [(), (1,)]), TypeError),
    ("reduce_letters", ([1, 2, -2],), (1,)),
    ("reduce_letters", ([1, "x1"],), TypeError),
    ("reduce_letters", ([1, BAD],), TypeError),
    ("reduce_letters", (5,), TypeError),
    ("concat_reduced", ([1, 2], [-2, 3]), [1, 3]),
    ("concat_reduced", ([1, 2], [-2, -1]), []),
    ("concat_reduced", ((1,), ("x1",)), TypeError),
    ("concat_reduced", ((1,), [2]), TypeError),
    ("concat_reduced", ((1,),), TypeError),
    ("concat_reduced", ((1, 2), (3,)), (1, 2, 3)),
    ("concat_reduced", (None, (1,)), TypeError),
    ("substitute", ((), [()]), ()),
]

# Non-int letters and non-sequence image tables, which the pure kernel refuses
# as the compiled one does. Appended so the cases above keep their test ids.
CONTRACT += [
    ("substitute", ((1,), {1: (2,)}), TypeError),
    ("substitute", ((1,), [(), ("x1",)]), TypeError),
    ("substitute", ((1,), [(), (1.0, -1.0)]), TypeError),
    ("substitute", ((1,), [(), "ab"]), TypeError),
    ("substitute", ((3, "x1"), [(), (1,)]), IndexError),
    ("substitute", (("x1", 3), [(), (1,)]), TypeError),
    ("substitute", ([True, -1], [(), (2,)]), ()),
    ("reduce_letters", (["a"],), TypeError),
    ("reduce_letters", ([1.0, -1.0],), TypeError),
    ("reduce_letters", ([True, -1],), ()),
    ("concat_reduced", ((1,), (2.0,)), TypeError),
    ("concat_reduced", (("x1",), (2,)), TypeError),
    ("substitute", ((1,), None), TypeError),
]

# Results hold plain ints, also where the input held bools, and letters
# beyond a C long raise OverflowError wherever either kernel reads one.
CONTRACT += [
    ("reduce_letters", ([True],), (1,)),
    ("reduce_letters", ([2, True, -True],), (2,)),
    ("substitute", ((1,), [(), (True,)]), (1,)),
    ("substitute", ((-1, 2), [(), (True, 3), (False,)]), (-3, -1, 0)),
    ("concat_reduced", ((2, True), (-1, 3)), (2, 3)),
    ("reduce_letters", ([LONG_MAX, -LONG_MAX, -LONG_MAX],), (-LONG_MAX,)),
    ("substitute", ((-1,), [(), (LONG_MAX,)]), (-LONG_MAX,)),
    ("reduce_letters", ([LONG_MIN],), OverflowError),
    ("reduce_letters", ([1, 1 << 80],), OverflowError),
    ("concat_reduced", ((1,), (LONG_MIN,)), OverflowError),
    ("concat_reduced", ((LONG_MIN,), (1,)), OverflowError),
    ("substitute", ((-1,), [(), (LONG_MIN,)]), OverflowError),
    ("substitute", ((1,), [(), (1 << 80,)]), OverflowError),
    ("reduce_letters", ([1 << 80, "x1"],), OverflowError),
    ("concat_reduced", ((1 << 80,), ("x1",)), OverflowError),
    ("substitute", ((-1,), [(), ("x1", 1 << 80)]), OverflowError),
    ("substitute", ((1,), [(), ("x1", 1 << 80)]), TypeError),
]


# draw_letters: the uniforms are floats in [0, 1), checked before any cast,
# and a draw needs at least one letter; the table is read whole first.
NAN = float("nan")
PAIRS = (1, -1, 2, -2)
CONTRACT += [
    ("draw_letters", ([0.5, 0.25], PAIRS), (2, 1)),
    ("draw_letters", ([0.99, 0.99], (1, -1, 2)), (2, -1)),
    ("draw_letters", ((0.0, 0.0, 0.0), [1, -1]), (1, 1, 1)),
    ("draw_letters", ([], ()), ()),
    ("draw_letters", ([0.0], (True, -1)), (1,)),
    ("draw_letters", ([0.5], ()), ValueError),
    ("draw_letters", ([0.5, "x1"], ()), ValueError),
    ("draw_letters", ([0], PAIRS), TypeError),
    ("draw_letters", ([True], PAIRS), TypeError),
    ("draw_letters", ([0.5, "0.5"], PAIRS), TypeError),
    ("draw_letters", ([0.5, None], PAIRS), TypeError),
    ("draw_letters", ([1.0], PAIRS), ValueError),
    ("draw_letters", ([0.5, NAN], PAIRS), ValueError),
    ("draw_letters", ([-0.25], PAIRS), ValueError),
    ("draw_letters", ([float("inf")], PAIRS), ValueError),
    ("draw_letters", ([float("-inf")], PAIRS), ValueError),
    ("draw_letters", ([1.5, "x1"], PAIRS), ValueError),
    ("draw_letters", (["x1", 1.5], PAIRS), TypeError),
    ("draw_letters", ([0.5], (1, "x1")), TypeError),
    ("draw_letters", ([], (1, 2.0)), TypeError),
    ("draw_letters", ([NAN], (1, LONG_MIN)), OverflowError),
    ("draw_letters", ([0.5], 5), TypeError),
    ("draw_letters", (5, PAIRS), TypeError),
    ("draw_letters", ([0.5],), TypeError),
]


@pytest.mark.parametrize("name, args, expected", CONTRACT)
def test_kernel_contract(compiled_kernel, name, args, expected):
    for kernel in (py, compiled_kernel):
        fn = getattr(kernel, name)
        if isinstance(expected, type):
            with pytest.raises(expected):
                fn(*args)
        else:
            result = fn(*args)
            assert result == expected and type(result) is type(expected)
            assert [type(s) for s in result] == [type(s) for s in expected]


def test_backend_name(compiled_kernel):
    assert compiled_kernel.BACKEND == "c"
    assert py.BACKEND == "py"


def test_kernel_source_compiles_without_warnings(tmp_path):
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    _, proc = compile_kernel(compiler, tmp_path, ["-Wall", "-Wextra"])
    assert proc.returncode == 0, proc.stderr
    assert "_wordops_c.c" not in proc.stderr, proc.stderr


# --- both kernels end to end ----------------------------------------------------

CLI_RUNS = {
    "verify": ["verify", "--genus", "2..4", "--all", "--json", "--seed", "1"],
    "braid-trivial": ["braid-trivial", "--strands", "4", "b1 b2 b1 b3 b2^-1 b1^-1 b2^-1 b3^-1"],
    "act": ["act", "twist-word", "a1 b2 w1^-1 a3", "--genus", "3", "--on", "x1 y2 x3^-1 y1"],
}


@pytest.mark.parametrize("argv", CLI_RUNS.values(), ids=CLI_RUNS.keys())
def test_cli_output_is_kernel_independent(run_cli, argv):
    pure = run_cli("py", argv)
    compiled = run_cli("c", argv)
    assert pure.stderr == compiled.stderr == ""
    assert compiled.returncode == pure.returncode
    # verify --json names the kernel that ran; everything else is byte-identical.
    assert compiled.stdout == pure.stdout.replace('"kernel": "py"', '"kernel": "c"')


@pytest.mark.parametrize("backend", ["py", "c"])
def test_env_var_selects_backend(run_cli, backend):
    result = run_cli(backend, ["verify", "--genus", "2", "--which", "relator", "--json"])
    assert result.returncode == 0, result.stderr
    assert f'"kernel": "{backend}"' in result.stdout


@pytest.mark.parametrize("value", ["pure", "python", "compiled", "ext"])
def test_env_var_rejects_other_values(run_cli, value):
    result = run_cli(value, ["verify", "--genus", "2", "--which", "relator", "--json"])
    assert result.returncode != 0
    assert repr(value) in result.stderr
