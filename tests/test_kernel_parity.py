"""The compiled and pure word kernels must agree letter for letter.

They agree on valid input, reduced or not, down to the type of every
letter, and raise the same exception type on the invalid input below,
letters beyond a C long included. Tier-1 runs both: the
``compiled_kernel`` fixture builds the extension when it is not built in
place.
"""

import ast
import ctypes
import enum
import gc
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from itertools import cycle, repeat

import pytest
from hypothesis import given, strategies as st

from conftest import (
    KERNEL_SOURCE,
    SRC,
    c_compiler,
    compile_kernel,
    python_configs,
    python_includes,
    stale_kernel_reason,
)
from mcgcalc import _wordops_py as py
from mcgcalc.errors import ImageBudgetError
from mcgcalc.words import Basis

RANK = 6
LONG_MIN = -(1 << (8 * ctypes.sizeof(ctypes.c_long) - 1))
LONG_MAX = -LONG_MIN - 1
# The compiled kernel's results share the boxed letters in [-EDGE, EDGE]
# (SHARED_EDGE in _wordops_c.c), and it reads an int of one 30-bit digit,
# below ONE_DIGIT in size, without a call.
EDGE = 1024
ONE_DIGIT = 1 << 30

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


# Letters on both sides of the shared table's edge and of the one-digit
# read, where the compiled kernel changes path, and any letter between.
EDGES = [
    s * m
    for m in (EDGE - 1, EDGE, EDGE + 1, ONE_DIGIT - 1, ONE_DIGIT, LONG_MAX)
    for s in (1, -1)
]
wide_letters = st.one_of(
    st.integers(-4 * EDGE, 4 * EDGE).filter(bool), st.sampled_from(EDGES)
)
wide_words = st.lists(wide_letters, max_size=40)


def drawn(kernel, uniforms, length, letters):
    """The outcome of ``kernel.draw_letters`` with a ``random`` that returns
    ``uniforms`` in order (StopIteration past the end), and how often it was
    called."""
    stream = iter(uniforms)
    calls = 0

    def random():
        nonlocal calls
        calls += 1
        return next(stream)

    return outcome(kernel.draw_letters, random, length, letters), calls


@given(
    u=wide_words,
    v=wide_words,
    word=unreduced,
    table=st.lists(wide_words, min_size=RANK, max_size=RANK),
    draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
)
def test_kernels_agree_past_the_shared_letters(compiled_kernel, u, v, word, table, draws):
    images = [(), *map(tuple, table)]
    calls = [
        ("reduce_letters", (u,)),
        ("reduce_letters", (u + [-s for s in reversed(v)] + v,)),
        ("concat_reduced", (py.reduce_letters(u), py.reduce_letters(v))),
        ("substitute", (word, images)),
    ]
    for name, args in calls:
        assert outcome(getattr(compiled_kernel, name), *args) == outcome(
            getattr(py, name), *args
        ), name
    assert drawn(compiled_kernel, draws, len(draws), tuple(u)) == drawn(
        py, draws, len(draws), tuple(u)
    )


def test_shared_letters_keep_their_reference_count(compiled_kernel):
    # -7 is outside CPython's own small ints, so only the kernel shares it.
    letter = compiled_kernel.reduce_letters([-7])[0]
    baseline = sys.getrefcount(letter)
    results = [
        *(compiled_kernel.substitute((1, 2), [(), (-7, 3), (-3,)]) for _ in range(10**4)),
        *(compiled_kernel.draw_letters(iter([0.0]).__next__, 1, (-7, 7)) for _ in range(10**4)),
        *(compiled_kernel.reduce_letters([-7]) for _ in range(10**4)),
    ]
    assert set(results) == {(-7,)}
    assert sys.getrefcount(letter) >= baseline + 3 * 10**4  # the results share it
    del results
    assert sys.getrefcount(letter) == baseline


def test_draws_keep_their_reference_count(compiled_kernel):
    # Every call of ``random`` returns a new reference to the one float u,
    # which the kernel must release after reading it, on failure too.
    u, text = float("0.25"), "".join(["not ", "a float"])
    letter = compiled_kernel.reduce_letters([-7])[0]
    random = repeat(u).__next__

    def counts():
        return sys.getrefcount(u), sys.getrefcount(text), sys.getrefcount(letter)

    baseline = counts()
    word = compiled_kernel.draw_letters(random, 10**4, (-7, 7))
    assert word == (-7,) * 10**4
    assert counts() == (baseline[0], baseline[1], baseline[2] + 10**4)
    del word
    for last, fault in ((1.0, ValueError), (text, TypeError)):
        draws = cycle([u, last]).__next__  # the second draw of each call fails
        for _ in range(10**4):
            with pytest.raises(fault):
                compiled_kernel.draw_letters(draws, 2, (-7, 7))
    del draws, last
    assert counts() == baseline


uniforms = st.floats(0.0, 1.0, exclude_max=True)
letter_tables = st.lists(letters, max_size=2 * RANK).map(tuple)


@given(draws=st.lists(uniforms, max_size=40), length=st.integers(-2, 42), table=letter_tables)
def test_kernels_agree_on_draws(compiled_kernel, draws, length, table):
    assert drawn(compiled_kernel, draws, length, table) == drawn(py, draws, length, table)


faulty_uniforms = st.one_of(
    uniforms,
    st.sampled_from(
        [1.0, -0.0, -1e-300, 1.5, float("nan"), float("inf"), 0, 1, True, "0.5", None]
    ),
)
faulty_lengths = st.one_of(
    st.integers(-2, 14), st.sampled_from([True, 1.0, "2", None, 1 << 80, -(1 << 80)])
)


@given(draws=st.lists(faulty_uniforms, max_size=12), length=faulty_lengths, table=faulty_words)
def test_kernels_agree_on_faulty_draws(compiled_kernel, draws, length, table):
    assert drawn(compiled_kernel, draws, length, table) == drawn(py, draws, length, table)


name_tables = st.lists(
    st.one_of(st.text(max_size=9), st.sampled_from(["x1", "y12^-1", "\xe9", 7, None, b"x1"])),
    max_size=2 * RANK + 1,
).map(tuple)


@given(
    letters=st.lists(
        st.one_of(st.integers(-2 * RANK - 2, 2 * RANK + 2), faulty_letters), max_size=40
    ),
    names=name_tables,
    as_tuple=st.booleans(),
)
def test_kernels_agree_on_names(compiled_kernel, letters, names, as_tuple):
    if as_tuple:
        letters = tuple(letters)
    assert outcome(compiled_kernel.format_letters, letters, names) == outcome(
        py.format_letters, letters, names
    )


def test_formatting_keeps_the_reference_count(compiled_kernel):
    # Names made at run time, so only the tuple holds them: the kernel borrows
    # the names and the tuple, on failure too.
    names = ("", *("".join(["x", str(k)]) for k in range(1, 4)), 7)
    letters = (1, 2, -2)

    def counts():
        return [sys.getrefcount(obj) for obj in (names, letters, *names[1:4])]

    baseline = counts()
    texts = [compiled_kernel.format_letters(letters, names) for _ in range(10**4)]
    assert set(texts) == {"x1 x2 x3"}
    for bad, fault in (((1, 9), IndexError), ((1, -1), TypeError), ((1, "x1"), TypeError)):
        for _ in range(10**4):
            with pytest.raises(fault):
                compiled_kernel.format_letters(bad, names)
    del texts
    assert counts() == baseline


# format_image is format_letters(substitute(...)) in one call: on any word,
# table, names and budget, each kernel's op gives what the pure composition
# gives, a budget error with its figures.
image_names = st.one_of(
    name_tables,
    st.lists(st.text(max_size=9), min_size=2 * RANK + 1, max_size=2 * RANK + 1).map(tuple),
    st.sampled_from([None, ["x1"]]),
)


def image_outcome(kernel, word, images, names, budget, composed=False):
    """The text ``format_image`` gives, or what it raises; with ``composed``,
    that of ``format_letters(substitute(...))`` instead."""
    try:
        if composed:
            result = kernel.format_letters(kernel.substitute(word, images, budget=budget), names)
        else:
            result = kernel.format_image(word, images, names, budget=budget)
    except ImageBudgetError as exc:
        return type(exc), exc.needed, exc.budget
    except Exception as exc:  # the exception type is what both kernels must share
        return type(exc)
    return type(result), result


@given(
    word=st.one_of(unreduced, faulty_words),
    table=st.one_of(tables, faulty_tables),
    names=image_names,
    budget=st.one_of(st.none(), st.integers(-1, 400), st.sampled_from([True, 1.0])),
)
def test_kernels_agree_on_images(compiled_kernel, word, table, names, budget):
    expected = image_outcome(py, word, table, names, budget, composed=True)
    assert image_outcome(py, word, table, names, budget) == expected
    assert image_outcome(compiled_kernel, word, table, names, budget) == expected
    assert image_outcome(compiled_kernel, word, table, names, budget, composed=True) == expected


def test_format_image_keeps_the_reference_count(compiled_kernel):
    # Words, names, images and a budget made at run time, so only the test
    # holds them: the kernel borrows them all, on failure too.
    names = ("", *("".join(["x", str(k)]) for k in range(1, 4)), 7)
    images = [(), (1, 2), (3,), (4,), (int("2000"),)]
    budget = int("333")
    calls = [
        (tuple([1, 2]), names, None),
        (tuple([1] * 200), names, ImageBudgetError),  # past the budget
        (tuple([5]), names, IndexError),  # a letter with no image
        (tuple([1, "x1"]), names, TypeError),  # a word letter that is no int
        (tuple([4]), names, IndexError),  # an image letter with no name
        (tuple([3]), names, TypeError),  # a name that is no str
        (tuple([1]), list(names), TypeError),  # names that are no tuple
    ]

    def counts():
        held = (names, images, budget, *names[1:4], *images, *(word for word, _, _ in calls))
        return [sys.getrefcount(obj) for obj in held]

    baseline = counts()
    for word, these_names, fault in calls:
        for _ in range(10**4):
            if fault is None:
                assert compiled_kernel.format_image(word, images, names, budget=budget) == (
                    "x1 x2 x3"
                )
            else:
                with pytest.raises(fault):
                    compiled_kernel.format_image(word, images, these_names, budget=budget)
    del word, these_names  # the loop variables hold the last call's objects
    assert counts() == baseline


# Word text for read_tokens: tokens of a grammar, other spellings, a non-ASCII
# and a long token, between runs of every kind of whitespace, or any text.
TOKEN_TABLE = dict(Basis.xy(3)._codes, **{"\xe9": 99, "abcdefghij": 10, "x1\x00": 7})
SEPARATORS = [
    " ", "\t", "\n", "\v", "\f", "\r", "\x1c", "\x1f", "\xa0", "\x85", "\u2003", "\u3000"
]
token_texts = st.lists(
    st.tuples(
        st.sampled_from([*TOKEN_TABLE, "x01", "x4", "q", "abcdefghi", "\u03c8", "1"]),
        st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3),
    ),
    max_size=40,
).map(lambda pairs: "".join(token + gap for token, gap in pairs))


def token_outcome(kernel, text, table):
    """``outcome`` of ``read_tokens``; a KeyError also gives the missing token."""
    try:
        result = kernel.read_tokens(text, table)
    except KeyError as exc:
        return KeyError, exc.args
    except Exception as exc:  # the exception type is what both kernels must share
        return type(exc)
    return type(result), result, [type(s) for s in result]


@given(
    text=st.one_of(token_texts, st.text(max_size=30)),
    table=st.sampled_from([TOKEN_TABLE, Basis.xy(3)._codes, {" ": 0}, {}]),
)
def test_kernels_agree_on_tokens(compiled_kernel, text, table):
    assert token_outcome(compiled_kernel, text, table) == token_outcome(py, text, table)


class Fresh:
    """A value made anew by every lookup; ``alive`` counts those not freed."""

    alive = 0

    def __init__(self):
        Fresh.alive += 1

    def __del__(self):
        Fresh.alive -= 1


class Collecting(dict):
    """A table that collects garbage and gives a fresh value for ``new``, while
    the kernel holds a result it has partly filled, and raises ValueError for
    ``bad``."""

    def __getitem__(self, key):
        if key == "new":
            gc.collect()
            return Fresh()
        if key == "bad":
            raise ValueError(key)
        return super().__getitem__(key)


def test_read_tokens_keeps_the_reference_count(compiled_kernel):
    # Tokens and values made at run time, so only this test and the tables
    # hold them: the kernel must hold the values it looks up for the call
    # only, and release them on failure too, on both its paths.
    values = [int(str(3000 + k)) for k in range(40)]
    names = ["".join(["t", str(k)]) for k in range(40)]
    table = dict(zip(names, values))
    ascii_text = " ".join(names * 3)
    wide_text = "\u3000".join(names * 3)

    def counts():
        return [sys.getrefcount(obj) for obj in (table, ascii_text, wide_text, *values)]

    baseline = counts()
    texts = (ascii_text, wide_text) * 1000
    results = [compiled_kernel.read_tokens(text, table) for text in texts]
    assert set(results) == {tuple(values * 3)}
    del results, texts
    for text in (ascii_text + " t40", wide_text + "\u3000t40"):
        for _ in range(2000):
            with pytest.raises(KeyError):
                compiled_kernel.read_tokens(text, table)
    assert counts() == baseline
    # one lookup per distinct token of ASCII text, one per token of other text
    collecting = Collecting(table)
    for text, looked_up in ((ascii_text + " new new", 1), (wide_text + "\u3000new new", 2)):
        result = compiled_kernel.read_tokens(text, collecting)
        assert result[:120] == tuple(values * 3) and Fresh.alive == looked_up
        del result
        assert Fresh.alive == 0
        with pytest.raises(ValueError):
            compiled_kernel.read_tokens(text + " bad", collecting)
        assert Fresh.alive == 0
    del collecting
    assert counts() == baseline


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
    assert ops == {
        "reduce_letters", "concat_reduced", "substitute", "draw_letters", "format_letters",
        "read_tokens", "format_image",
    }
    from mcgcalc import _wordops

    assert all(getattr(_wordops, op) is getattr(_wordops._impl, op) for op in ops)


BAD = object()

# (function, arguments, result or exception type), the same for both kernels.
# Every row carries an explicit test id, so adding, moving or deleting a row
# renames no other. The rows below keep the ids they had when pytest derived
# them from the row's position (``<op>-args<N>-<expected>``); a new row gets
# a content-based id instead, ``<op>-<what it pins>``, unique in the table.
CONTRACT = [
    pytest.param("substitute", ((3,), [(), (1,), (2,)]), IndexError,
                 id="substitute-args0-IndexError"),
    pytest.param("substitute", ((-3,), [(), (1,), (2,)]), IndexError,
                 id="substitute-args1-IndexError"),
    pytest.param("substitute", ((LONG_MIN,), [(), (1,)]), IndexError,
                 id="substitute-args2-IndexError"),
    pytest.param("substitute", ((1 << 80,), [(), (1,)]), IndexError,
                 id="substitute-args3-IndexError"),
    pytest.param("substitute", ((0,), [(1, 2), (3,)]), (-2, -1),
                 id="substitute-args4-expected4"),
    pytest.param("substitute", ([2, -1], [(), [1, 2], [3]]), (3, -2, -1),
                 id="substitute-args5-expected5"),
    pytest.param("substitute", ((1, -1), ((), (2,))), (),
                 id="substitute-args6-expected6"),
    pytest.param("substitute", (("x1",), [(), (1,)]), TypeError,
                 id="substitute-args7-TypeError"),
    pytest.param("substitute", ((1.0,), [(), (1,)]), TypeError,
                 id="substitute-args8-TypeError"),
    pytest.param("substitute", ((1,), [(), (1, "x1")]), TypeError,
                 id="substitute-args9-TypeError"),
    pytest.param("substitute", ((1,),), TypeError,
                 id="substitute-args10-TypeError"),
    pytest.param("substitute", (5, [(), (1,)]), TypeError,
                 id="substitute-args11-TypeError"),
    pytest.param("reduce_letters", ([1, 2, -2],), (1,),
                 id="reduce_letters-args12-expected12"),
    pytest.param("reduce_letters", ([1, "x1"],), TypeError,
                 id="reduce_letters-args13-TypeError"),
    pytest.param("reduce_letters", ([1, BAD],), TypeError,
                 id="reduce_letters-args14-TypeError"),
    pytest.param("reduce_letters", (5,), TypeError,
                 id="reduce_letters-args15-TypeError"),
    pytest.param("concat_reduced", ([1, 2], [-2, 3]), [1, 3],
                 id="concat_reduced-args16-expected16"),
    pytest.param("concat_reduced", ([1, 2], [-2, -1]), [],
                 id="concat_reduced-args17-expected17"),
    pytest.param("concat_reduced", ((1,), ("x1",)), TypeError,
                 id="concat_reduced-args18-TypeError"),
    pytest.param("concat_reduced", ((1,), [2]), TypeError,
                 id="concat_reduced-args19-TypeError"),
    pytest.param("concat_reduced", ((1,),), TypeError,
                 id="concat_reduced-args20-TypeError"),
    pytest.param("concat_reduced", ((1, 2), (3,)), (1, 2, 3),
                 id="concat_reduced-args21-expected21"),
    pytest.param("concat_reduced", (None, (1,)), TypeError,
                 id="concat_reduced-args22-TypeError"),
    pytest.param("substitute", ((), [()]), (),
                 id="substitute-args23-expected23"),
]

# Non-int letters and non-sequence image tables, which the pure kernel refuses
# as the compiled one does.
CONTRACT += [
    pytest.param("substitute", ((1,), {1: (2,)}), TypeError,
                 id="substitute-args24-TypeError"),
    pytest.param("substitute", ((1,), [(), ("x1",)]), TypeError,
                 id="substitute-args25-TypeError"),
    pytest.param("substitute", ((1,), [(), (1.0, -1.0)]), TypeError,
                 id="substitute-args26-TypeError"),
    pytest.param("substitute", ((1,), [(), "ab"]), TypeError,
                 id="substitute-args27-TypeError"),
    pytest.param("substitute", ((3, "x1"), [(), (1,)]), IndexError,
                 id="substitute-args28-IndexError"),
    pytest.param("substitute", (("x1", 3), [(), (1,)]), TypeError,
                 id="substitute-args29-TypeError"),
    pytest.param("substitute", ([True, -1], [(), (2,)]), (),
                 id="substitute-args30-expected30"),
    pytest.param("reduce_letters", (["a"],), TypeError,
                 id="reduce_letters-args31-TypeError"),
    pytest.param("reduce_letters", ([1.0, -1.0],), TypeError,
                 id="reduce_letters-args32-TypeError"),
    pytest.param("reduce_letters", ([True, -1],), (),
                 id="reduce_letters-args33-expected33"),
    pytest.param("concat_reduced", ((1,), (2.0,)), TypeError,
                 id="concat_reduced-args34-TypeError"),
    pytest.param("concat_reduced", (("x1",), (2,)), TypeError,
                 id="concat_reduced-args35-TypeError"),
    pytest.param("substitute", ((1,), None), TypeError,
                 id="substitute-args36-TypeError"),
]

# Results hold plain ints, also where the input held bools, and letters
# beyond a C long raise OverflowError wherever either kernel reads one.
CONTRACT += [
    pytest.param("reduce_letters", ([True],), (1,),
                 id="reduce_letters-args37-expected37"),
    pytest.param("reduce_letters", ([2, True, -True],), (2,),
                 id="reduce_letters-args38-expected38"),
    pytest.param("substitute", ((1,), [(), (True,)]), (1,),
                 id="substitute-args39-expected39"),
    pytest.param("substitute", ((-1, 2), [(), (True, 3), (False,)]), (-3, -1, 0),
                 id="substitute-args40-expected40"),
    pytest.param("concat_reduced", ((2, True), (-1, 3)), (2, 3),
                 id="concat_reduced-args41-expected41"),
    pytest.param("reduce_letters", ([LONG_MAX, -LONG_MAX, -LONG_MAX],), (-LONG_MAX,),
                 id="reduce_letters-args42-expected42"),
    pytest.param("substitute", ((-1,), [(), (LONG_MAX,)]), (-LONG_MAX,),
                 id="substitute-args43-expected43"),
    pytest.param("reduce_letters", ([LONG_MIN],), OverflowError,
                 id="reduce_letters-args44-OverflowError"),
    pytest.param("reduce_letters", ([1, 1 << 80],), OverflowError,
                 id="reduce_letters-args45-OverflowError"),
    pytest.param("concat_reduced", ((1,), (LONG_MIN,)), OverflowError,
                 id="concat_reduced-args46-OverflowError"),
    pytest.param("concat_reduced", ((LONG_MIN,), (1,)), OverflowError,
                 id="concat_reduced-args47-OverflowError"),
    pytest.param("substitute", ((-1,), [(), (LONG_MIN,)]), OverflowError,
                 id="substitute-args48-OverflowError"),
    pytest.param("substitute", ((1,), [(), (1 << 80,)]), OverflowError,
                 id="substitute-args49-OverflowError"),
    pytest.param("reduce_letters", ([1 << 80, "x1"],), OverflowError,
                 id="reduce_letters-args50-OverflowError"),
    pytest.param("concat_reduced", ((1 << 80,), ("x1",)), OverflowError,
                 id="concat_reduced-args51-OverflowError"),
    pytest.param("substitute", ((-1,), [(), ("x1", 1 << 80)]), OverflowError,
                 id="substitute-args52-OverflowError"),
    pytest.param("substitute", ((1,), [(), ("x1", 1 << 80)]), TypeError,
                 id="substitute-args53-TypeError"),
]


# draw_letters: ``random`` returns floats in [0, 1), each checked before any
# cast; ``length`` and the letters are read whole before the first call, and
# a draw needs at least one letter. In a row, ``Uniforms(...)`` stands for
# ``random``: each kernel gets its own ``iter(uniforms).__next__``.
class Uniforms(tuple):
    pass


class Skewed(float):
    """A float subclass whose ``__float__`` lies; the kernels read its value."""

    def __float__(self):
        return 0.0


def faulty_random():
    raise ZeroDivisionError("no draws")


NAN = float("nan")
PAIRS = (1, -1, 2, -2)
CONTRACT += [
    pytest.param("draw_letters", (Uniforms([0.5, 0.25]), 2, PAIRS), (2, 1),
                 id="draw_letters-args54-expected54"),
    pytest.param("draw_letters", (Uniforms([0.99, 0.99]), 2, (1, -1, 2)), (2, -1),
                 id="draw_letters-args55-expected55"),
    pytest.param("draw_letters", (Uniforms((0.0, 0.0, 0.0)), 3, [1, -1]), (1, 1, 1),
                 id="draw_letters-args56-expected56"),
    pytest.param("draw_letters", (Uniforms([]), 0, ()), (),
                 id="draw_letters-args57-expected57"),
    pytest.param("draw_letters", (Uniforms([0.0]), 1, (True, -1)), (1,),
                 id="draw_letters-args58-expected58"),
    pytest.param("draw_letters", (Uniforms([0.5]), 1, ()), ValueError,
                 id="draw_letters-args59-ValueError"),
    pytest.param("draw_letters", (Uniforms([0.5, "x1"]), 2, ()), ValueError,
                 id="draw_letters-args60-ValueError"),
    pytest.param("draw_letters", (Uniforms([0]), 1, PAIRS), TypeError,
                 id="draw_letters-args61-TypeError"),
    pytest.param("draw_letters", (Uniforms([True]), 1, PAIRS), TypeError,
                 id="draw_letters-args62-TypeError"),
    pytest.param("draw_letters", (Uniforms([0.5, "0.5"]), 2, PAIRS), TypeError,
                 id="draw_letters-args63-TypeError"),
    pytest.param("draw_letters", (Uniforms([0.5, None]), 2, PAIRS), TypeError,
                 id="draw_letters-args64-TypeError"),
    pytest.param("draw_letters", (Uniforms([1.0]), 1, PAIRS), ValueError,
                 id="draw_letters-args65-ValueError"),
    pytest.param("draw_letters", (Uniforms([0.5, NAN]), 2, PAIRS), ValueError,
                 id="draw_letters-args66-ValueError"),
    pytest.param("draw_letters", (Uniforms([-0.25]), 1, PAIRS), ValueError,
                 id="draw_letters-args67-ValueError"),
    pytest.param("draw_letters", (Uniforms([float("inf")]), 1, PAIRS), ValueError,
                 id="draw_letters-args68-ValueError"),
    pytest.param("draw_letters", (Uniforms([float("-inf")]), 1, PAIRS), ValueError,
                 id="draw_letters-args69-ValueError"),
    pytest.param("draw_letters", (Uniforms([1.5, "x1"]), 2, PAIRS), ValueError,
                 id="draw_letters-args70-ValueError"),
    pytest.param("draw_letters", (Uniforms(["x1", 1.5]), 2, PAIRS), TypeError,
                 id="draw_letters-args71-TypeError"),
    pytest.param("draw_letters", (Uniforms([0.5]), 1, (1, "x1")), TypeError,
                 id="draw_letters-args72-TypeError"),
    pytest.param("draw_letters", (Uniforms([]), 0, (1, 2.0)), TypeError,
                 id="draw_letters-args73-TypeError"),
    pytest.param("draw_letters", (Uniforms([NAN]), 1, (1, LONG_MIN)), OverflowError,
                 id="draw_letters-args74-OverflowError"),
    pytest.param("draw_letters", (Uniforms([0.5]), 1, 5), TypeError,
                 id="draw_letters-args75-TypeError"),
    pytest.param("draw_letters", (5, 1, PAIRS), TypeError,
                 id="draw_letters-args76-TypeError"),
    pytest.param("draw_letters", (Uniforms([0.5]), 1), TypeError,
                 id="draw_letters-args77-TypeError"),
    # ``random`` itself: what it raises passes through, at the draw it fails.
    pytest.param("draw_letters", (faulty_random, 1, PAIRS), ZeroDivisionError,
                 id="draw_letters-random-raises"),
    pytest.param("draw_letters", (Uniforms([0.5]), 2, PAIRS), StopIteration,
                 id="draw_letters-random-runs-out"),
    pytest.param("draw_letters", (Uniforms([0.5, 0.25, 0.75]), 2, PAIRS), (2, 1),
                 id="draw_letters-stops-after-length"),
    pytest.param("draw_letters", (Uniforms([0.5, 7]), 2, PAIRS), TypeError,
                 id="draw_letters-random-returns-int"),
    pytest.param("draw_letters", (Uniforms(["0.5"]), 1, PAIRS), TypeError,
                 id="draw_letters-random-returns-str"),
    pytest.param("draw_letters", (Uniforms([None]), 1, PAIRS), TypeError,
                 id="draw_letters-random-returns-none"),
    pytest.param("draw_letters", (Uniforms([Skewed(0.5), Skewed(0.25)]), 2, PAIRS), (2, 1),
                 id="draw_letters-random-returns-float-subclass"),
    pytest.param("draw_letters", (Uniforms([0.5, Skewed(1.5)]), 2, PAIRS), ValueError,
                 id="draw_letters-random-returns-float-subclass-past-one"),
    pytest.param("draw_letters", (Uniforms([0.5, 1.0]), 2, PAIRS), ValueError,
                 id="draw_letters-random-returns-one"),
    pytest.param("draw_letters", (Uniforms([NAN]), 1, PAIRS), ValueError,
                 id="draw_letters-random-returns-nan"),
    pytest.param("draw_letters", (Uniforms([-0.0, -0.0]), 2, PAIRS), (1, 1),
                 id="draw_letters-random-returns-negative-zero"),
    # ``length``: an int read as an index; 0 or less draws nothing.
    pytest.param("draw_letters", (Uniforms([0.5]), 0, PAIRS), (),
                 id="draw_letters-length-zero-calls-nothing"),
    pytest.param("draw_letters", (faulty_random, 0, PAIRS), (),
                 id="draw_letters-length-zero-calls-no-faulty-random"),
    pytest.param("draw_letters", (None, 0, ()), (),
                 id="draw_letters-length-zero-needs-no-random"),
    pytest.param("draw_letters", (Uniforms([0.5]), -1, PAIRS), (),
                 id="draw_letters-negative-length"),
    pytest.param("draw_letters", (Uniforms([0.5]), True, PAIRS), (2,),
                 id="draw_letters-bool-length"),
    pytest.param("draw_letters", (Uniforms([0.5]), 1.0, PAIRS), TypeError,
                 id="draw_letters-float-length"),
    pytest.param("draw_letters", (Uniforms([0.5]), "1", PAIRS), TypeError,
                 id="draw_letters-str-length"),
    pytest.param("draw_letters", (Uniforms([0.5]), None, PAIRS), TypeError,
                 id="draw_letters-none-length"),
    pytest.param("draw_letters", (Uniforms([0.5]), 1 << 80, PAIRS), OverflowError,
                 id="draw_letters-length-past-ssize"),
    pytest.param("draw_letters", (Uniforms([0.5]), -(1 << 80), PAIRS), OverflowError,
                 id="draw_letters-negative-length-past-ssize"),
    pytest.param("draw_letters", (faulty_random, 1, ()), ValueError,
                 id="draw_letters-no-letters-raises-before-any-call"),
    pytest.param("draw_letters", (faulty_random, 1, (1, "x1")), TypeError,
                 id="draw_letters-bad-letter-raises-before-any-call"),
    pytest.param("draw_letters", (faulty_random, 1.0, PAIRS), TypeError,
                 id="draw_letters-bad-length-raises-before-any-call"),
]


# Both sides of the shared letters' edge and of the one-digit read, and
# letters of an int subclass, which the compiled kernel reads on its
# checked path; results hold plain ints either way.
class Gen(enum.IntEnum):
    A = 1
    B = 2


N, D = EDGE, ONE_DIGIT
EDGE_IMAGES = [(), (N, -(N + 1)), *[(k,) for k in range(2, N + 2)]]
CONTRACT += [
    pytest.param("reduce_letters", ([N, N + 1, -(N + 1), -N, -N, N + 1],), (-N, N + 1),
                 id="reduce_letters-shared-edge"),
    pytest.param("concat_reduced", ((-N, -(N + 1)), (N + 1, -N)), (-N, -N),
                 id="concat_reduced-shared-edge"),
    pytest.param("substitute", ((1, N + 1, -N, -1), EDGE_IMAGES), (N + 1, -N),
                 id="substitute-shared-edge"),
    pytest.param("substitute", ((N + 1, -(N + 1)), EDGE_IMAGES[:-1]), IndexError,
                 id="substitute-word-letter-past-shared-edge"),
    pytest.param("draw_letters", (Uniforms([0.0, 0.5, 0.99, 0.0]), 4, (-N, N, -(N + 1), N + 1)),
                 (-N, -(N + 1), -(N + 1), -N),
                 id="draw_letters-shared-edge"),
    pytest.param("reduce_letters", ([D - 1, -D, D, D, -(D - 1), -D],),
                 (D - 1, D, -(D - 1), -D),
                 id="reduce_letters-one-digit-edge"),
    pytest.param("concat_reduced", ((-(D - 1), -D), (D, -(D - 1))), (-(D - 1), -(D - 1)),
                 id="concat_reduced-one-digit-edge"),
    pytest.param("substitute", ((1, 2, -1), [(), (D - 1, -D), (D, D)]),
                 (D - 1, D, D, -(D - 1)),
                 id="substitute-one-digit-edge"),
    pytest.param("substitute", ((D - 1,), [(), (1,)]), IndexError,
                 id="substitute-word-letter-of-one-digit"),
    pytest.param("substitute", ((-D,), [(), (1,)]), IndexError,
                 id="substitute-word-letter-of-two-digits"),
    pytest.param("draw_letters", (Uniforms([0.0, 0.75]), 2, (D - 1, -(D - 1), D, -D)), (D - 1, -D),
                 id="draw_letters-one-digit-edge"),
    pytest.param("reduce_letters", ([Gen.B, Gen.A, -1],), (2,),
                 id="reduce_letters-int-enum"),
    pytest.param("concat_reduced", ((1, Gen.B), (-2, 3)), (1, 3),
                 id="concat_reduced-int-enum"),
    pytest.param("substitute", ((Gen.B, -1), [(), (Gen.A, 3), (Gen.B,)]), (2, -3, -1),
                 id="substitute-int-enum"),
    pytest.param("draw_letters", (Uniforms([0.0, 0.5]), 2, (Gen.A, -1, Gen.B, -2)), (1, 2),
                 id="draw_letters-int-enum"),
]


# Words of one letter over images of every kind the kernels read: reduced
# or not, tuples or lists, letters past one digit or of an int subclass, and
# bad letters.
REDUCED_ROW = (2, -3, 2)
CONTRACT += [
    pytest.param("substitute", ((1,), [(), REDUCED_ROW]), REDUCED_ROW,
                 id="substitute-one-letter-reduced-image"),
    pytest.param("substitute", ((2,), [(), (1,), ()]), (),
                 id="substitute-one-letter-empty-image"),
    pytest.param("substitute", ((-1,), [(), REDUCED_ROW]), (-2, 3, -2),
                 id="substitute-one-negative-letter"),
    pytest.param("substitute", ((1,), [(), (1, -1, 2)]), (2,),
                 id="substitute-one-letter-unreduced-image"),
    pytest.param("substitute", ((1,), [(), [2, -3]]), (2, -3),
                 id="substitute-one-letter-list-image"),
    pytest.param("substitute", ((1,), [(), (2, True)]), (2, 1),
                 id="substitute-one-letter-image-with-bool"),
    pytest.param("substitute", ((1,), [(), (2, 0)]), (2, 0),
                 id="substitute-one-letter-image-with-zero"),
    pytest.param("substitute", ((1,), [(), (2, 1 << 40)]), (2, 1 << 40),
                 id="substitute-one-letter-image-past-one-digit"),
    pytest.param("substitute", ((1,), [(), (Gen.B, 3)]), (2, 3),
                 id="substitute-one-letter-image-with-int-enum"),
    pytest.param("substitute", ((True,), [(), REDUCED_ROW]), REDUCED_ROW,
                 id="substitute-one-bool-letter"),
    pytest.param("substitute", ((1,), [(), (2, "x1")]), TypeError,
                 id="substitute-one-letter-bad-image-letter"),
]


# format_letters: a letter is an index into the name tuple, so a negative one
# counts from its end; every letter is read before a name that is no str is
# refused, as the join does. Names of up to 7 one-byte characters and longer
# or wider ones are written on different paths of the compiled kernel.
NAMES = ("", "x1", "y1", "y1^-1", "x1^-1")
WIDE = ("", "\xe9", "\u03c8", "\U0001d535", "abcdefg", "abcdefgh")
CONTRACT += [
    pytest.param("format_letters", ((), NAMES), "",
                 id="format_letters-no-letters"),
    pytest.param("format_letters", ((2,), NAMES), "y1",
                 id="format_letters-one-letter"),
    pytest.param("format_letters", ([1, -2, -1, 2],), TypeError,
                 id="format_letters-one-argument"),
    pytest.param("format_letters", ((1,), NAMES, 1), TypeError,
                 id="format_letters-three-arguments"),
    pytest.param("format_letters", ([1, -2, -1, 2], NAMES), "x1 y1^-1 x1^-1 y1",
                 id="format_letters-negative-codes"),
    pytest.param("format_letters", ((True, -True, 0), NAMES), "x1 x1^-1 ",
                 id="format_letters-bool-reads-as-1"),
    pytest.param("format_letters", ((Gen.B, Gen.A), NAMES), "y1 x1",
                 id="format_letters-int-enum"),
    pytest.param("format_letters", ((1, "x1"), NAMES), TypeError,
                 id="format_letters-str-letter"),
    pytest.param("format_letters", ((1.0,), NAMES), TypeError,
                 id="format_letters-float-letter"),
    pytest.param("format_letters", ((None, 9), NAMES), TypeError,
                 id="format_letters-none-letter-before-range"),
    pytest.param("format_letters", ((1, 5), NAMES), IndexError,
                 id="format_letters-code-past-the-end"),
    pytest.param("format_letters", ((-6,), NAMES), IndexError,
                 id="format_letters-code-before-the-start"),
    pytest.param("format_letters", ((1 << 80,), NAMES), IndexError,
                 id="format_letters-code-past-ssize"),
    pytest.param("format_letters", ((LONG_MIN,), NAMES), IndexError,
                 id="format_letters-long-min"),
    pytest.param("format_letters", ((1,), ()), IndexError,
                 id="format_letters-no-names"),
    pytest.param("format_letters", ((), ()), "",
                 id="format_letters-no-letters-no-names"),
    pytest.param("format_letters", ((1, 2), ("", "x1", 7)), TypeError,
                 id="format_letters-int-name"),
    pytest.param("format_letters", ((2, 1), ("", "x1", b"y1")), TypeError,
                 id="format_letters-bytes-name"),
    pytest.param("format_letters", ((2, 3), ("", "x1", 7)), IndexError,
                 id="format_letters-bad-letter-before-bad-name"),
    pytest.param("format_letters", ((1,), None), TypeError,
                 id="format_letters-names-none"),
    pytest.param("format_letters", ((), None), TypeError,
                 id="format_letters-no-letters-names-none"),
    pytest.param("format_letters", ((1,), list(NAMES)), TypeError,
                 id="format_letters-names-list"),
    pytest.param("format_letters", (5, NAMES), TypeError,
                 id="format_letters-letters-not-iterable"),
    pytest.param("format_letters", ((1, 2, 3, -1), WIDE),
                 " ".join(["\xe9", "\u03c8", "\U0001d535", "abcdefgh"]),
                 id="format_letters-non-ascii-names-as-str-join"),
    pytest.param("format_letters", ((1, 4, 1), WIDE), " ".join(["\xe9", "abcdefg", "\xe9"]),
                 id="format_letters-latin-1-names-as-str-join"),
    pytest.param("format_letters", ((5, 4, 5, 4, 4), WIDE),
                 " ".join(["abcdefgh", "abcdefg"] * 2 + ["abcdefg"]),
                 id="format_letters-seven-and-eight-character-names"),
]


class Index:
    """No int, but read as the tuple index 1; the kernels refuse it as a letter."""

    def __index__(self):
        return 1


CONTRACT += [
    pytest.param("format_letters", ((True,), NAMES), "x1",
                 id="format_letters-true-letter"),
    pytest.param("format_letters", ((Index(),), NAMES), TypeError,
                 id="format_letters-index-object"),
    pytest.param("format_letters", ((Index(), 9), NAMES), TypeError,
                 id="format_letters-index-object-before-range"),
    pytest.param("format_letters", ((9, Index()), NAMES), IndexError,
                 id="format_letters-range-before-index-object"),
    pytest.param("format_letters", ((slice(1, 2), 9), NAMES), TypeError,
                 id="format_letters-slice-letter-before-range"),
]


class Kw(dict):
    """The keyword arguments of a row's call, after its positional ones."""


def split_kwargs(args):
    """A row's positional arguments and its keyword arguments."""
    if args and isinstance(args[-1], Kw):
        return args[:-1], dict(args[-1])
    return args, {}


# format_image: format_letters(substitute(word, images, budget=budget), names)
# in one call, with that composition's faults in its order: the budget and
# the substitution's faults first, then the names' faults.
IMAGES = [(), (1, 2), (-1,)]  # x1 -> x1 y1, y1 -> x1^-1
CONTRACT += [
    pytest.param("format_image", ((), IMAGES, NAMES), "",
                 id="format_image-empty-word"),
    pytest.param("format_image", ((), [()], ()), "",
                 id="format_image-empty-word-reads-no-name"),
    pytest.param("format_image", ((1, 2), IMAGES, NAMES), "x1 y1 x1^-1",
                 id="format_image-word"),
    pytest.param("format_image", ((-1, -2), IMAGES, NAMES), "y1^-1",
                 id="format_image-inverse-letters"),
    pytest.param("format_image", ((1, -1, 2, -2), IMAGES, NAMES), "",
                 id="format_image-cancelling-word"),
    pytest.param("format_image", ([2, 1], [(), [1, 2], [-1]], NAMES), "y1",
                 id="format_image-list-word-and-images"),
    pytest.param("format_image", ((True,), [(), (True, 2)], NAMES), "x1 y1",
                 id="format_image-bool-letters"),
    pytest.param("format_image", ((1,), [(), (1, 2, 3, -1)], WIDE),
                 " ".join(["\xe9", "\u03c8", "\U0001d535", "abcdefgh"]),
                 id="format_image-non-ascii-names"),
    pytest.param("format_image", ((1, 2), IMAGES, NAMES, Kw(budget=3)), "x1 y1 x1^-1",
                 id="format_image-needed-equals-budget"),
    pytest.param("format_image", ((1,), IMAGES, NAMES, Kw(budget=None)), "x1 y1",
                 id="format_image-budget-none"),
    pytest.param("format_image", (("x1",), IMAGES, ()), TypeError,
                 id="format_image-bad-word-letter-before-names"),
    pytest.param("format_image", ((3,), IMAGES, None), IndexError,
                 id="format_image-missing-image-before-names"),
    pytest.param("format_image", ((1,), [(), "ab"], ()), TypeError,
                 id="format_image-image-not-a-tuple-before-names"),
    pytest.param("format_image", ((1, 1), [(), ("a", 1.5)], None, Kw(budget=3)),
                 ImageBudgetError,
                 id="format_image-budget-before-image-letters"),
    pytest.param("format_image", ((1, 1), [(), ("a", 1.5)], (), Kw(budget=4)), TypeError,
                 id="format_image-bad-image-letter-within-budget"),
    pytest.param("format_image", ((1,), [(), (1 << 80,)], ()), OverflowError,
                 id="format_image-image-letter-past-a-long"),
    pytest.param("format_image", ((1,), [(), (1, 9)], NAMES), IndexError,
                 id="format_image-letter-with-no-name"),
    pytest.param("format_image", ((-1,), [(), (LONG_MAX,)], NAMES), IndexError,
                 id="format_image-long-max-picks-no-name"),
    pytest.param("format_image", ((1,), [(), (2, 9)], ("", "x1", 7)), IndexError,
                 id="format_image-letter-with-no-name-before-bad-name"),
    pytest.param("format_image", ((1,), [(), (1, 2)], ("", "x1", 7)), TypeError,
                 id="format_image-bad-name-after-the-first-pass"),
    pytest.param("format_image", ((1,), IMAGES, list(NAMES)), TypeError,
                 id="format_image-names-not-a-tuple"),
    pytest.param("format_image", ((1, -1), IMAGES, None), TypeError,
                 id="format_image-names-none-for-the-identity"),
    pytest.param("format_image", ((3,), IMAGES, list(NAMES)), IndexError,
                 id="format_image-names-not-a-tuple-after-substitution"),
    pytest.param("format_image", (5, IMAGES, NAMES), TypeError,
                 id="format_image-word-not-iterable"),
    pytest.param("format_image", ((1,), None, NAMES), TypeError,
                 id="format_image-images-none"),
    pytest.param("format_image", ((1,), IMAGES), TypeError,
                 id="format_image-two-arguments"),
    pytest.param("format_image", ((1,), IMAGES, NAMES, 5), TypeError,
                 id="format_image-budget-by-position"),
    pytest.param("format_image", ((1,), IMAGES, NAMES, Kw(limit=5)), TypeError,
                 id="format_image-unknown-keyword"),
]


# read_tokens: the values of the tokens of ``str.split()``, one lookup per
# token, so a token the table lacks raises its KeyError. The compiled kernel
# reads ASCII text in place through a memo that grows past 32 distinct tokens
# and compares a token's first 8 bytes at once and the rest with memcmp;
# other text, any of whose whitespace may part the tokens, takes str.split.
TOKENS = {"x1": 1, "x1^-1": -1, "y1": 2, "y1^-1": -2}
LONG_TOKENS = {"abcdefgh": 8, "abcdefgh1": 9, "abcdefgh12": 10, "abcdefgh2": 11}
# 100 tokens of one length that share their first 8 bytes, so that probes meet
SHARED_HEADS = {f"abcdefgh{k:02}": k for k in range(100)}
XY60 = Basis.xy(60)._codes
OBJ = object()


class Refusing(dict):
    """A table whose lookups raise ValueError for every token but ``x1``."""

    def __getitem__(self, key):
        if key == "x1":
            return 1
        raise ValueError(key)


class OtherSplit(str):
    """Text whose own ``split`` lies; the kernels split the str itself."""

    def split(self, *args):
        return ["y1"]


CONTRACT += [
    pytest.param("read_tokens", ("", TOKENS), (),
                 id="read_tokens-no-text"),
    pytest.param("read_tokens", (" \t\n\v\f\r\x1c\x1d\x1e\x1f ", TOKENS), (),
                 id="read_tokens-whitespace-only"),
    pytest.param("read_tokens", ("", None), (),
                 id="read_tokens-no-text-reads-no-table"),
    pytest.param("read_tokens", ("y1^-1", TOKENS), (-2,),
                 id="read_tokens-one-token"),
    pytest.param("read_tokens", ("\tx1 y1^-1  x1\n", TOKENS), (1, -2, 1),
                 id="read_tokens-repeated-token-between-spaces"),
    pytest.param("read_tokens", ("x1\x1cy1\x1dx1^-1\x1ey1^-1\x1fx1\vy1\fx1\ry1", TOKENS),
                 (1, 2, -1, -2, 1, 2, 1, 2),
                 id="read_tokens-ascii-separators"),
    pytest.param("read_tokens", ("x1\xa0y1\x85x1^-1\u2003y1^-1\u3000x1", TOKENS),
                 (1, 2, -1, -2, 1),
                 id="read_tokens-unicode-separators"),
    pytest.param("read_tokens", ("x1 y1 \xe9", TOKENS), KeyError,
                 id="read_tokens-non-ascii-token-missing"),
    pytest.param("read_tokens", ("\xe9 x1　\xe9", {"x1": 1, "\xe9": 3}), (3, 1, 3),
                 id="read_tokens-non-ascii-token-found"),
    pytest.param("read_tokens", ("abcdefgh12 abcdefgh1 abcdefgh abcdefgh2 abcdefgh1", LONG_TOKENS),
                 (10, 9, 8, 11, 9),
                 id="read_tokens-tokens-past-8-bytes"),
    pytest.param("read_tokens", ("abcdefgh3", LONG_TOKENS), KeyError,
                 id="read_tokens-missing-token-sharing-8-bytes"),
    pytest.param("read_tokens", (" ".join([*SHARED_HEADS, *reversed(SHARED_HEADS)]), SHARED_HEADS),
                 (*range(100), *reversed(range(100))),
                 id="read_tokens-100-tokens-sharing-8-bytes"),
    pytest.param("read_tokens", ("x1\x00 x1 x1\x00", {"x1": 1, "x1\x00": 7}), (7, 1, 7),
                 id="read_tokens-nul-is-no-space"),
    pytest.param("read_tokens", (" ".join(list(XY60) * 2), dict(XY60)), tuple(XY60.values()) * 2,
                 id="read_tokens-240-distinct-tokens-grow-the-memo"),
    pytest.param("read_tokens", ("x1 y2^-1 x60", XY60), (1, -6, 237),
                 id="read_tokens-mappingproxy-table"),
    pytest.param("read_tokens", ("x1 x2", TOKENS), KeyError,
                 id="read_tokens-missing-token"),
    pytest.param("read_tokens", ("x1 " * 500 + "x01", TOKENS), KeyError,
                 id="read_tokens-missing-token-last"),
    pytest.param("read_tokens", (b"x1", TOKENS), TypeError,
                 id="read_tokens-bytes-text"),
    pytest.param("read_tokens", (None, TOKENS), TypeError,
                 id="read_tokens-none-text"),
    pytest.param("read_tokens", (OtherSplit("x1 x1"), TOKENS), (1, 1),
                 id="read_tokens-str-subclass-text"),
    pytest.param("read_tokens", ("x1 x1 y1", Refusing()), ValueError,
                 id="read_tokens-table-raises-value-error"),
    pytest.param("read_tokens", ("x1", None), TypeError,
                 id="read_tokens-table-none"),
    pytest.param("read_tokens", ("x1", [1, 2]), TypeError,
                 id="read_tokens-table-list"),
    pytest.param("read_tokens", ("z1 x1 z1^-1", {"z1": (1, 2), "z1^-1": (-2, -1), "x1": (1,)}),
                 ((1, 2), (1,), (-2, -1)),
                 id="read_tokens-tuple-values"),
    pytest.param("read_tokens", ("a b a", {"a": OBJ, "b": BAD}), (OBJ, BAD, OBJ),
                 id="read_tokens-object-values"),
    pytest.param("read_tokens", ("x1",), TypeError,
                 id="read_tokens-one-argument"),
    pytest.param("read_tokens", ("x1", TOKENS, TOKENS), TypeError,
                 id="read_tokens-three-arguments"),
]


def test_contract_ids_are_unique():
    ids = [row.id for row in CONTRACT]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("name, args, expected", CONTRACT)
def test_kernel_contract(compiled_kernel, name, args, expected):
    unused = []  # the draws each kernel left, so both must call random as often
    args, kwargs = split_kwargs(args)
    for kernel in (py, compiled_kernel):
        fn = getattr(kernel, name)
        streams = [iter(a) if isinstance(a, Uniforms) else None for a in args]
        call = [a if it is None else it.__next__ for a, it in zip(args, streams)]
        if isinstance(expected, type):
            with pytest.raises(expected):
                fn(*call, **kwargs)
        else:
            result = fn(*call, **kwargs)
            assert result == expected and type(result) is type(expected)
            assert [type(s) for s in result] == [type(s) for s in expected]
        unused.append([len(list(it)) for it in streams if it is not None])
    assert unused[0] == unused[1]


one_letter_images = st.one_of(
    words.map(tuple),
    words,
    st.lists(st.one_of(letters, st.sampled_from([0, True, False, 1 << 40, -(1 << 40), Gen.B])),
             max_size=8).map(tuple),
)


@given(
    letter=st.integers(-RANK, RANK),
    table=st.lists(one_letter_images, min_size=RANK, max_size=RANK),
    budget=st.one_of(st.none(), st.integers(-1, 12)),
)
def test_kernels_agree_on_one_letter_words(compiled_kernel, letter, table, budget):
    images = [(), *table]
    assert budget_outcome(compiled_kernel, (letter,), images, budget) == budget_outcome(
        py, (letter,), images, budget
    )


def test_budget_is_keyword_only(compiled_kernel):
    # The benchmark tracer replays each recorded substitute call from its
    # positional arguments as ``(word, images)``, so the budget must never
    # travel by position: both kernels refuse a third positional argument.
    for kernel in (py, compiled_kernel):
        with pytest.raises(TypeError):
            kernel.substitute((1,), [(), (2,)], 5)
        with pytest.raises(TypeError):
            kernel.substitute((1,), [(), (2,)], limit=5)
        assert kernel.substitute((1,), [(), (2,)], budget=1) == (2,)


def budget_outcome(kernel, word, images, budget):
    """``outcome`` of ``substitute`` under ``budget``; a budget error also
    gives its ``needed`` and ``budget``."""
    try:
        result = kernel.substitute(word, images, budget=budget)
    except ImageBudgetError as exc:
        return type(exc), exc.needed, exc.budget
    except Exception as exc:  # the exception type is what both kernels must share
        return type(exc)
    return type(result), result, [type(s) for s in result]


# Letters (1, 2, -3) use images of 2, 1 and 2 letters: 5 in all.
SIZES = [(), (1, 2), (3,), (2, -1)]
OVER = ImageBudgetError

# (word, images, budget, result, exception type, or (OVER, needed, budget)).
BUDGET_CASES = [
    pytest.param((1, 2, -3), SIZES, 5, (1, 2, 3, 1, -2), id="needed-equals-budget"),
    pytest.param((1, 2, -3), SIZES, 4, (OVER, 5, 4), id="needed-one-past-budget"),
    pytest.param((), SIZES, 0, (), id="empty-word-at-budget-0"),
    pytest.param((), SIZES, -1, (OVER, 0, -1), id="empty-word-below-budget-0"),
    pytest.param((1,) * 50, SIZES, 2**70, (1, 2) * 50, id="budget-past-ssize-never-trips"),
    pytest.param((1,), SIZES, -(2**70), (OVER, 2, -(2**70)), id="budget-below-ssize-trips"),
    pytest.param((1, 2, -3), SIZES, None, (1, 2, 3, 1, -2), id="no-budget"),
    pytest.param((1,), SIZES, True, (OVER, 2, 1), id="bool-budget-is-an-index"),
    pytest.param((1,), SIZES, 2.0, TypeError, id="float-budget"),
    pytest.param((), SIZES, "2", TypeError, id="str-budget"),
    # the whole word is read before the sum is compared: a bad letter after
    # the overrun still raises its own error
    pytest.param((1, "x1"), SIZES, 1, TypeError, id="bad-letter-type-under-budget"),
    pytest.param((1, 4), SIZES, 1, IndexError, id="bad-letter-range-under-budget"),
    pytest.param((1, 1 << 80), SIZES, 1, IndexError, id="wide-letter-under-budget"),
    pytest.param((1, -2), [(), (1, 2), None], 1, TypeError, id="bad-image-type-under-budget"),
    # no image letter is read before the sum is compared
    pytest.param((1, 1), [(), ("a", 1.5)], 3, (OVER, 4, 3), id="bad-image-letter-past-budget"),
    pytest.param((1, 1), [(), ("a", 1.5)], 4, TypeError, id="bad-image-letter-within-budget"),
    # a one-letter word is checked like any other
    pytest.param((1,), [(), (2, -3, 2)], 2, (OVER, 3, 2), id="one-letter-past-budget"),
    pytest.param((1,), [(), (2, -3, 2)], 3, (2, -3, 2), id="one-letter-at-budget"),
    pytest.param((1,), [(), (1, -1)], 1, (OVER, 2, 1), id="one-letter-unreduced-past-budget"),
]


# The names of the letters of SIZES, for format_image.
BUDGET_NAMES = ("", "a", "b", "c", "C", "B", "A")


@pytest.mark.parametrize("word, images, budget, expected", BUDGET_CASES)
def test_kernel_budget(compiled_kernel, word, images, budget, expected):
    text = expected  # format_image's outcome
    if isinstance(expected, tuple) and expected[:1] != (OVER,):
        text = (str, " ".join(BUDGET_NAMES[c] for c in expected))
        expected = (tuple, expected, [int] * len(expected))
    for kernel in (py, compiled_kernel):
        assert budget_outcome(kernel, word, images, budget) == expected, kernel.BACKEND
        assert image_outcome(kernel, word, images, BUDGET_NAMES, budget) == text, kernel.BACKEND


budgets = st.one_of(
    st.none(),
    st.integers(-2, 2000),
    st.sampled_from([2**70, -(2**70), LONG_MAX, True, 1.0, "3"]),
)


@given(
    word=st.one_of(unreduced, faulty_words),
    table=st.one_of(tables, faulty_tables),
    budget=budgets,
)
def test_kernels_agree_on_budgets(compiled_kernel, word, table, budget):
    assert budget_outcome(compiled_kernel, word, table, budget) == budget_outcome(
        py, word, table, budget
    )


def test_budget_errors_keep_their_reference_count(compiled_kernel):
    # A budget past CPython's small ints, so only this test and the kernel
    # hold it; every failed call must release what it took.
    budget = int("333")
    word = (1,) * 200
    baseline = sys.getrefcount(budget)
    for _ in range(10**4):
        with pytest.raises(ImageBudgetError):
            compiled_kernel.substitute(word, [(), (1, 2)], budget=budget)
    assert sys.getrefcount(budget) == baseline


def test_backend_name(compiled_kernel):
    assert compiled_kernel.BACKEND == "c"
    assert py.BACKEND == "py"


STRICT = ["-Wall", "-Wextra", "-Werror"]


def test_kernel_source_compiles_without_warnings(tmp_path):
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    _, proc = compile_kernel(compiler, tmp_path, STRICT)
    assert proc.returncode == 0, proc.stderr
    assert "_wordops_c.c" not in proc.stderr, proc.stderr


# Every other CPython 3.10+ on PATH. The kernel reads ints differently from
# 3.12 on, and ``setup.py`` builds it as optional, so a build that fails on
# one version would quietly fall back to the pure kernel there.
RUNNING = f"{sys.version_info[0]}.{sys.version_info[1]}"
OTHER_PYTHONS = {v: c for v, c in python_configs().items() if v != RUNNING}


def plain(value):
    """True iff ``repr(value)`` reads back as an equal value of the same types."""
    if type(value) in (tuple, list):
        return all(map(plain, value))
    if type(value) is dict:
        return plain(list(value.items()))
    return type(value) in (int, bool, float, str, type(None))


# The substitute, format_letters, format_image and read_tokens rows of
# CONTRACT and the rows of BUDGET_CASES, through substitute and format_image,
# that hold plain values, as (id, op, args, kwargs); another interpreter reads
# them back with literal_eval.
PLAIN_ROWS = [
    (row.id, row.values[0], *split_kwargs(row.values[1])) for row in CONTRACT
    if row.values[0] in ("substitute", "format_letters", "format_image", "read_tokens")
    and plain(split_kwargs(row.values[1]))
] + [
    (row.id, "substitute", row.values[:2], {"budget": row.values[2]}) for row in BUDGET_CASES
    if plain(row.values[:3])
] + [
    (f"{row.id}-format_image", "format_image", (*row.values[:2], BUDGET_NAMES),
     {"budget": row.values[2]})
    for row in BUDGET_CASES if plain(row.values[:3])
]


def op_outcome(kernel, op, args, kwargs):
    """What ``kernel.<op>(*args, **kwargs)`` gives, with type names, so that
    another interpreter can print it for ``literal_eval``."""
    try:
        result = getattr(kernel, op)(*args, **kwargs)
    except Exception as exc:  # the exception type is what every build must share
        return type(exc).__name__, getattr(exc, "needed", None), getattr(exc, "budget", None)
    return type(result).__name__, result, [type(s).__name__ for s in result]


# Loads the kernel built at argv[1] and prints the outcome of every row read
# from stdin. The package, which holds ImageBudgetError, comes from SRC with
# the pure kernel selected.
REPLAY = f"""\
import ast, importlib.machinery, importlib.util, sys
loader = importlib.machinery.ExtensionFileLoader("mcgcalc._wordops_c", sys.argv[1])
kernel = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
loader.exec_module(kernel)
{inspect.getsource(op_outcome)}
rows = ast.literal_eval(sys.stdin.read())
print(repr([(id, op_outcome(kernel, *row)) for id, *row in rows]))
"""


@pytest.mark.parametrize(
    "version", sorted(OTHER_PYTHONS, key=lambda v: int(v.split(".")[1])) or [None]
)
def test_kernel_source_compiles_against_other_pythons(compiled_kernel, tmp_path, version):
    if version is None:
        pytest.skip("no python3.X-config for another CPython 3.10+ on PATH")
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    includes, script = python_includes(OTHER_PYTHONS[version])
    if includes is None:
        pytest.skip(f"no headers for CPython {version}: {script}")
    target, proc = compile_kernel(compiler, tmp_path, STRICT, includes)
    assert proc.returncode == 0, f"{' '.join(includes)}\n{proc.stderr}"
    # Load the build there too: from 3.12 on, fast_letter takes another branch.
    interpreter = script.removesuffix("-config")
    if not os.access(interpreter, os.X_OK):
        pytest.skip(f"no interpreter beside {script} to load the build")
    proc = subprocess.run(
        [interpreter, "-c", REPLAY, str(target)],
        input=repr(PLAIN_ROWS),
        capture_output=True,
        text=True,
        env=dict(os.environ, MCGCALC_KERNEL="py", PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [
        (id, op_outcome(compiled_kernel, *row)) for id, *row in PLAIN_ROWS
    ]


def test_stale_build_is_found_by_source_hash(tmp_path):
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    source = tmp_path / KERNEL_SOURCE.name
    source.write_bytes(KERNEL_SOURCE.read_bytes())
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    hashed, proc = compile_kernel(compiler, tmp_path, ["-O0", f'-DSOURCE_SHA256="{digest}"'])
    assert proc.returncode == 0, proc.stderr
    assert stale_kernel_reason(hashed, source) is None
    # later source that the build does not come from, whatever the mtimes say
    source.write_bytes(source.read_bytes() + b"\n")
    os.utime(source, (0, 0))
    assert "other source" in stale_kernel_reason(hashed, source)


def test_stale_build_by_hand_is_found_by_mtime(tmp_path):
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    by_hand, proc = compile_kernel(compiler, tmp_path, ["-O0"])
    assert proc.returncode == 0, proc.stderr
    assert stale_kernel_reason(by_hand, KERNEL_SOURCE) is None
    built = os.path.getmtime(KERNEL_SOURCE) - 10
    os.utime(by_hand, (built, built))
    assert "older than" in stale_kernel_reason(by_hand, KERNEL_SOURCE)


# --- both kernels end to end ----------------------------------------------------

LONG_TARGET = " ".join(["x1 y2 x3^-1 y1"] * 1200)
# 10,000 letters parted by tabs, newlines and no-break spaces (text that is not
# ASCII), and 2,000 braid letters, blocks that the braid relation makes trivial
SPACED_TARGET = "".join(
    token + gap
    for token, gap in zip(["x1", "y2", "x3^-1", "y1"] * 2500, ["\t", "\n", "\xa0", " "] * 2500)
)
LONG_BRAID = " ".join(["b1 b2 b1 b2^-1 b1^-1 b2^-1"] * 333 + ["b3 b3^-1"])
CLI_RUNS = {
    "verify": ["verify", "--genus", "2..4", "--all", "--json", "--seed", "1"],
    "braid-trivial": ["braid-trivial", "--strands", "4", "b1 b2 b1 b3 b2^-1 b1^-1 b2^-1 b3^-1"],
    "act": ["act", "twist-word", "a1 b2 w1^-1 a3", "--genus", "3", "--on", "x1 y2 x3^-1 y1"],
    # an image of at least 10,000 letters (checked below), of one letter, and 1
    "act-long-image": ["act", "twist-word", "a1 b2 w1^-1 a3 b1 w2 b3^-1", "--genus", "3",
                       "--on", LONG_TARGET],
    "act-one-letter-image": ["act", "twist-word", "a1 b2", "--genus", "2", "--on", "x1"],
    "act-identity-image": ["act", "twist-word", "a1", "--genus", "2", "--on", "1"],
    "act-cancelling-word": ["act", "braid-psi", "b1 b2^-1", "--genus", "3",
                            "--on", "x1 y2 y2^-1 x3 x3^-1 x1^-1 y1 x2 x2^-1"],
    "act-spaced-long-word": ["act", "twist-word", "a1 b2 w1^-1 a3", "--genus", "3",
                             "--on", SPACED_TARGET],
    "braid-trivial-long-word": ["braid-trivial", "--strands", "4", LONG_BRAID],
    "export": ["export", "twist-word", "a1 b2^-1 w1 a2", "--genus", "3", "--json"],
}


@pytest.mark.parametrize("name, argv", CLI_RUNS.items(), ids=CLI_RUNS.keys())
def test_cli_output_is_kernel_independent(run_cli, name, argv):
    pure = run_cli("py", argv)
    compiled = run_cli("c", argv)
    assert pure.stderr == compiled.stderr == ""
    assert compiled.returncode == pure.returncode
    # verify --json names the kernel that ran; everything else is byte-identical.
    assert compiled.stdout == pure.stdout.replace('"kernel": "py"', '"kernel": "c"')
    if name == "act-long-image":
        assert len(compiled.stdout.split()) >= 10_000
    if name == "act-spaced-long-word":
        assert len(SPACED_TARGET.split()) == 10_000 and not SPACED_TARGET.isascii()
    if name == "braid-trivial-long-word":
        assert len(LONG_BRAID.split()) == 2000 and compiled.returncode == 0


# An act request that --budget refuses: a1 moves 5 letters of xy(2), within
# the budget, but the image of the word needs 30. It exits 2 with the
# ImageBudgetError's message on stderr.
ACT_PAST_BUDGET = ["act", "twist-word", "a1", "--genus", "2",
                   "--on", " ".join(["x1 y1"] * 10), "--budget", "10"]


def test_cli_refusal_is_kernel_independent(run_cli):
    pure = run_cli("py", ACT_PAST_BUDGET)
    compiled = run_cli("c", ACT_PAST_BUDGET)
    assert (compiled.returncode, compiled.stdout, compiled.stderr) == (
        pure.returncode, pure.stdout, pure.stderr
    )
    assert pure.returncode == 2 and pure.stdout == ""
    assert pure.stderr == "error: image of size 30 exceeds the letter budget 10\n"


# sha256 of json.dumps(payload["results"], sort_keys=True) of
# `verify --all --genus 2..8 --json --seed 0`. The results name no kernel, so
# both kernels must give these bytes.
VERIFY_ALL_RESULTS = "749b09a73fea53bfc8cc1b0f3f63370b5e7a8ad7c095a0d97a8110aad48959aa"


@pytest.mark.parametrize("backend", ["py", "c"])
def test_verify_all_results_are_pinned(run_cli, backend):
    result = run_cli(backend, ["verify", "--all", "--genus", "2..8", "--json", "--seed", "0"])
    assert result.returncode == 0, result.stderr
    results = json.loads(result.stdout)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_ALL_RESULTS


# Requests of every kind, a parse error, usage errors and a budget refusal
# among them, sent through one process the way the benchmark and the tests
# send them.
MIXED_REQUESTS = [
    CLI_RUNS["act"],
    ["export", "sigma", "1", "--genus", "2", "--json"],
    ["braid-trivial", "--strands", "3", "b1 b2 b1 b2^-1 b1^-1 b2^-1"],
    CLI_RUNS["braid-trivial"],
    ["verify", "--genus", "2..3", "--which", "thm22", "--json"],
    ["verify", "--genus", "5..2", "--which", "thm22"],
    ["verify", "--genus", "2", "--which", "thm22", "--jobs", "0"],
    ["export", "sigma", "1", "--genus", "2", "--json"],
    ACT_PAST_BUDGET,
]


@pytest.mark.parametrize("backend", ["py", "c"])
def test_one_process_matches_fresh_processes(run_cli, run_cli_many, backend):
    results = run_cli_many(backend, MIXED_REQUESTS)
    assert [code for code, _, _ in results] == [0, 0, 0, 1, 0, 2, 2, 0, 2]
    for argv, (code, out, err) in zip(MIXED_REQUESTS, results):
        fresh = run_cli(backend, argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# Generated requests for the parity sweep below. Ranks (genus, strand count)
# stay at 6 or less, so no request builds a large table; indices, letters,
# budgets and seeds may have 30 digits, and any token may be malformed.
BIG = "123456789012345678901234567890"
ODD = ["", " ", "x", "-", "2.5", "1e3", "0x3", "+2", "٣", "１", "\x00", "é", "--", "-" + BIG]


def _fuzz_argv(rng):
    def odd(valid, pool=ODD + [BIG]):  # mostly the valid token, sometimes a malformed one
        return rng.choice(pool) if rng.random() < 0.05 else valid

    def number():  # an index or a seed
        return odd(str(rng.choice([0, 1, 1, 2, 3, 5, 9, -1, int(BIG)])))

    def text(prefixes, top):  # a short word over indices 1..top, at times with one bad token
        tokens = [
            rng.choice(prefixes) + str(rng.randint(1, top)) + rng.choice(["", "^-1"])
            for _ in range(rng.randint(0, 5))
        ]
        if tokens and rng.random() < 0.3:
            bad = rng.choice([prefixes[0] + index for index in ("0", "9", BIG, "1^-2", "1^")] + ODD)
            tokens[rng.randrange(len(tokens))] = bad
        return " ".join(tokens) or "1"

    rank = rng.choice([2, 2, 3, 3, 4, 4, 5, 6, 0, 1])
    top = max(rank - 1, 1)
    command = rng.choice(["verify", "act", "export", "braid-trivial"])
    if command == "verify":
        lo = rng.randint(1, 5)
        genus = odd(rng.choice([str(lo), f"{lo}..{lo + 1}"]), ODD + ["3..2", "2..", "..3"])
        checks = ["thm22", "chains", "relations", "relator", "artin-restriction"]
        if rng.random() < 0.1:  # the randomized check is the slow one: rarely
            checks.append("yz-roundtrip")
        which = ",".join(rng.sample(checks, rng.randint(1, 3)))
        argv = ["verify", "--genus", genus, "--which", odd(which, ["bogus", ""])]
        argv += rng.choice([[], ["--json"]]) + rng.choice([[], ["--seed", number()]])
    elif command in ("act", "export"):
        kind = rng.choice(["twist-word", "sigma", "braid-psi"])
        spec = {"sigma": number, "twist-word": lambda: text("abw", top),
                "braid-psi": lambda: text("b", top)}[kind]()
        argv = [command, odd(kind), spec, "--genus", odd(str(rank), ODD)]
        argv += ["--on", text("xy", top)] if command == "act" else rng.choice([[], ["--json"]])
    else:
        argv = ["braid-trivial", text("b", top), "--strands", odd(str(rank), ODD)]
    if rng.random() < 0.5:
        argv += ["--budget", odd(str(rng.choice([0, -5, 1, 10, 500, 10**7, 10**7, int(BIG)])))]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(ODD))
    return argv


FUZZ_ARGVS = [_fuzz_argv(random.Random(seed)) for seed in range(300)]


def test_generated_requests_exit_cleanly_and_alike_under_both_kernels(run_cli_many):
    pure = run_cli_many("py", FUZZ_ARGVS)
    compiled = run_cli_many("c", FUZZ_ARGVS)
    for argv, (code, out, err), c in zip(FUZZ_ARGVS, pure, compiled):
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        # verify --json names the kernel that ran; everything else is byte-identical.
        assert c == (code, out.replace('"kernel": "py"', '"kernel": "c"'), err), argv
    # the sweep reaches every verdict, not only the usage errors
    assert {code for code, _, _ in pure} == {0, 1, 2}


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
