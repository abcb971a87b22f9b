"""Pure-Python word kernel.

Twin of the compiled kernel in ``_wordops_c.c``: same six functions,
same results, used when the extension is not built or when
``MCGCALC_KERNEL=py`` asks for it. Three ops reduce, join and substitute
words, ``substitute`` within a letter budget given by keyword;
``draw_letters`` calls a uniform source, such as a bound
``Random.random``, once per letter, in the compiled kernel's order, and
turns its draws into the letters of a random reduced word;
``format_image`` writes the names of the letters of a word's image, and
``read_tokens`` reads the values of the tokens of word text. Letters are
nonzero signed integers; a letter and its negative cancel. Every letter
the compiled kernel reads as a C long is read here too, in [-LONG_MAX,
LONG_MAX], and results hold plain ints; ``concat_reduced`` joins its
arguments' own letters in both.
"""

import struct
import sys
from itertools import chain, repeat
from operator import index, itemgetter

from .errors import ImageBudgetError

BACKEND = "py"
LONG_MAX = (1 << (8 * struct.calcsize("l") - 1)) - 1


def _check_letters(letters):
    """Raise what the compiled kernel raises at the first letter it cannot read:
    TypeError for a non-int, OverflowError outside [-LONG_MAX, LONG_MAX]."""
    for s in letters:
        if not isinstance(s, int):
            raise TypeError(f"letters are ints, not {type(s).__name__}")
        if not -LONG_MAX <= s <= LONG_MAX:
            raise OverflowError("letter code does not fit the compiled kernel")


def _fits(letters):
    """True if every letter is a plain int in [-LONG_MAX, LONG_MAX] (no walk)."""
    if not set(map(type, letters)) <= {int}:
        return False
    values = set(letters)
    return not values or -LONG_MAX <= min(values) and max(values) <= LONG_MAX


def _plain_letters(seq):
    """``seq`` as a tuple of plain ints, read as the compiled kernel reads it."""
    seq = tuple(seq)
    if _fits(seq):
        return seq
    _check_letters(seq)
    return tuple(map(index, seq))  # int subclasses, such as bool, as plain ints


def _needed(word, images):
    """The letters the images ``word`` uses hold in all; raises what the
    compiled kernel raises at the first bad word letter."""
    needed = 0
    for s in word:
        if not isinstance(s, int):
            raise TypeError(f"letters are ints, not {type(s).__name__}")
        img = images[-s if s < 0 else s]
        if not isinstance(img, (tuple, list)):
            raise TypeError("images are tuples or lists")
        needed += len(img)
    return needed


def _plain_images(word, images, budget):
    """``images`` with the images ``word`` uses as plain ints.

    Raises what the compiled kernel raises for
    ``substitute(word, images, budget=budget)``, in its order. Without a
    budget, that is the first fault in the order it reads the word and the
    images its letters use. With one, it first reads the whole word (see
    ``_needed``) and compares the sum with the budget, and only then reads
    image letters. The compiled kernel clamps the budget to a C ssize_t;
    a sum of lengths lies in [0, sys.maxsize], so comparing it with the
    budget itself gives the same answer.
    """
    if all(map(isinstance, word, repeat(int))):
        letters = set(word)
        if not letters or -len(images) < min(letters) <= max(letters) < len(images):
            used = [images[-s if s < 0 else s] for s in letters]
            if all(map(isinstance, used, repeat((tuple, list)))):
                if budget is not None:
                    needed = 0
                    for s in word:
                        needed += len(images[-s if s < 0 else s])
                    if needed > budget:
                        raise ImageBudgetError(needed, budget)
                if _fits(list(chain.from_iterable(used))):
                    return images
    if budget is not None and (needed := _needed(word, images)) > budget:
        raise ImageBudgetError(needed, budget)
    plain = list(images)
    for s in word:
        if not isinstance(s, int):
            raise TypeError(f"letters are ints, not {type(s).__name__}")
        k = -s if s < 0 else s
        img = images[k]
        if not isinstance(img, (tuple, list)):
            raise TypeError("images are tuples or lists")
        _check_letters(img if s > 0 else img[::-1])
        plain[k] = tuple(map(index, img))
    return plain


def _uniform(u):
    """A uniform as the compiled kernel reads it: a float's value in [0, 1)."""
    if not isinstance(u, float):
        raise TypeError(f"uniforms are floats, not {type(u).__name__}")
    u = float.__float__(u)  # the value itself, as C reads a float subclass
    if not 0.0 <= u < 1.0:
        raise ValueError("uniforms lie in [0, 1)")
    return u


def reduce_letters(seq):
    """Freely reduce a letter sequence (single left-to-right stack scan)."""
    out = []
    pop = out.pop
    push = out.append
    for s in _plain_letters(seq):
        if out and out[-1] == -s:
            pop()
        else:
            push(s)
    return tuple(out)


def concat_reduced(u, v):
    """Concatenate two already-reduced words; only boundary pairs cancel."""
    i = len(u)
    j = 0
    nv = len(v)
    while i > 0 and j < nv:
        _check_letters((u[i - 1], v[j]))
        if u[i - 1] != -v[j]:
            break
        i -= 1
        j += 1
    if j == 0:
        return u + v
    if i == 0:
        return v[j:]
    return u[:i] + v[j:]


def substitute(word, images, /, *, budget=None):
    """Replace every letter by its image and reduce.

    ``images[k]`` is the (reduced) image of the positive letter ``k``; a
    negative letter contributes the inverted image. Cancellation is
    handled on the fly with one stack, so the result is reduced.

    A ``budget`` other than None caps the letters the images write before
    they reduce: it is read as an index, and ImageBudgetError is raised
    before any image letter is read if the images the word uses total
    more (see ``_plain_images``). The result is always built on the stack.
    """
    if not isinstance(images, (tuple, list)):
        raise TypeError("substitute expects a tuple or list of images")
    if budget is not None:
        budget = index(budget)
    word = tuple(word)
    images = _plain_images(word, images, budget)
    out = []
    pop = out.pop
    push = out.append
    for s in word:
        if s > 0:
            for t in images[s]:
                if out and out[-1] == -t:
                    pop()
                else:
                    push(t)
        else:
            img = images[-s]
            for k in range(len(img) - 1, -1, -1):
                t = -img[k]
                if out and out[-1] == -t:
                    pop()
                else:
                    push(t)
    return tuple(out)


def draw_letters(random, length, letters):
    """Chain ``length`` calls of ``random()`` into the letters of a reduced word.

    ``letters`` lists each letter next to its inverse, so the inverse of
    ``letters[k]`` is ``letters[k ^ 1]``. ``random`` takes no arguments and
    returns a float in [0, 1); it is called once per letter, in order, and
    not at all when ``length`` is 0 or less. The first draw ``u`` picks index
    ``int(u * n)``; every later one picks ``j = int(u * (n - 1))`` and skips
    the previous letter's inverse, ``k = j + (j >= k ^ 1)``. ``length`` and
    ``letters`` are read whole before the first call.
    """
    length = index(length)
    if not -sys.maxsize - 1 <= length <= sys.maxsize:
        raise OverflowError("length does not fit the compiled kernel")
    letters = _plain_letters(letters)
    n = len(letters)
    if length <= 0:
        return ()
    if not n:
        raise ValueError("no letters to draw from")
    u = random()
    if type(u) is not float or not 0.0 <= u < 1.0:
        u = _uniform(u)
    k = int(u * n)
    out = [letters[k]]
    push = out.append
    # A loop, not a generator: StopIteration from ``random`` must propagate.
    for _ in range(length - 1):
        u = random()
        if type(u) is not float or not 0.0 <= u < 1.0:
            u = _uniform(u)
        j = int(u * (n - 1))
        k = j + (j >= k ^ 1)
        push(letters[k])
    return tuple(out)


def format_image(word, images, names, /, *, budget=None):
    """The text of the image of ``word``, its letters' names one space apart:
    ``" ".join(names[c] for c in substitute(word, images, budget=budget))``.

    ``names`` is a tuple of str indexed by the letter itself, so a negative
    letter counts from its end; an empty image gives "". It raises the
    budget and substitution faults first, then TypeError for names that
    are no tuple, then IndexError at the first letter that picks no name,
    and only then, as the join does, TypeError at a name that is no str.
    """
    letters = substitute(word, images, budget=budget)
    if not isinstance(names, tuple):
        raise TypeError("format_image expects a tuple of names")
    # an itemgetter of one key returns the bare name, and of none is refused
    picked = itemgetter(*letters)(names) if len(letters) > 1 else [names[c] for c in letters]
    return " ".join(picked)


def read_tokens(text, table, /):
    """The values of the whitespace-separated tokens of ``text``, in order:
    ``tuple(map(table.__getitem__, text.split()))``, and () for text without
    a token.

    ``text`` is a str (TypeError otherwise), split as ``str.split()``
    splits it; a token that ``table`` lacks raises what ``table[token]``
    raises, KeyError for a dict. The compiled kernel looks each distinct
    token of ASCII text up only once; for a table whose lookups give the
    same value every time, as a dict's do, the results are the same.
    """
    if not isinstance(text, str):
        raise TypeError(f"read_tokens expects str text, not {type(text).__name__}")
    tokens = str.split(text)
    # an itemgetter of one key returns the bare value, and of none is refused
    return itemgetter(*tokens)(table) if len(tokens) > 1 else tuple(table[t] for t in tokens)
