"""Pure-Python word kernel.

Twin of the compiled kernel in ``_wordops_c.c``: same four functions,
same semantics, used when the extension is not built or when
``MCGCALC_KERNEL=py`` asks for it. Letters are nonzero signed integers;
a letter and its negative cancel. Every letter the compiled kernel reads
must be an ``int`` here too, else ``TypeError``; only letters beyond a C
long differ, as this kernel computes with them.
"""

from itertools import chain, repeat
from operator import neg

BACKEND = "py"


def _check_letters(seq):
    if not all(map(isinstance, seq, repeat(int))):
        bad = next(s for s in seq if not isinstance(s, int))
        raise TypeError(f"letters are ints, not {type(bad).__name__}")


def _check_substitution(word, images):
    """Raise what the compiled kernel raises for ``substitute(word, images)``."""
    if all(map(isinstance, word, repeat(int))):
        letters = dict.fromkeys(word)
        if not letters or -len(images) < min(letters) <= max(letters) < len(images):
            used = [images[-s if s < 0 else s] for s in letters]
            if all(map(isinstance, used, repeat((tuple, list)))) and all(
                map(isinstance, chain.from_iterable(used), repeat(int))
            ):
                return
    # Some input is bad: find the first fault in the order the compiled
    # kernel reads the word and the images its letters use.
    for s in word:
        _check_letters((s,))
        img = images[-s if s < 0 else s]
        if not isinstance(img, (tuple, list)):
            raise TypeError("images are tuples or lists")
        _check_letters(img)


def reduce_letters(seq):
    """Freely reduce a letter sequence (single left-to-right stack scan)."""
    seq = tuple(seq)
    _check_letters(seq)
    out = []
    pop = out.pop
    push = out.append
    for s in seq:
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


def invert_reduced(u):
    """Inverse of a reduced word: reverse the sequence, negate each letter."""
    u = tuple(u)
    _check_letters(u)
    return tuple(map(neg, reversed(u)))


def substitute(word, images):
    """Replace every letter by its image and reduce.

    ``images[k]`` is the (reduced) image of the positive letter ``k``; a
    negative letter contributes the inverted image. Cancellation is
    handled on the fly with one stack, so the result is reduced.
    """
    if not isinstance(images, (tuple, list)):
        raise TypeError("substitute expects a tuple or list of images")
    word = tuple(word)
    _check_substitution(word, images)
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
