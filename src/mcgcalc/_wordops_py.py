"""Pure-Python word kernel.

Twin of the compiled kernel in ``_wordops_c.c``: same four functions,
same semantics, used when the extension is not built or when
``MCGCALC_KERNEL=py`` asks for it. Letters are nonzero signed integers;
a letter and its negative cancel.
"""

BACKEND = "py"


def reduce_letters(seq):
    """Freely reduce a letter sequence (single left-to-right stack scan)."""
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
    while i > 0 and j < nv and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    if j == 0:
        return u + v
    if i == 0:
        return v[j:]
    return u[:i] + v[j:]


def invert_reduced(u):
    """Inverse of a reduced word: reverse the sequence, negate each letter."""
    return tuple(-s for s in reversed(u))


def substitute(word, images):
    """Replace every letter by its image and reduce.

    ``images[k]`` is the (reduced) image of the positive letter ``k``; a
    negative letter contributes the inverted image. Cancellation is
    handled on the fly with one stack, so the result is reduced.
    """
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
