"""The benchmark's own free-group arithmetic, independent of mcgcalc.

Used to size the act-long requests and to check the program's answers.
Words over the surface basis are tuples of signed integers: x_i is
``2i - 1``, y_i is ``2i``, and a negative entry is the inverse letter. A
map is a dict from each positive letter to its image word.
"""

import re

_TWIST_RE = re.compile(r"([abw])([0-9]+)(\^-1)?")


def x(i: int) -> int:
    return 2 * i - 1


def y(i: int) -> int:
    return 2 * i


def inverse(w):
    return tuple(-c for c in reversed(w))


def reduce(seq):
    out = []
    for c in seq:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def substitute(word, images):
    """Replace each letter by its image (inverted for inverse letters) and reduce."""
    signed = dict(images)
    signed.update((-c, inverse(img)) for c, img in images.items())
    return _substitute_signed(word, signed)


def _substitute_signed(word, signed):
    """``substitute`` with the images of inverse letters already in ``signed``."""
    out = []
    pop, push = out.pop, out.append
    for c in word:
        for t in signed[c]:
            if out and out[-1] == -t:
                pop()
            else:
                push(t)
    return tuple(out)


def parse_xy(text: str, genus: int):
    """Parse word text over x1, y1, ..., xg, yg; raises ValueError otherwise."""
    if text.strip() == "1":
        return ()
    out = []
    for token in text.split():
        inv = token.endswith("^-1")
        name = token[:-3] if inv else token
        family, digits = name[:1], name[1:]
        if family not in ("x", "y") or not digits.isdigit():
            raise ValueError(f"bad letter {token!r}")
        index = int(digits)
        if not 1 <= index <= genus:
            raise ValueError(f"letter {token!r} is out of range for genus {genus}")
        code = x(index) if family == "x" else y(index)
        out.append(-code if inv else code)
    return tuple(out)


def letter_name(code: int) -> str:
    m = abs(code) - 1
    name = ("x" if m % 2 == 0 else "y") + str(m // 2 + 1)
    return name if code > 0 else name + "^-1"


def format_xy(word) -> str:
    if not word:
        return "1"
    names = {c: letter_name(c) for c in set(word)}
    return " ".join(map(names.__getitem__, word))


def relator(genus: int):
    """R = [y1, x1] ... [yg, xg] with [u, v] = u v u^-1 v^-1."""
    out = []
    for i in range(1, genus + 1):
        out += [y(i), x(i), -y(i), -x(i)]
    return tuple(out)


def _twist_images(kind: str, i: int, sign: int) -> dict:
    """Images of the generators a twist moves (Dehn-twist formulas)."""
    if kind == "a":
        return {y(i): (y(i), -x(i) if sign > 0 else x(i))}
    if kind == "b":
        return {x(i): (x(i), y(i) if sign > 0 else -y(i))}
    z = (-x(i), y(i + 1), x(i + 1), -y(i + 1))
    if sign < 0:
        z = inverse(z)
    return {
        x(i): reduce(inverse(z) + (x(i),) + z),
        y(i): reduce((y(i),) + z),
        y(i + 1): reduce(inverse(z) + (y(i + 1),)),
    }


def parse_twists(text: str):
    """Twist-word text as ``(kind, index, sign)`` triples, leftmost first."""
    out = []
    for token in text.split():
        m = _TWIST_RE.fullmatch(token)
        if m is None:
            raise ValueError(f"bad twist token {token!r}")
        out.append((m.group(1), int(m.group(2)), -1 if m.group(3) else 1))
    return out


def switching_twists(i: int, genus: int):
    """Twist factorization of the pillar switching sigma_i, 1 <= i <= g-1."""
    if i == genus - 1:
        g = genus
        text = f"w{g - 1} a{g} b{g} w{g - 1} a{g} b{g} a{g - 1}^-1"
    else:
        text = f"a{i + 2}^-1 a{i + 1} b{i + 1} w{i + 1} w{i} a{i}^-1 b{i + 1} a{i + 1}"
    return parse_twists(text)


def braid_twists(text: str, genus: int):
    """The twist word of psi(braid), with beta_k -> sigma_k, rightmost first."""
    out = []
    for token in text.split():
        k = int(token[1:-3]) if token.endswith("^-1") else int(token[1:])
        twists = switching_twists(k, genus)
        if token.endswith("^-1"):
            twists = [(kind, i, -sign) for kind, i, sign in reversed(twists)]
        out += twists
    return out


def evaluate(twists, genus: int) -> dict:
    """The map of a twist product; the rightmost twist acts first."""
    gens = range(1, 2 * genus + 1)
    signed = {c: (c,) for c in gens}
    signed.update((-c, (-c,)) for c in gens)
    for kind, i, sign in twists:
        moved = {
            gen: _substitute_signed(img, signed)
            for gen, img in _twist_images(kind, i, sign).items()
        }
        for gen, img in moved.items():
            signed[gen] = img
            signed[-gen] = inverse(img)
    return {c: signed[c] for c in gens}


def request_map(obj: str, spec: str, genus: int) -> dict:
    """The map an ``act``/``export`` request with object ``obj`` denotes."""
    if obj == "twist-word":
        return evaluate(parse_twists(spec), genus)
    if obj == "braid-psi":
        return evaluate(braid_twists(spec, genus), genus)
    raise ValueError(f"unsupported object {obj!r}")
