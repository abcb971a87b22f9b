"""Seeded inputs for the braid-pairs and act-long workloads.

Everything here is generated by the benchmark's own PRNG (splitmix64), not
by ``random`` or by mcgcalc's ``random_word``/``random_braid_word``, so the
inputs for a given seed never move when the library or the interpreter
changes its random streams. Every instance carries its known answer.

A run issues several batches; batch ``k`` of seed ``s`` has its own input
set, drawn from the stream for ``(s, k)``.
"""

import freegroup

MASK = (1 << 64) - 1

BRAID_STRANDS = (3, 4, 5, 6, 7, 8)
BRAID_PER_CELL = 10  # instances per (strand count, kind): 6 * 2 * 10 = 120
BRAID_BASE_LEN = 30
BRAID_RELATORS = 30
BRAID_NONTRIVIAL_LEN = (20, 50)

ACT_GENERA = (4, 8, 12)
ACT_PER_CELL = 5  # requests per (genus, kind): 3 * 2 * 5 = 30
ACT_TWIST_LEN = 24
ACT_BRAID_LEN = 10
# The word each map is applied to gets about ACT_EXPANDED / (mean image
# length) letters, 2000 for a map of mean image length 15, so that every
# request formats an image of about 30k letters whatever its map's growth.
ACT_EXPANDED = 30000
ACT_TARGET_LEN = (250, 6000)


class SplitMix64:
    """Small, fully specified PRNG; the same seed gives the same stream anywhere."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        return (self.next64() * n) >> 64

    def between(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def sign(self) -> int:
        return 1 if self.next64() >> 63 else -1

    def letter(self, alphabet: int) -> int:
        """Signed letter in 1..alphabet, either sign."""
        k = self.below(2 * alphabet)
        return k // 2 + 1 if k % 2 else -(k // 2 + 1)


def _stream(seed: int, workload: str, batch: int) -> SplitMix64:
    salt = 0
    for ch in workload:
        salt = (salt * 131 + ord(ch)) & MASK
    mixed = SplitMix64(seed ^ salt).next64()
    return SplitMix64(SplitMix64(mixed ^ batch).next64())


def _letters(rng: SplitMix64, length: int, alphabet: int) -> list[int]:
    """Independent signed letters in 1..alphabet."""
    return [rng.letter(alphabet) for _ in range(length)]


def _reduced_letters(rng: SplitMix64, length: int, alphabet: int) -> list[int]:
    """Signed letters in 1..alphabet with no adjacent inverse pair."""
    out: list[int] = []
    while len(out) < length:
        k = rng.letter(alphabet)
        if not out or out[-1] != -k:
            out.append(k)
    return out


def braid_text(letters) -> str:
    return " ".join(f"b{k}" if k > 0 else f"b{-k}^-1" for k in letters)


def _insert_relators(rng: SplitMix64, letters: list[int], strands: int, count: int):
    """Insert ``count`` relators of the braid group; the braid is unchanged."""
    moves = ["pair", "braid"] + (["far"] if strands >= 4 else [])
    letters = list(letters)
    for _ in range(count):
        move = moves[rng.below(len(moves))]
        if move == "pair":
            k = (1 + rng.below(strands - 1)) * rng.sign()
            relator = [k, -k]
        elif move == "braid":
            i = 1 + rng.below(strands - 2)
            relator = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        else:
            i = 1 + rng.below(strands - 3)
            j = rng.between(i + 2, strands - 1)
            relator = [i, j, -i, -j]
        if rng.sign() < 0:
            relator = [-k for k in reversed(relator)]
        pos = rng.below(len(letters) + 1)
        letters[pos:pos] = relator
    return letters


def braid_pairs(seed: int, batch: int) -> list[dict]:
    """Instances ``{"strands", "word", "trivial"}`` with known verdicts.

    Trivial: ``u v^-1`` where ``v`` is ``u`` with relators inserted.
    Nontrivial: a word of at most 60 letters with nonzero exponent sum
    (exponent sum is a homomorphism to Z, so such a braid is never the
    identity).
    """
    rng = _stream(seed, "braid-pairs", batch)
    items = []
    for _ in range(BRAID_PER_CELL):
        for strands in BRAID_STRANDS:
            u = _letters(rng, BRAID_BASE_LEN, strands - 1)
            v = _insert_relators(rng, u, strands, BRAID_RELATORS)
            word = u + [-k for k in reversed(v)]
            items.append({"strands": strands, "word": braid_text(word), "trivial": True})

            while True:
                length = rng.between(*BRAID_NONTRIVIAL_LEN)
                word = _letters(rng, length, strands - 1)
                if sum(1 if k > 0 else -1 for k in word):
                    break
            items.append({"strands": strands, "word": braid_text(word), "trivial": False})
    return items


def _twist_text(rng: SplitMix64, genus: int, length: int) -> str:
    symbols = [f"a{i}" for i in range(1, genus + 1)]
    symbols += [f"b{i}" for i in range(1, genus + 1)]
    symbols += [f"w{i}" for i in range(1, genus)]
    letters = _reduced_letters(rng, length, len(symbols))
    return " ".join(
        symbols[k - 1] if k > 0 else symbols[-k - 1] + "^-1" for k in letters
    )


def act_long(seed: int, batch: int) -> list[dict]:
    """Requests ``{"object", "spec", "genus", "on"}`` for ``mcgcalc act``.

    Each request also carries ``"map"``, the benchmark's own evaluation of
    its mapping class; it stays with the benchmark and is not sent to the
    program.
    """
    rng = _stream(seed, "act-long", batch)
    items = []
    for _ in range(ACT_PER_CELL):
        for genus in ACT_GENERA:
            for obj in ("twist-word", "braid-psi"):
                if obj == "twist-word":
                    spec = _twist_text(rng, genus, ACT_TWIST_LEN)
                else:
                    spec = braid_text(_reduced_letters(rng, ACT_BRAID_LEN, genus - 1))
                images = freegroup.request_map(obj, spec, genus)
                mean = sum(map(len, images.values())) / len(images)
                lo, hi = ACT_TARGET_LEN
                length = min(hi, max(lo, round(ACT_EXPANDED / mean)))
                target = _reduced_letters(rng, length, 2 * genus)
                items.append(
                    {
                        "object": obj,
                        "spec": spec,
                        "genus": genus,
                        "on": freegroup.format_xy(target),
                        "map": images,
                    }
                )
    return items
