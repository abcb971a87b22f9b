"""Verification reports: named checks with per-generator word diffs.

Failures are data, not exceptions: every verifier returns a report whose
cases hold exactly when their mismatch lists are empty.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional, Sequence

from .endos import DEFAULT_IMAGE_BUDGET, FreeEndomorphism, product
from .errors import BasisMismatchError
from .words import Basis, Word, _Value, format_word


class Mismatch(_Value):
    """One failed comparison: what was produced (lhs) vs expected (rhs)."""

    generator: str
    lhs: Word
    rhs: Optional[Word]

    def __init__(self, generator: str, lhs: Word, rhs: Optional[Word]):
        self.__dict__.update(generator=generator, lhs=lhs, rhs=rhs)

    def to_json_item(self) -> list:
        return [
            self.generator,
            format_word(self.lhs),
            None if self.rhs is None else format_word(self.rhs),
        ]


class CheckCase(_Value):
    name: str
    mismatches: tuple[Mismatch, ...]

    def __init__(self, name: str, mismatches: Iterable[Mismatch] = ()):
        self.__dict__.update(name=name, mismatches=tuple(mismatches))

    @property
    def holds(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "mismatches": [m.to_json_item() for m in self.mismatches],
        }


class VerificationReport(_Value):
    genus: int
    cases: tuple[CheckCase, ...]

    def __init__(self, genus: int, cases: Iterable[CheckCase]):
        self.__dict__.update(genus=genus, cases=tuple(cases))

    @property
    def all_hold(self) -> bool:
        return all(case.holds for case in self.cases)

    def case(self, name: str) -> CheckCase:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "cases": [case.to_json_dict() for case in self.cases],
        }


def case_from_endos(
    name: str, lhs: FreeEndomorphism, rhs: FreeEndomorphism
) -> CheckCase:
    """Compare two maps generator by generator; record every difference.

    Maps over different bases are not comparable: ``BasisMismatchError``.
    """
    if lhs.basis is not rhs.basis:
        raise BasisMismatchError(f"cannot compare maps over {lhs.basis} and {rhs.basis}")
    if lhs.table == rhs.table:
        return CheckCase(name)
    mismatches = tuple(
        Mismatch(sym.name, lhs.image_of(sym), rhs.image_of(sym))
        for sym in lhs.basis.symbols
        if lhs.table[sym.code] != rhs.table[sym.code]
    )
    return CheckCase(name, mismatches)


Identity = tuple[str, Sequence[FreeEndomorphism], Sequence[FreeEndomorphism]]


def identity_report(
    genus: int, basis: Basis, identities: Iterable[Identity], *,
    budget: int = DEFAULT_IMAGE_BUDGET,
) -> VerificationReport:
    """One case per ``(name, lhs, rhs)`` identity, in order.

    Each side is a ``product`` over ``basis`` (rightmost factor first, at most
    ``budget`` letters, else ``ImageBudgetError``), compared by ``case_from_endos``.
    """
    side = partial(product, basis, budget=budget)
    cases = [case_from_endos(name, side(lhs), side(rhs)) for name, lhs, rhs in identities]
    return VerificationReport(genus, tuple(cases))
