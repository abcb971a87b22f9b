"""Mapping classes of a once-holed surface as free-group automorphisms.

The mapping class group of a genus-g surface with one boundary circle
embeds into the automorphisms of the free group on x_1, y_1, ..., x_g,
y_g as the maps fixing the boundary relator [y_1,x_1]...[y_g,x_g]. This
package carries that identification out symbolically: Dehn-twist and
pillar-switching actions, their twist factorizations, the {y, z} change
of free basis, the Artin representation of the braid group, and the
braid word problem, all certified by exact reduced-word computation.

Word reduction and substitution run in a compiled kernel when the
extension is built, with a pure-Python twin selected automatically
otherwise (``kernel_backend()`` tells which one is active).
"""

from ._wordops import kernel_backend
from .braids import (
    BraidWord,
    artin_action,
    format_braid_word,
    insert_relations,
    is_trivial_braid,
    parse_braid_word,
    psi_action,
    random_braid_word,
    restrict_to_z,
    verify_artin_restriction,
    verify_psi_relations,
)
from .endos import (
    DEFAULT_IMAGE_BUDGET,
    FreeEndomorphism,
    product,
    verify_inverse_pair,
)
from .errors import (
    BasisMismatchError,
    ImageBudgetError,
    NotZStableError,
    WordSyntaxError,
)
from .pillars import (
    commutator,
    conjugate_to_yz,
    fixes_relator,
    from_yz,
    fundamental_relator,
    pillar_switching_action,
    pillar_switching_inverse,
    pillar_switching_twist_word,
    pillar_switching_yz,
    replay_proof_chains,
    to_yz,
    verify_relator_invariance,
    verify_theorem_2_2,
    verify_yz_roundtrip,
)
from .reports import CheckCase, Mismatch, VerificationReport
from .twists import (
    TwistKind,
    TwistSymbol,
    TwistWord,
    dehn_twist_action,
    evaluate_twist_word,
    format_twist_word,
    parse_twist_word,
    word_with_z,
    z_loop,
)
from .words import (
    Basis,
    BasisKind,
    Family,
    Letter,
    Symbol,
    Word,
    format_word,
    parse_word,
    random_word,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BasisKind",
    "BasisMismatchError",
    "BraidWord",
    "CheckCase",
    "DEFAULT_IMAGE_BUDGET",
    "Family",
    "FreeEndomorphism",
    "ImageBudgetError",
    "Letter",
    "Mismatch",
    "NotZStableError",
    "Symbol",
    "TwistKind",
    "TwistSymbol",
    "TwistWord",
    "VerificationReport",
    "Word",
    "WordSyntaxError",
    "artin_action",
    "commutator",
    "conjugate_to_yz",
    "dehn_twist_action",
    "evaluate_twist_word",
    "fixes_relator",
    "format_braid_word",
    "format_twist_word",
    "format_word",
    "from_yz",
    "fundamental_relator",
    "insert_relations",
    "is_trivial_braid",
    "kernel_backend",
    "parse_braid_word",
    "parse_twist_word",
    "parse_word",
    "pillar_switching_action",
    "pillar_switching_inverse",
    "pillar_switching_twist_word",
    "pillar_switching_yz",
    "product",
    "psi_action",
    "random_braid_word",
    "random_word",
    "replay_proof_chains",
    "restrict_to_z",
    "to_yz",
    "verify_artin_restriction",
    "verify_inverse_pair",
    "verify_psi_relations",
    "verify_relator_invariance",
    "verify_theorem_2_2",
    "verify_yz_roundtrip",
    "word_with_z",
    "z_loop",
]
