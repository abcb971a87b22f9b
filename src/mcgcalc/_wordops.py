"""Word-kernel selection: compiled extension if built, pure Python otherwise.

Set ``MCGCALC_KERNEL=py`` or ``MCGCALC_KERNEL=c`` to force a backend
(``c`` raises if the extension was never compiled); any other nonempty
value raises ImportError.
"""

import os

_requested = os.environ.get("MCGCALC_KERNEL", "").strip().lower()

if _requested == "py":
    from . import _wordops_py as _impl
elif _requested == "c":
    from . import _wordops_c as _impl  # type: ignore[attr-defined]
elif _requested == "":
    try:
        from . import _wordops_c as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _wordops_py as _impl
else:
    raise ImportError(f"unknown MCGCALC_KERNEL value: {_requested!r}")

BACKEND = _impl.BACKEND
reduce_letters = _impl.reduce_letters
concat_reduced = _impl.concat_reduced
substitute = _impl.substitute
draw_letters = _impl.draw_letters
read_tokens = _impl.read_tokens
format_image = _impl.format_image


def kernel_backend() -> str:
    """Name of the active word kernel: ``"c"`` (compiled) or ``"py"``."""
    return BACKEND
