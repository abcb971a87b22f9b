"""Builds the optional compiled word kernel, ``src/mcgcalc/_wordops_c.c``.

It is a plain C extension: any C compiler builds it, with nothing beyond
setuptools. The package works without it (the pure-Python kernel is
selected at import time), so ``optional=True`` turns a failed compile into
a warning and only costs speed. The build records the sha256 of the source
(``SOURCE_SHA256``), so the test suite can tell a build from other source.
"""

import hashlib
from pathlib import Path

from setuptools import Extension, setup

SOURCE = "src/mcgcalc/_wordops_c.c"
SOURCE_SHA256 = hashlib.sha256((Path(__file__).parent / SOURCE).read_bytes()).hexdigest()

setup(
    ext_modules=[
        Extension(
            "mcgcalc._wordops_c",
            [SOURCE],
            define_macros=[("SOURCE_SHA256", f'"{SOURCE_SHA256}"')],
            optional=True,
        )
    ]
)
