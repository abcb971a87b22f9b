"""Builds the optional compiled word kernel, ``src/mcgcalc/_wordops_c.c``.

It is a plain C extension: any C compiler builds it, with nothing beyond
setuptools. The package works without it (the pure-Python kernel is
selected at import time), so ``optional=True`` turns a failed compile into
a warning and only costs speed.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "mcgcalc._wordops_c",
            ["src/mcgcalc/_wordops_c.c"],
            optional=True,
        )
    ]
)
