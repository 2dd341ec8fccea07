"""Build script for the optional compiled kernel extension.

The extension is cythonized from ``_fast.pyx`` when Cython is present at
build time.  Without it the package still installs and uses the
pure-numpy kernels, which return the same bits.
"""

from setuptools import setup

ext_modules = []
try:
    import numpy as np
    from Cython.Build import cythonize
    from setuptools import Extension

    ext_modules = cythonize(
        [
            Extension(
                "vecmap._kernels._fast",
                ["src/vecmap/_kernels/_fast.pyx"],
                include_dirs=[np.get_include()],
                # No FMA contraction: dx*dx + dy*dy must round like numpy's.
                extra_compile_args=["-O3", "-ffp-contract=off"],
                define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            )
        ],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    pass

setup(ext_modules=ext_modules)
