from setuptools import Extension, setup

# The compiled kernel is optional: without a C compiler the build still
# succeeds and the package falls back to the pure-Python twin at import time.
setup(
    ext_modules=[
        Extension(
            "edgeind._kernels",
            ["src/edgeind/_kernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
