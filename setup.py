from setuptools import Extension, setup

# The compiled kernel is optional: without a C compiler the build still
# succeeds and the package falls back to the pure-Python twin at import time.
# -ffp-contract=off keeps each product and sum of the entropy entries rounded
# on its own, as in the pure twin, on targets whose base ISA has FMA.
setup(
    ext_modules=[
        Extension(
            "edgeind._kernels",
            ["src/edgeind/_kernels.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
