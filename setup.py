from setuptools import Extension, setup

# The compiled kernel is an optional speedup: on a machine without a C
# compiler the build skips it, and the package falls back to
# braidkit._native when braidkit._speedups is not importable.
setup(ext_modules=[Extension("braidkit._speedups", ["src/braidkit/_speedups.c"], optional=True)])
