"""Set-up shared by every test module."""

import warnings

# When a ``@given`` test fails, hypothesis's pytest plugin imports
# ``hypothesis.extra._patching``, which imports libcst, whose import raises a
# DeprecationWarning from mypy_extensions. Under the suite's
# ``error::DeprecationWarning`` filter that warning would end the whole
# session with INTERNALERROR instead of reporting the failing test, so the
# module is imported here once with DeprecationWarning ignored for that
# import alone; every other filter stays as configured.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
