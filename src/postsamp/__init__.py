"""postsamp: a desk-scale numerical laboratory for posterior-sampling generators.

Everything here is closed-form or Monte-Carlo checkable without training a
network: diversity-aware supervision losses and their Gaussian closed
forms, the recovery/collapse optimization studies, the spread-weight
feedback controller, conditional and unconditional Frechet metrics on
Gaussian-approximated embeddings, masking / subsampled-Fourier operators
with exact data consistency, and calibrated detection from samples.

``import postsamp`` loads no submodule: each quick-tour name below is
looked up in its submodule on first access (a module ``__getattr__``), so
the command line, which imports ``postsamp.cli``, pays only for what the
subcommand it runs needs.
"""

import importlib
import math

__version__ = "0.1.0"

# The package root re-exports exactly the names of the README's library
# quick tour, each from the submodule named here; every other public name
# has one import path, its submodule.
_SUBMODULE = {
    "SeededStream": "streams",
    "ToyPosterior": "toy",
    "GeneratorParams": "toy",
    "RegularizerKind": "regularizers",
    "beta_sd_nominal": "regularizers",
    "mc_l1p": "regularizers",
    "closed_form_j": "regularizers",
    "minimize_regularizer": "proplab",
}

__all__ = [*_SUBMODULE, "__version__"]


# The input checks several modules share live here, which every submodule
# loads anyway, so that :mod:`postsamp.cfid` and :mod:`postsamp.autotune`
# load no Monte Carlo engine for them, nor :mod:`postsamp.toy` and
# :mod:`postsamp.detect` the Frechet module.
def _check_p(P: int, least: int = 2) -> None:
    """Raise unless the sample count ``P`` is at least ``least``."""
    if P < least:
        raise ValueError(f"P must be >= {least}, got {P}")


def _check_finite(name: str, value: float) -> None:
    """Raise unless the parameter ``name`` is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_overflow(name: str, value: float) -> float:
    """Return ``value``, the result ``name``; raise if it is not finite, which
    from finite inputs means that float64 overflowed."""
    if not math.isfinite(value):
        raise ValueError(f"{name} overflowed float64, got {value}")
    return value


def _as_matrix(values, name: str):
    """``values`` as a float64 array; raise unless it is a nonempty, finite
    2-D matrix.  numpy is imported here, so the command-line front end,
    which loads this module, does not load it."""
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *_SUBMODULE})
