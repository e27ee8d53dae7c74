"""postsamp: a desk-scale numerical laboratory for posterior-sampling generators.

Everything here is closed-form or Monte-Carlo checkable without training a
network: diversity-aware supervision losses and their Gaussian closed
forms, the recovery/collapse optimization studies, the spread-weight
feedback controller, conditional and unconditional Frechet metrics on
Gaussian-approximated embeddings, masking / subsampled-Fourier operators
with exact data consistency, and calibrated detection from samples.
"""

from .streams import SeededStream
from .toy import GeneratorParams, ToyPosterior
from .regularizers import RegularizerKind, beta_sd_nominal, closed_form_j, mc_l1p
from .proplab import minimize_regularizer

__version__ = "0.1.0"

# The package root re-exports exactly the names of the README's library
# quick tour; every other public name has one import path, its submodule.
__all__ = [
    "SeededStream",
    "ToyPosterior",
    "GeneratorParams",
    "RegularizerKind",
    "beta_sd_nominal",
    "mc_l1p",
    "closed_form_j",
    "minimize_regularizer",
    "__version__",
]
