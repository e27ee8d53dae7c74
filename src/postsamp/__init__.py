"""postsamp: a desk-scale numerical laboratory for posterior-sampling generators.

Everything here is closed-form or Monte-Carlo checkable without training a
network: diversity-aware supervision losses and their Gaussian closed
forms, the recovery/collapse optimization studies, the spread-weight
feedback controller, conditional and unconditional Frechet metrics on
Gaussian-approximated embeddings, masking / subsampled-Fourier operators
with exact data consistency, and calibrated detection from samples.
"""

from .streams import SeededStream
from .toy import (
    GeneratorParams,
    ToyPosterior,
    sample_generator,
    sample_posterior,
)
from .regularizers import (
    RegKind,
    RegularizerKind,
    beta_sd_nominal,
    closed_form_j,
    closed_form_j_grad,
    closed_form_l2p,
    closed_form_l2varp,
    gamma_p,
    mc_l1p,
    mc_l2p,
    mc_lsdp,
    mc_lvarp,
)
from .proplab import minimize_regularizer
from .autotune import simulate_autotune
from .detect import (
    Classifier,
    detection_probability,
    plug_in_gap,
    threshold_classifier,
)

__version__ = "0.1.0"

# The names that the README, the tests and the benchmark import from the
# package root; every other public name is imported from its submodule.
# Nothing in the package calls the whole-batch samplers (sample_posterior
# included) or the in-memory detection estimates; the benchmark's tracer
# and the tests' reference paths name them, so they stay.
__all__ = [
    "SeededStream",
    "ToyPosterior",
    "GeneratorParams",
    "sample_posterior",
    "sample_generator",
    "RegKind",
    "RegularizerKind",
    "gamma_p",
    "beta_sd_nominal",
    "mc_l1p",
    "mc_lsdp",
    "mc_l2p",
    "mc_lvarp",
    "closed_form_j",
    "closed_form_j_grad",
    "closed_form_l2p",
    "closed_form_l2varp",
    "minimize_regularizer",
    "simulate_autotune",
    "Classifier",
    "threshold_classifier",
    "detection_probability",
    "plug_in_gap",
    "__version__",
]
