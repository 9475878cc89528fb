"""Optimal two-photon states and pulse shaping for two-photon absorption.

A numerical library for a lossy three-level ladder driven by photon pairs:
closed-form response kernels and marginals, Schmidt analysis of the optimal
pair amplitude (entanglement entropy, quantum enhancement, large-detuning
bounds), and optimal diagonal pulse-shaping solutions for cw-SPDC pairs and
for chirped-pump down-conversion, with their variational residuals.
"""

from .response import *  # noqa: F403  (each module's __all__ is its public names)
from .grids import *  # noqa: F403
from .schmidt import *  # noqa: F403
from .shaping import *  # noqa: F403

__version__ = "0.1.0"
