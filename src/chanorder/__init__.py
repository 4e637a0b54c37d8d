"""Channel-inclusion order relations, certificates, and lattice operations.

Four channel families are covered: discrete memoryless channels (``dmc``),
additive infinitely divisible noise channels (``noise``), phase-degraded
torus channels (``phase``), and linear Gaussian MIMO channels (``lgc``),
with shared numerical kernels in ``numerics`` and a command-line front end
in ``cli`` (imported on demand, so library users do not load it; run it as
``python -m chanorder``).
"""

from . import dmc, lgc, noise, numerics, phase

__all__ = ["cli", "dmc", "lgc", "noise", "numerics", "phase"]
__version__ = "0.1.0"
