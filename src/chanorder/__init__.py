"""Channel-inclusion order relations, certificates, and lattice operations.

Four channel families are covered: discrete memoryless channels (``dmc``),
additive infinitely divisible noise channels (``noise``), phase-degraded
torus channels (``phase``), and linear Gaussian MIMO channels (``lgc``),
with shared numerical kernels in ``numerics`` and a command-line front end
in ``cli`` (run it as ``python -m chanorder``).

Each submodule is imported on first attribute access (``chanorder.dmc``,
``from chanorder import dmc``), so ``import chanorder`` loads none of them
and a ``chanorder`` process loads only the family its subcommand belongs
to; the output of every command is the same as with eager imports.
"""

from importlib import import_module

__all__ = ["cli", "dmc", "lgc", "noise", "numerics", "phase"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
