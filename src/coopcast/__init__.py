"""Collaborative multi-hop broadcast: random fields, signal models,
schedules, simulation drivers, and a certified-inequality prover.

Import from the submodules: ``coopcast.broadcast``, ``coopcast.signal_model``,
``coopcast.prover`` and so on.
"""

__version__ = "0.1.0"
