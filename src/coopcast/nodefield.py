"""Random node deployments in a disk.

Positions are sampled with the counter-based Philox generator (numpy's
``np.random.Philox``), so a ``(n, R, seed)`` triple reproduces bit-identical
fields on every platform.  Index 0 is always the initiator at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["NodeField", "sample_field"]


@dataclass(frozen=True)
class NodeField:
    """Immutable node deployment: positions[0] is the center node."""

    positions: np.ndarray  # (n, 2) float64
    R: float
    radii: np.ndarray = field(init=False, repr=False, compare=False)  # (n,) |positions|

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
        radii = np.hypot(pos[:, 0], pos[:, 1])
        pos.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "radii", radii)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def sample_field(n: int, R: float, seed: int) -> NodeField:
    """Sample ``n - 1`` i.i.d. uniform points in the disk of radius R plus v0.

    Uniformity via radius = R * sqrt(u), angle = 2 pi v.
    """
    if n < 1:
        raise ValueError(f"need at least the center node, got n={n}")
    if R <= 0:
        raise ValueError(f"disk radius must be positive, got {R}")
    rng = np.random.Generator(np.random.Philox(seed))
    # In place: besides r, theta and the positions, one temporary of n
    # floats (the cosines) is alive.  The operations and their order are
    # those of r = R sqrt(u), theta = 2 pi v, so the bits are too.
    r = rng.random(n - 1)
    theta = rng.random(n - 1)
    np.sqrt(r, out=r)
    r *= R
    theta *= 2.0 * np.pi
    pos = np.empty((n, 2))
    pos[0] = 0.0
    np.multiply(r, np.cos(theta), out=pos[1:, 0])
    np.multiply(r, np.sin(theta, out=theta), out=pos[1:, 1])
    return NodeField(positions=pos, R=R)
