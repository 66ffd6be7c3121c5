"""Star-shaped graphs: Seifert invariants and the finiteness of pi_1.

The central vertex contributes the fiber generator h; each leg with
continued fraction [b_1,...,b_s] (b_1 next to the node) contributes a
Seifert pair (alpha_i, omega_i) and an end generator g_i with
g_i^{alpha_i} = h.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .graph_core import GraphError, PlumbingGraph, Shape, classify_shape, star_legs
from .hjcf import hj_pair


@dataclass(frozen=True, slots=True)
class SeifertLeg:
    alpha: int
    omega: int
    leg_id: str          # vertex of the leg adjacent to the node
    terms: tuple[int, ...]  # b_1..b_s read node-outward

    def __post_init__(self) -> None:
        if self.alpha < 2 or not (0 < self.omega < self.alpha) or gcd(self.alpha, self.omega) != 1:
            raise ValueError(f"invalid Seifert pair ({self.alpha}, {self.omega})")


@dataclass(frozen=True, slots=True)
class SeifertData:
    b: int                       # negated central Euler number
    genus: int
    legs: tuple[SeifertLeg, ...]
    center: str = "center"

    @property
    def n(self) -> int:
        return len(self.legs)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((leg.alpha, leg.omega) for leg in self.legs)


def seifert_data(g: PlumbingGraph) -> SeifertData:
    """Read (b; g; (alpha_i, omega_i)) off a star-shaped graph."""
    shape = classify_shape(g)
    if shape.kind is Shape.STAR:
        center = shape.center
    elif len(g.vertices) == 1:
        center = g.vertices[0].id
    else:
        raise GraphError(f"graph is {shape.kind.value}, not star-shaped")
    cv = g.vertex(center)
    legs = []
    for chain in star_legs(g, center):
        terms = tuple(-g.vertex(v).euler for v in chain)
        if any(t < 2 for t in terms):
            raise GraphError(f"leg through {chain[0]!r} is not minimal (some b < 2)")
        alpha, omega = hj_pair(terms)
        legs.append(SeifertLeg(alpha, omega, leg_id=chain[0], terms=terms))
    return SeifertData(b=-cv.euler, genus=cv.genus, legs=tuple(legs), center=center)


# -- fundamental group ----------------------------------------------------


def has_finite_pi1(sd: SeifertData) -> bool:
    """Finite iff the base orbifold group is spherical."""
    if sd.genus > 0:
        return False
    if sd.n <= 2:
        return True
    if sd.n == 3:
        return sum(Fraction(1, leg.alpha) for leg in sd.legs) > 1
    return False
