"""Star-shaped graphs: Seifert invariants and pi_1.

The central vertex contributes the fiber generator h; each boundaryless
leg with continued fraction [b_1,...,b_s] (b_1 next to the node)
contributes a Seifert pair (alpha_i, omega_i) and an end generator g_i
with g_i^{alpha_i} = h.  Arrowed legs only count boundary components.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .graph_core import GraphError, PlumbingGraph, Shape, classify_shape, star_legs
from .hjcf import hj_pair

Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True, slots=True)
class SeifertLeg:
    alpha: int
    omega: int
    leg_id: str          # vertex of the leg adjacent to the node
    end_id: str          # free end of the leg (carries the generator g_i)
    terms: tuple[int, ...]  # b_1..b_s read node-outward

    def __post_init__(self) -> None:
        if self.alpha < 2 or not (0 < self.omega < self.alpha) or gcd(self.alpha, self.omega) != 1:
            raise ValueError(f"invalid Seifert pair ({self.alpha}, {self.omega})")


@dataclass(frozen=True, slots=True)
class SeifertData:
    b: int                       # negated central Euler number
    genus: int
    legs: tuple[SeifertLeg, ...]
    arrows: int = 0
    center: str = "center"

    @property
    def n(self) -> int:
        return len(self.legs)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((leg.alpha, leg.omega) for leg in self.legs)


def seifert_data(g: PlumbingGraph) -> SeifertData:
    """Read (b; g; (alpha_i, omega_i); #arrows) off a star-shaped graph."""
    body = PlumbingGraph(g.vertices, g.edges, (), g.name)
    shape = classify_shape(body)
    if shape.kind is Shape.STAR:
        center = shape.center
    elif len(g.vertices) == 1:
        center = g.vertices[0].id
    else:
        raise GraphError(f"graph is {shape.kind.value}, not star-shaped")
    cv = g.vertex(center)
    legs = []
    arrow_count = g.arrow_count(center)
    for chain in star_legs(body, center):
        if any(g.arrow_count(v) for v in chain):
            # Euler numbers along arrowed chains are irrelevant for the piece.
            arrow_count += 1
            continue
        terms = tuple(-g.vertex(v).euler for v in chain)
        if any(t < 2 for t in terms):
            raise GraphError(f"leg through {chain[0]!r} is not minimal (some b < 2)")
        alpha, omega = hj_pair(terms)
        legs.append(SeifertLeg(alpha, omega, leg_id=chain[0], end_id=chain[-1], terms=terms))
    return SeifertData(
        b=-cv.euler, genus=cv.genus, legs=tuple(legs), arrows=arrow_count, center=center
    )


# -- fundamental group ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class Presentation:
    """Finite presentation: relations are words equal to the identity."""

    generators: tuple[str, ...]
    relations: tuple[Word, ...]

    def __post_init__(self) -> None:
        declared = set(self.generators)
        for rel in self.relations:
            for gen, _ in rel:
                if gen not in declared:
                    raise ValueError(f"relation uses undeclared generator {gen!r}")

    def display(self) -> str:
        lines = ["generators: " + ", ".join(self.generators)]
        for rel in self.relations:
            lines.append(_format_relation(rel))
        return "\n".join(lines)


def _format_word(word: Word) -> str:
    if not word:
        return "1"
    parts = []
    for gen, exp in word:
        parts.append(gen if exp == 1 else f"{gen}^{exp}")
    return " ".join(parts)


def _format_relation(rel: Word) -> str:
    # Commutators print as centrality statements; a trailing run of
    # inverse powers moves to the right-hand side.
    if (
        len(rel) == 4
        and rel[0][1] == 1
        and rel[1][1] == 1
        and rel[2] == (rel[0][0], -1)
        and rel[3] == (rel[1][0], -1)
    ):
        return f"{rel[0][0]} {rel[1][0]} = {rel[1][0]} {rel[0][0]}"
    split = len(rel)
    while split > 0 and rel[split - 1][1] < 0:
        split -= 1
    if 0 < split < len(rel):
        lhs = _format_word(rel[:split])
        rhs = _format_word(tuple((g, -e) for g, e in reversed(rel[split:])))
        return f"{lhs} = {rhs}"
    return f"{_format_word(rel)} = 1"


def pi1_presentation(sd: SeifertData) -> Presentation:
    """The displayed presentation: h central, g_i^{alpha_i} = h and
    h^b = prod [a_m, b_m] * prod g_i^{omega_i} * prod f_tau."""
    gens = ["h"]
    gens += [f"g{i}" for i in range(1, sd.n + 1)]
    gens += [f"f{t}" for t in range(1, sd.arrows + 1)]
    for m in range(1, sd.genus + 1):
        gens += [f"a{m}", f"b{m}"]
    relations: list[Word] = []
    for other in gens[1:]:
        relations.append((("h", 1), (other, 1), ("h", -1), (other, -1)))
    for i, leg in enumerate(sd.legs, start=1):
        relations.append(((f"g{i}", leg.alpha), ("h", -1)))
    rhs: list[tuple[str, int]] = []
    for m in range(1, sd.genus + 1):
        rhs += [(f"a{m}", 1), (f"b{m}", 1), (f"a{m}", -1), (f"b{m}", -1)]
    for i, leg in enumerate(sd.legs, start=1):
        rhs.append((f"g{i}", leg.omega))
    for t in range(1, sd.arrows + 1):
        rhs.append((f"f{t}", 1))
    inverse_rhs = tuple((gen, -exp) for gen, exp in reversed(rhs))
    relations.append((("h", sd.b),) + inverse_rhs)
    return Presentation(tuple(gens), tuple(relations))


def has_finite_pi1(sd: SeifertData) -> bool:
    """Finite iff the base orbifold group is spherical (closed case only)."""
    if sd.arrows:
        raise ValueError("finiteness test applies to closed links (no arrows)")
    if sd.genus > 0:
        return False
    if sd.n <= 2:
        return True
    if sd.n == 3:
        return sum(Fraction(1, leg.alpha) for leg in sd.legs) > 1
    return False
