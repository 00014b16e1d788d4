"""The state families, one record each.

Every witness is fixed by its target's stabilizer generators, split into
two commuting sets: W = 3*1 - 2*(P_1 + P_2), where P_i projects onto the
joint +1 eigenspace of set i.  A record holds only what differs between
families: the generators, the two index sets in witness order, the target
state and the paper's closed-form noise threshold.  The measurement
settings, the estimator's parity checks, the projector traces, the exact
outcome distributions and the command-line choices are derived from these
records, so a new family is one more entry in ``FAMILIES``.  The exact
values and the simulated counts come from the generators; the dense
target state serves the general-state routes and the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError
from .pauli import GeneratorSet, cluster_generators, ghz_generators
from .states import StateVector, make_cluster, make_ghz


@dataclass(frozen=True)
class Family:
    """What distinguishes one state family.

    ``projector_sets(n)`` gives the 1-based generator indices behind P_1
    and P_2, in witness order.  ``closed_form_threshold(n)`` is the
    paper's formula; it is not derived from the index sets, so the root
    find on the noisy expectation stays an independent check of it.
    """

    name: str
    generators: Callable[[int], GeneratorSet]
    projector_sets: Callable[[int], tuple[Sequence[int], Sequence[int]]]
    target: Callable[[int], StateVector]
    closed_form_threshold: Callable[[int], float]


# the entries look the constructors up by global name on every call, so a
# wrapper rebound over those names (as the benchmark's tracer does) sees it
FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family(
        name="ghz",
        generators=lambda n: ghz_generators(n),
        projector_sets=lambda n: ([1], list(range(2, n + 1))),
        target=lambda n: make_ghz(n),
        closed_form_threshold=lambda n: 1.0 / (3.0 - 4.0 / 2 ** n)),
    Family(
        name="cluster",
        generators=lambda n: cluster_generators(n),
        projector_sets=lambda n: (list(range(2, n + 1, 2)), list(range(1, n + 1, 2))),
        target=lambda n: make_cluster(n),
        closed_form_threshold=lambda n: 1.0 / (
            4.0 - 2.0 * (2.0 ** -(n // 2) + 2.0 ** -((n + 1) // 2)))),
)}


def get_family(name: str) -> Family:
    """The registered record of the named family."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise DomainError(f"unknown family {name!r}") from None
