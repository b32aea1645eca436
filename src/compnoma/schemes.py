"""Coordination-scheme rules: decode-order validity for joint transmission,
dynamic serving-cell selection, and the orthogonal band plan for coordinated
scheduling.  Coordinated beamforming is structurally rejected: with one
transmit antenna per cell there is no spatial dimension to steer a beam away
from a co-scheduled superposed user, so the scheme cannot be realized here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import NomaCluster
from .errors import ConditionViolation, ConfigError

JT_NOMA = "JT-NOMA"
CS_NOMA = "CS-NOMA"
DPS_NOMA = "DPS-NOMA"
JT_OMA = "JT-OMA"
CS_OMA = "CS-OMA"
SCHEMES = (JT_NOMA, CS_NOMA, DPS_NOMA, JT_OMA, CS_OMA)


@dataclass(frozen=True)
class CompSet:
    """The coordinating cells and the users they jointly serve."""

    cell_ids: tuple[int, ...]
    comp_user_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cell_ids) < 2:
            raise ConfigError("a coordination set needs at least two cells")
        if len(set(self.cell_ids)) != len(self.cell_ids):
            raise ConfigError("duplicate cell in coordination set")
        if not self.comp_user_ids:
            raise ConfigError("a coordination set needs at least one jointly served user")


def validate_jt_conditions(
    clusters: Sequence[NomaCluster], comp_users: Iterable[int]
) -> None:
    """Check the two decode-order rules joint transmission depends on.

    1. In every cluster, jointly served users are decoded before any
       single-cell user (otherwise a single-cell user would have to cancel a
       signal it cannot decode everywhere).
    2. The jointly served users keep one common relative order across all
       clusters (their superposed copies must be cancellable in lockstep).

    Raises ConditionViolation (which=1 or 2) on the first broken rule.
    """
    comp = set(comp_users)
    reference: tuple[int, ...] | None = None
    for cluster in clusters:
        order = cluster.decode_order
        seen_noncomp = False
        for u in order:
            if u in comp:
                if seen_noncomp:
                    raise ConditionViolation(
                        1, cluster.cell_id, order, f"user {u} decoded after a single-cell user"
                    )
            else:
                seen_noncomp = True
        sub = tuple(u for u in order if u in comp)
        if reference is None:
            reference = sub
        elif sub != reference:
            raise ConditionViolation(
                2, cluster.cell_id, order,
                f"joint users ordered {sub}, expected {reference}",
            )


def dps_select_cell(comp_user: int, gains, cells: Sequence) -> int:
    """Serving cell for one dynamically switched user: the cell with the
    largest realized gain this trial; ties go to the lowest cell id."""
    if not cells:
        raise ConfigError("no candidate cells to select from")
    best_id: int | None = None
    best_gain = 0.0
    ids = sorted(getattr(cell, "cell_id", cell) for cell in cells)
    for cell_id in ids:
        g = gains[(cell_id, comp_user)]
        if best_id is None or g > best_gain:
            best_id, best_gain = cell_id, g
    assert best_id is not None
    return best_id


@dataclass(frozen=True)
class CsAssignment:
    """One cell's transmission on one band: members in decode order priority
    is decided later from realized gains; fraction is of the system band."""

    cell_id: int
    band_id: int
    fraction: float
    members: tuple[int, ...]


@dataclass(frozen=True)
class CsBandPlan:
    assignments: tuple[CsAssignment, ...]

    def cell_fraction_totals(self) -> dict[int, float]:
        totals: dict[int, float] = {}
        for a in self.assignments:
            totals[a.cell_id] = totals.get(a.cell_id, 0.0) + a.fraction
        return totals


def build_cs_band_plan(
    comp_set: CompSet, users_per_cell: Mapping[int, Sequence[int]]
) -> CsBandPlan:
    """Orthogonal 50/50 plan for the two-cell, one-joint-user-per-cell shape.

    Band i carries cell i's two-user cluster (its edge user plus its own
    single-cell user); the other half of each cell's spectrum carries the
    single-cell user alone.  Edge users therefore never share a band, and each
    cell's fractions sum to exactly 1.
    """
    cells = sorted(comp_set.cell_ids)
    edge_users = sorted(comp_set.comp_user_ids)
    if len(cells) != 2 or len(edge_users) != 2:
        raise ConfigError(
            "coordinated scheduling is defined for two cells with one edge user each"
        )
    for cell_id in cells:
        inner = users_per_cell.get(cell_id, ())
        if len(inner) != 1:
            raise ConfigError(
                f"coordinated scheduling needs exactly one single-cell user in cell {cell_id}"
            )
    assignments = []
    for band_id, (cell_id, edge) in enumerate(zip(cells, edge_users)):
        inner = users_per_cell[cell_id][0]
        other_band = 1 - band_id
        assignments.append(
            CsAssignment(cell_id=cell_id, band_id=band_id, fraction=0.5, members=(edge, inner))
        )
        assignments.append(
            CsAssignment(cell_id=cell_id, band_id=other_band, fraction=0.5, members=(inner,))
        )
    return CsBandPlan(tuple(assignments))


def reject_cb() -> None:
    """Coordinated beamforming is never runnable in this system; say why."""
    raise ConfigError(
        "coordinated beamforming rejected: single-antenna cells have no spatial "
        "degrees of freedom to null a co-scheduled superposed user"
    )
