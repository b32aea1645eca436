"""Coordination-scheme rules: the scheme names, decode-order validity for
joint transmission, and dynamic serving-cell selection.  The schemes
themselves are evaluated in ``scenarios``.  Coordinated beamforming is
structurally rejected: with one transmit antenna per cell there is no spatial
dimension to steer a beam away from a co-scheduled superposed user, so the
scheme cannot be realized here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import NomaCluster
from .errors import ConditionViolation, ConfigError

JT_NOMA = "JT-NOMA"
CS_NOMA = "CS-NOMA"
DPS_NOMA = "DPS-NOMA"
JT_OMA = "JT-OMA"
CS_OMA = "CS-OMA"


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


def reject_cb() -> None:
    """Coordinated beamforming is never runnable in this system; say why."""
    raise ConfigError(
        "coordinated beamforming rejected: single-antenna cells have no spatial "
        "degrees of freedom to null a co-scheduled superposed user"
    )
