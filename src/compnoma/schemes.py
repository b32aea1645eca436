"""Coordination-scheme rules: the scheme names and decode-order validity
for joint transmission.  The schemes themselves are evaluated in
``scenarios``; ``config`` rejects coordinated beamforming.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ConditionViolation

JT_NOMA = "JT-NOMA"
CS_NOMA = "CS-NOMA"
DPS_NOMA = "DPS-NOMA"
JT_OMA = "JT-OMA"
CS_OMA = "CS-OMA"


def validate_jt_conditions(clusters: Sequence, comp_users: Iterable[int]) -> None:
    """Check the two decode-order rules joint transmission depends on; each
    cluster has a ``cell_id`` and a ``decode_order``.

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
