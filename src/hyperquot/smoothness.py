"""Sufficient criteria for smoothness and unobstructedness.

Two criteria are decidable from (genus, degrees, profile) alone:

* all quotient ranks zero -- quotients are finite-length sheaves, smooth
  for any genus and any bundle;
* genus zero with all summand degrees within 1 of each other -- smooth for
  every profile and every multidegree.

Everything else reports Unknown: the criteria are sufficient, not
necessary.  In particular the genus-one case with summands of equal degree
can be smooth when the twisting points are distinct, but point positions
are not part of the input data, so it is never certified here.
"""

from __future__ import annotations

from .combinat import BundleSpec, CurveSpec, NestingProfile, _Value, check_shape

SMOOTH = "Smooth"
UNKNOWN = "Unknown"


class SmoothnessVerdict(_Value):
    __slots__ = _fields = ("status", "reason")

    def __init__(self, status: str, reason: str):
        self._freeze(status, reason)

    @property
    def is_smooth(self) -> bool:
        return self.status == SMOOTH


def smoothness_status(
    curve: CurveSpec, bundle: BundleSpec, profile: NestingProfile
) -> SmoothnessVerdict:
    check_shape(profile, bundle)
    if all(x == 0 for x in profile.s):
        return SmoothnessVerdict(SMOOTH, "zero-dimensional quotients")
    if curve.genus == 0 and bundle.max_gap <= 1:
        return SmoothnessVerdict(SMOOTH, "genus-0 degree gap <= 1")
    return SmoothnessVerdict(
        UNKNOWN,
        "no sufficient criterion applies (criteria are sufficient, not necessary)",
    )
