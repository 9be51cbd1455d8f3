"""The built-in fixture categories used by the law suites.

Seven small categories chosen to exercise every normal-form branch of
the constructions: a terminal object, a free arrow, a discrete pair,
a parallel pair, an isomorphism, a non-invertible retraction (whose
idempotent s after r forces the interesting composites), and a one
object idempotent monoid.
"""

from __future__ import annotations

from .kernel import FinCat


def _cat(
    objects: tuple[str, ...], arrows: dict[str, tuple[str, str]], composites: dict[tuple[str, str], str]
) -> FinCat:
    """The category on `objects` with the non-identity `arrows`, id ->
    (source, target), and the non-unit `composites`, (g, f) -> g after f.
    Each object x gets the identity 1_x, and every composite with an
    identity is the other arrow."""
    identity = {x: f"1_{x}" for x in objects}
    ends = {**{m: (x, x) for x, m in identity.items()}, **arrows}
    after = {m: {identity[y]: m} for m, (_, y) in ends.items()}
    for m, (x, _) in ends.items():
        after[identity[x]][m] = m
    for (g, f), gf in composites.items():
        after[f][g] = gf
    src = {m: x for m, (x, _) in ends.items()}
    tgt = {m: y for m, (_, y) in ends.items()}
    return FinCat(tuple(objects), tuple(ends), src, tgt, identity, after)


CORPUS: dict[str, FinCat] = {
    "terminal": _cat(("*",), {}, {}),
    # the free arrow u: 0 -> 1
    "interval": _cat(("0", "1"), {"u": ("0", "1")}, {}),
    "discrete-pair": _cat(("0", "1"), {}, {}),
    "parallel-pair": _cat(("0", "1"), {"s": ("0", "1"), "t": ("0", "1")}, {}),
    # f: 0 -> 1 and g: 1 -> 0, mutually inverse
    "walking-iso": _cat(
        ("0", "1"), {"f": ("0", "1"), "g": ("1", "0")}, {("g", "f"): "1_0", ("f", "g"): "1_1"}
    ),
    # r after s is the identity; s after r is the idempotent e
    "walking-retraction": _cat(
        ("0", "1"),
        {"s": ("0", "1"), "r": ("1", "0"), "e": ("1", "1")},
        {("r", "s"): "1_0", ("s", "r"): "e", ("e", "s"): "s", ("r", "e"): "r", ("e", "e"): "e"},
    ),
    "idempotent-monoid": _cat(("*",), {"e": ("*", "*")}, {("e", "e"): "e"}),
}
