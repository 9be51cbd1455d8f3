"""The built-in fixture categories used by the law suites.

Seven small categories chosen to exercise every normal-form branch of
the constructions: a terminal object, a free arrow, a discrete pair,
a parallel pair, an isomorphism, a non-invertible retraction (whose
idempotent s after r forces the interesting composites), and a one
object idempotent monoid.
"""

from __future__ import annotations

from .kernel import FinCat, rows_from_pairs


def _cat(objects, morphisms, identity, compose) -> FinCat:
    src = {m: s for m, (s, _) in morphisms.items()}
    tgt = {m: t for m, (_, t) in morphisms.items()}
    return FinCat(
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        src=src,
        tgt=tgt,
        identity=dict(identity),
        after=rows_from_pairs(compose.items()),
    )


def terminal() -> FinCat:
    return _cat(["*"], {"1_*": ("*", "*")}, {"*": "1_*"}, {("1_*", "1_*"): "1_*"})


def interval() -> FinCat:
    # the free arrow u: 0 -> 1
    return _cat(
        ["0", "1"],
        {"1_0": ("0", "0"), "1_1": ("1", "1"), "u": ("0", "1")},
        {"0": "1_0", "1": "1_1"},
        {
            ("1_0", "1_0"): "1_0",
            ("1_1", "1_1"): "1_1",
            ("u", "1_0"): "u",
            ("1_1", "u"): "u",
        },
    )


def discrete_pair() -> FinCat:
    return _cat(
        ["0", "1"],
        {"1_0": ("0", "0"), "1_1": ("1", "1")},
        {"0": "1_0", "1": "1_1"},
        {("1_0", "1_0"): "1_0", ("1_1", "1_1"): "1_1"},
    )


def parallel_pair() -> FinCat:
    return _cat(
        ["0", "1"],
        {
            "1_0": ("0", "0"),
            "1_1": ("1", "1"),
            "s": ("0", "1"),
            "t": ("0", "1"),
        },
        {"0": "1_0", "1": "1_1"},
        {
            ("1_0", "1_0"): "1_0",
            ("1_1", "1_1"): "1_1",
            ("s", "1_0"): "s",
            ("1_1", "s"): "s",
            ("t", "1_0"): "t",
            ("1_1", "t"): "t",
        },
    )


def walking_iso() -> FinCat:
    # f: 0 -> 1 and g: 1 -> 0, mutually inverse
    return _cat(
        ["0", "1"],
        {
            "1_0": ("0", "0"),
            "1_1": ("1", "1"),
            "f": ("0", "1"),
            "g": ("1", "0"),
        },
        {"0": "1_0", "1": "1_1"},
        {
            ("1_0", "1_0"): "1_0",
            ("1_1", "1_1"): "1_1",
            ("f", "1_0"): "f",
            ("1_1", "f"): "f",
            ("g", "1_1"): "g",
            ("1_0", "g"): "g",
            ("g", "f"): "1_0",
            ("f", "g"): "1_1",
        },
    )


def walking_retraction() -> FinCat:
    # r after s is the identity; s after r is the idempotent e
    return _cat(
        ["0", "1"],
        {
            "1_0": ("0", "0"),
            "1_1": ("1", "1"),
            "s": ("0", "1"),
            "r": ("1", "0"),
            "e": ("1", "1"),
        },
        {"0": "1_0", "1": "1_1"},
        {
            ("1_0", "1_0"): "1_0",
            ("1_1", "1_1"): "1_1",
            ("s", "1_0"): "s",
            ("1_1", "s"): "s",
            ("e", "s"): "s",
            ("r", "1_1"): "r",
            ("1_0", "r"): "r",
            ("r", "e"): "r",
            ("r", "s"): "1_0",
            ("s", "r"): "e",
            ("e", "1_1"): "e",
            ("1_1", "e"): "e",
            ("e", "e"): "e",
        },
    )


def idempotent_monoid() -> FinCat:
    return _cat(
        ["*"],
        {"1_*": ("*", "*"), "e": ("*", "*")},
        {"*": "1_*"},
        {
            ("1_*", "1_*"): "1_*",
            ("1_*", "e"): "e",
            ("e", "1_*"): "e",
            ("e", "e"): "e",
        },
    )


CORPUS: dict[str, FinCat] = {
    "terminal": terminal(),
    "interval": interval(),
    "discrete-pair": discrete_pair(),
    "parallel-pair": parallel_pair(),
    "walking-iso": walking_iso(),
    "walking-retraction": walking_retraction(),
    "idempotent-monoid": idempotent_monoid(),
}
