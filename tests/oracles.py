"""Independent reference constructions used only by the tests.

These deliberately avoid the production code paths they are checking:
the pushout oracle builds the amalgamated category from generator words,
the diagonal oracle searches all functors, identifiers are escaped a
character at a time, the associativity, totality and composition
oracles sweep every triple or pair of morphisms, the closure oracle
composes any two reached morphisms until nothing is new, connectivity
walks the underlying graph, an isomorphism is a functor bijective on
objects and on morphisms, and the morphisms of the glued category are
listed as normal forms, from the functor alone, and composed by working
the composite out from their parts.  The glued category's rows are also
built eagerly, every row at once, as the package built them before it
built each row on first read, and so are a category of elements' rows,
from its projection alone.
"""

from __future__ import annotations

from typing import NamedTuple

from deltalens.kernel import FinCat, FinFunctor, compose_functors, enumerate_functors, tag
from deltalens.semimonad import j_object

WORD_CAP = 8
SIZE_CAP = 20000


def _reduce(word, acat, jcat):
    """Collapse adjacent same-family letters and drop identities."""
    table = {"A": acat, "J": jcat}
    letters = list(word)
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        while i < len(letters):
            fam, m = letters[i]
            if table[fam].is_identity(m):
                i += 1
                changed = True
                continue
            if i + 1 < len(letters) and letters[i + 1][0] == fam:
                cat = table[fam]
                out.append((fam, cat.compose[(letters[i + 1][1], m)]))
                i += 2
                changed = True
                continue
            out.append(letters[i])
            i += 1
        letters = out
    return tuple(letters)


def pushout_closure(f: FinFunctor):
    """The category generated by the arrows of f's domain and of its
    coslice construction, glued along the shared objects, closed under
    composition to a fixed point.

    Returns (objects, morphisms, compose) where morphisms maps a reduced
    word to its (src, tgt) and compose maps composable word pairs to the
    composite word.
    """
    jp = j_object(f)
    acat, jcat = f.dom, jp.j
    embed = jp.s.obj_map

    def src_of(letter):
        fam, m = letter
        if fam == "A":
            return embed[acat.src[m]]
        return jcat.src[m]

    def tgt_of(letter):
        fam, m = letter
        if fam == "A":
            return embed[acat.tgt[m]]
        return jcat.tgt[m]

    objects = set(jcat.objects)
    morphisms: dict[tuple, tuple[str, str]] = {}
    for x in objects:
        morphisms[("ID", x)] = (x, x)
    for m in acat.morphisms:
        if not acat.is_identity(m):
            w = (("A", m),)
            morphisms[w] = (src_of(w[0]), tgt_of(w[-1]))
    for m in jcat.morphisms:
        if not jcat.is_identity(m):
            w = (("J", m),)
            morphisms[w] = (src_of(w[0]), tgt_of(w[-1]))

    def compose_words(w2, w1):
        if w1[0] == "ID":
            return w2
        if w2[0] == "ID":
            return w1
        joined = _reduce(w1 + w2, acat, jcat)
        if not joined:
            return ("ID", morphisms[w1][0])
        return joined

    compose: dict[tuple, tuple] = {}
    frontier = True
    while frontier:
        frontier = False
        known = list(morphisms)
        for w1 in known:
            s1, t1 = morphisms[w1]
            for w2 in known:
                s2, t2 = morphisms[w2]
                if t1 != s2 or (w2, w1) in compose:
                    continue
                c = compose_words(w2, w1)
                if c[0] != "ID" and len(c) > WORD_CAP:
                    raise AssertionError("word cap exceeded; closure not bounded")
                if c not in morphisms:
                    morphisms[c] = (s1, t2)
                    frontier = True
                    if len(morphisms) > SIZE_CAP:
                        raise AssertionError("size cap exceeded; closure not bounded")
                compose[(w2, w1)] = c
    return objects, morphisms, compose


def compare_pushout(f: FinFunctor, ef) -> list[str]:
    """Mismatches between the word-closure category and ef, via the
    canonical comparison map (alpha on coslice letters, lf on domain
    letters).  Empty list means isomorphic with matching object names."""
    objects, morphisms, compose = pushout_closure(f)
    problems = []
    if objects != set(ef.e.objects):
        problems.append("object sets differ")
    image: dict[tuple, str] = {}
    for w, (s, t) in morphisms.items():
        if w[0] == "ID":
            image[w] = ef.e.identity[s]
            continue
        acc = None
        for fam, m in w:
            piece = ef.lf.mor_map[m] if fam == "A" else ef.alpha.mor_map[m]
            acc = piece if acc is None else ef.e.compose[(piece, acc)]
        image[w] = acc
    if len(set(image.values())) != len(image):
        problems.append("comparison map not injective")
    if set(image.values()) != set(ef.e.morphisms):
        problems.append("comparison map not surjective")
    if len(morphisms) != len(ef.e.morphisms):
        problems.append(
            f"morphism counts differ: {len(morphisms)} vs {len(ef.e.morphisms)}"
        )
    for w, (s, t) in morphisms.items():
        m = image[w]
        if ef.e.src[m] != s or ef.e.tgt[m] != t:
            problems.append(f"boundary mismatch at {w}")
            break
    for (w2, w1), c in compose.items():
        if ef.e.compose[(image[w2], image[w1])] != image[c]:
            problems.append(f"composition mismatch at {(w2, w1)}")
            break
    return problems


def brute_force_diagonals(sq, guard: int = 10**6) -> list[FinFunctor]:
    """Every functor making both lifting triangles commute."""
    found = []
    for d in enumerate_functors(sq.left.cod, sq.right.dom, guard):
        if (
            compose_functors(d, sq.left) == sq.top
            and compose_functors(sq.right, d) == sq.bottom
        ):
            found.append(d)
    return found


def tag_by_chars(*parts: str) -> str:
    """The identifier `tag` builds, worked out a character at a time: each
    backslash, comma, parenthesis and `<` of a part gets a backslash in front,
    and the parts are joined by commas inside parentheses."""
    escaped = ["".join("\\" + ch if ch in "\\,()<" else ch for ch in part) for part in parts]
    return "(" + ",".join(escaped) + ")"


def associativity_violations(c: FinCat) -> list[tuple]:
    """Every ("associativity", h, g, f) with h.(g.f) != (h.g).f, by a naive
    sweep over composable triples, ordered by (g, f) and then h.  A triple
    with a missing composite is skipped.  Assumes every morphism has a
    source and a target among the objects."""
    found = []
    for g in c.morphisms:
        fs = [f for f in c.morphisms if c.tgt[f] == c.src[g]]
        hs = [h for h in c.morphisms if c.src[h] == c.tgt[g]]
        for f in fs:
            for h in hs:
                gf, hg = c.compose.get((g, f)), c.compose.get((h, g))
                if gf is None or hg is None:
                    continue
                left, right = c.compose.get((h, gf)), c.compose.get((hg, f))
                if left is not None and right is not None and left != right:
                    found.append(("associativity", h, g, f))
    return found


def totality_violations(c: FinCat) -> list[tuple]:
    """Every compose-unknown, compose-not-composable, composite-typing and
    missing-composite violation, by a naive sweep over all ordered pairs
    (g, f) of morphisms and of ids named by the table's keys: first the
    bad entries, then the composable pairs without one, each in (g, f)
    order."""
    objects, morphisms = set(c.objects), set(c.morphisms)
    names = sorted(morphisms | {x for pair in c.compose for x in pair})

    def typed(m):
        return c.src.get(m) in objects and c.tgt.get(m) in objects

    def composable(g, f):
        return typed(g) and typed(f) and c.src[g] == c.tgt[f]

    bad, missing = [], []
    for g in names:
        for f in names:
            if (g, f) not in c.compose:
                if composable(g, f):
                    missing.append(("missing-composite", g, f))
                continue
            gf = c.compose[(g, f)]
            if not {g, f, gf} <= morphisms:
                bad.append(("compose-unknown", g, f, gf))
            elif not composable(g, f):
                bad.append(("compose-not-composable", g, f))
            elif not (typed(gf) and (c.src[gf], c.tgt[gf]) == (c.src[f], c.tgt[g])):
                bad.append(("composite-typing", g, f, gf))
    return bad + missing


def composition_violations(fun: FinFunctor) -> list[tuple]:
    """Every ("composition-preservation", g, f) where the table of fun's
    domain defines g.f and fun(g.f) != fun(g).fun(f), by a naive sweep over
    all pairs of morphisms in sorted order."""
    dom, cod, mor = fun.dom, fun.cod, fun.mor_map
    found = []
    for g in sorted(dom.morphisms):
        for f in sorted(dom.morphisms):
            if (g, f) in dom.compose:
                image = cod.compose.get((mor[g], mor[f]))
                if image != mor[dom.compose[(g, f)]]:
                    found.append(("composition-preservation", g, f))
    return found


def composition_closure(c: FinCat, gens) -> set[str]:
    """The objects' identities and gens, closed under composing any two
    members: each round composes every composable pair of what is reached
    so far, until a round adds nothing."""
    reached = {c.identity[x] for x in c.objects} | set(gens)
    while True:
        by_src: dict[str, list[str]] = {}
        for m in reached:
            by_src.setdefault(c.src[m], []).append(m)
        new = {
            c.compose[(g, f)]
            for f in reached
            for g in by_src.get(c.tgt[f], ())
        } - reached
        if not new:
            return reached
        reached |= new


def is_connected(c: FinCat) -> bool:
    """Connectivity of the underlying undirected graph; empty is not connected."""
    if not c.objects:
        return False
    adj: dict[str, set[str]] = {x: set() for x in c.objects}
    for m in c.morphisms:
        adj[c.src[m]].add(c.tgt[m])
        adj[c.tgt[m]].add(c.src[m])
    seen = {c.objects[0]}
    frontier = [c.objects[0]]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(c.objects)


def is_isomorphism(fun: FinFunctor) -> bool:
    """Whether the object and morphism maps are bijections onto the codomain."""
    obj = list(fun.obj_map.values())
    mor = list(fun.mor_map.values())
    return (
        len(set(obj)) == len(obj) == len(fun.cod.objects)
        and len(set(mor)) == len(mor) == len(fun.cod.morphisms)
    )


# -- normal forms of the glued category's morphisms --------------------------
#
# Normal forms are named tuples.  Each kind has its own arity (2, 3 and 4
# fields), so no two kinds are ever equal as tuples.


class EfId(NamedTuple):
    """The identity at (a, u)."""

    a: str
    u: str


class EfKindII(NamedTuple):
    """Postcomposition (a, u1) -> (a, v.u1) by a non-identity v."""

    a: str
    u1: str
    v: str


class EfKindI(NamedTuple):
    """Crossing (a1, u1) -> (a2, u2): enter along a retraction v of u1,
    cross through the non-identity w: a1 -> a2, exit along u2."""

    u1: str
    v: str
    w: str
    u2: str


EfMorphism = EfId | EfKindII | EfKindI


def ef_mor_id(f: FinFunctor, m: EfMorphism) -> str:
    """The id a normal form is retagged to."""
    B = f.cod
    if isinstance(m, EfId):
        return tag(m.a, m.u, B.identity[B.tgt[m.u]])
    if isinstance(m, EfKindII):
        return tag(m.a, m.u1, m.v)
    return tag("I", m.u1, m.v, m.w, m.u2)


def ef_kinds(f: FinFunctor) -> dict[str, EfMorphism]:
    """id -> normal form, for every morphism of the glued category of f,
    listed from f alone: the identity and the postcompositions at each
    pair (a, u1), then the crossings, by w, then u1 and v, then u2."""
    A, B = f.dom, f.cod
    found: list[EfMorphism] = []
    for a in A.objects:
        for u1 in B.out(f.obj_map[a]):
            found.extend(_kind2(f, a, u1, v) for v in B.out(B.tgt[u1]))
    for w in A.nonidentity:
        fa1, fa2 = f.obj_map[A.src[w]], f.obj_map[A.tgt[w]]
        for u1 in B.out(fa1):
            for v in B.hom(B.tgt[u1], fa1):
                if B.compose[(v, u1)] == B.identity[fa1]:
                    found.extend(EfKindI(u1, v, w, u2) for u2 in B.out(fa2))
    kinds = {ef_mor_id(f, k): k for k in found}
    if len(kinds) != len(found):
        raise AssertionError("two normal forms share an id")
    return kinds


def _kind2(f: FinFunctor, a: str, u1: str, v: str) -> EfMorphism:
    if v in f.cod.identity_set:
        return EfId(a, u1)
    return EfKindII(a, u1, v)


def _kind1(f: FinFunctor, u1: str, v: str, w: str, u2: str) -> EfMorphism:
    if w in f.dom.identity_set:
        return _kind2(f, f.dom.src[w], u1, f.cod.compose[(u2, v)])
    return EfKindI(u1, v, w, u2)


def compose_ef(f: FinFunctor, m2: EfMorphism, m1: EfMorphism) -> EfMorphism:
    """Normal form of m2 after m1 in the glued category of f.

    Crossing composites cancel the middle retraction and renormalise
    when the crossing collapses to an identity of the domain.
    """
    if isinstance(m1, EfId):
        return m2
    if isinstance(m2, EfId):
        return m1
    B = f.cod
    if isinstance(m1, EfKindII):
        if isinstance(m2, EfKindII):
            return _kind2(f, m1.a, m1.u1, B.compose[(m2.v, m1.v)])
        return _kind1(f, m1.u1, B.compose[(m2.v, m1.v)], m2.w, m2.u2)
    if isinstance(m2, EfKindII):
        return _kind1(f, m1.u1, m1.v, m1.w, B.compose[(m2.v, m1.u2)])
    return _kind1(f, m1.u1, m1.v, f.dom.compose[(m2.w, m1.w)], m2.u2)


def glued_rows_eagerly(ef) -> dict[str, dict[str, str]]:
    """Every composition row of the glued category of `ef`, an
    `EfPresentation`, built at once from its coslice presentation and
    crossings, by the case analysis of `awfs._glued_compose`; empty rows
    are left out, as `FinCat` drops them."""
    jp, A = ef.j, ef.functor.dom
    J, placed, ids = jp.j, jp.s.obj_map, A.identity_set
    ends = {x: [(c, J.tgt[c]) for c in J.out(x)] for x in J.objects}
    rows: dict[str, dict[str, dict[str, str]]] = {}
    for m, enter, w, exit_ in ef.crossings:
        row = rows.get(enter)
        if row is None:
            a, after_enter = A.src[w], J.after[enter]
            collapse = {y: after_enter[c] for c, y in ends[placed[a]]}
            row = rows[enter] = {A.identity[a]: collapse}
        row.setdefault(w, {})[J.tgt[exit_]] = m
    leaving: dict[str, list] = {x: [] for x in J.objects}
    for enter, row in rows.items():
        leaving[J.src[enter]].extend((enter, w, to) for w, to in row.items() if w not in ids)
    after = dict(J.after)
    for groups in leaving.values():
        for enter, w, to in groups:
            row, after_w = rows[enter], A.after[w]
            for y, m1 in to.items():
                out = after[m1] = {c: to[z] for c, z in ends[y]}
                for _, w2, to2 in leaving[y]:
                    through = row[after_w[w2]]
                    out.update({m2: through[z] for z, m2 in to2.items()})
    for c in J.morphisms:
        if leaving[J.tgt[c]]:
            after_c = J.after[c]
            out = after[c] = dict(after_c)
            for enter2, w2, to2 in leaving[J.tgt[c]]:
                through = rows[after_c[enter2]][w2]
                out.update({m2: through[z] for z, m2 in to2.items()})
    return {m: row for m, row in after.items() if row}


def elements_rows_eagerly(projection: FinFunctor) -> dict[str, dict[str, str]]:
    """Every composition row of a category of elements, the domain of the
    `projection` that `kernel.elements` returns, built at once from the
    projection and the base's table alone: the projection is a discrete
    opfibration, so m2 after m1 is the one morphism out of the source of
    m1 that lies over t(m2) . t(m1)."""
    c, t, base_after = projection.dom, projection.mor_map, projection.cod.after
    lift = {(c.src[m], t[m]): m for m in c.morphisms}
    return {
        m1: {m2: lift[(c.src[m1], base_after[t[m1]][t[m2]])] for m2 in c.out(c.tgt[m1])}
        for m1 in c.morphisms
    }
