"""Finite categories and functors as explicit identifier tables.

Everything downstream (factorisations, lenses, the free-lens tower)
consumes the two value types defined here.  `FinCat` stores a finite
category as string-identifier tables, its composition as one row per
source f mapping each g out of the target of f to g after f; the pair
table (g, f) -> g after f is only a read-only view, and
`rows_from_pairs` the one way in from it.  Constructions emit rows and
readers walk them: `FinCat.row` reads one row and `FinCat.after` the
whole table.  A construction may give a rule for its rows instead
(`elements`, `awfs.e_object`): a row is built on its first read by `row`,
and every row on the first read of `after`, which every whole-table
reader makes (`FinCat` lists them).  `FinFunctor` is a table-backed map
between two categories.  `elements` builds the category of elements of an
action on a set of points with its projection, a discrete opfibration;
every discrete opfibration is one, and the coslice Jf, the middle of the
comprehensive factorisation and a lens's lambda presentation are built by it.
Equality is identifier equality throughout, values are immutable after
construction, and every enumeration walks identifiers in sorted order,
so all derived data is reproducible bit for bit.

A derived category's identifiers are made once, where each object or
morphism is created, by `tag`, which escapes each distinct part once.  Its
composition rows, and the maps that the constructions apply to squares,
look those identifiers up by their parts instead of tagging them again.

Validators return `ValidationReport` values instead of raising: a bad
table is data to report on, not an exception.  Exceptions are reserved
for misuse (`InputError`), broken preconditions (`ContractError`),
blown enumeration budgets (`GuardExceededError`) and failed internal
post-checks (`InternalInvariantError`).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property, wraps
from operator import attrgetter, itemgetter


class InputError(ValueError):
    """Malformed or mismatched input (bad file, wrong boundary, unknown id)."""


class ContractError(ValueError):
    """A documented precondition of an operation does not hold."""


class GuardExceededError(RuntimeError):
    """An enumeration would exceed the configured size guard."""


class InternalInvariantError(RuntimeError):
    """A post-construction self-check failed; this signals a kernel bug."""


DEFAULT_GUARD = 10**6

_MISSING = object()
_EMPTY: dict = {}


class _Key(tuple):
    """A tuple that keeps its hash, equal to the plain tuple's, from first use."""

    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = tuple.__hash__(self)
        return h


def memo_by_key(build=None, *, key: str = "key"):
    """Memoise a one-argument construction by a key its argument caches,
    `.key` unless `key` names another: `@memo_by_key(key="coslice_key")`.

    Equal keys mean equal results: a key holds everything the construction
    reads of its argument, so the first result is served to every later
    call on an argument with an equal key.  A key is hashed once, so each
    later lookup costs a dict probe.  Results are shared between callers
    and must not be mutated.  A call that raises caches nothing; the bare
    construction stays reachable as `__wrapped__`.
    """
    if build is None:
        return lambda build: memo_by_key(build, key=key)
    read = attrgetter(key)
    results: dict = {}

    @wraps(build)
    def cached(arg):
        k = read(arg)
        out = results.get(k, _MISSING)
        if out is _MISSING:
            out = results[k] = build(arg)
        return out

    return cached


class _Escaped(dict):
    """part -> its escaped form, worked out on first use: one entry per id used as a part."""

    def __missing__(self, part: str) -> str:
        out = part.replace("\\", "\\\\").replace(",", "\\,").replace("(", "\\(").replace(")", "\\)")
        self[part] = out = out.replace("<", "\\<")
        return out


_escape = _Escaped().__getitem__  # a dict lookup: each distinct part is escaped once


def tag(*parts: str) -> str:
    """Build a canonical composite identifier from constituent identifiers.

    Escaping makes the encoding injective, so identifiers of derived
    categories never collide even when nested several levels deep; each
    distinct part is escaped once.  Constructions call this once per object
    or morphism they create and afterwards look the identifier up by its parts.
    """
    return "(" + ",".join(map(_escape, parts)) + ")"


Violation = tuple  # (law_name, offending identifiers...)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validator: `ok` holds exactly when `violations` is empty."""

    ok: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations) -> "ValidationReport":
        vs = tuple(violations)
        return cls(ok=not vs, violations=vs)

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport.from_violations(self.violations + other.violations)

    @property
    def first(self) -> str:
        """The first violation, its parts joined by spaces."""
        return " ".join(map(str, self.violations[0]))

    def require(self, message: str) -> None:
        """Raise `InternalInvariantError` ending with the first violation
        unless the report is ok."""
        if not self.ok:
            raise InternalInvariantError(f"{message}: {self.first}")


class _Rows(dict):
    """Composition rows f -> {g: g after f}, read one at a time by `FinCat.row`:
    a row that is not there is empty, unless a rule is given, which builds the
    row on its first read; a row built is kept unless it is empty."""

    __slots__ = ("rule",)

    def __missing__(self, f: str) -> dict[str, str]:
        out = None if self.rule is None else self.rule(f)
        if not out:
            return _EMPTY
        self[f] = out
        return out


class _WholeTable:
    """`FinCat.after` of a table given by a rule: the first read builds every
    row not built yet and drops the rule; the rows are the table from then on."""

    def __get__(self, c, owner=None):
        if c is None:
            raise AttributeError("after")  # so the dataclass field has no default
        rows = c._rows
        for f in c.morphisms:
            rows[f]
        rows.rule = None
        c.__dict__["after"] = rows
        return rows


@dataclass(frozen=True, eq=True)
class FinCat:
    """A finite category as identifier tables.

    objects     sorted object identifiers
    morphisms   sorted morphism identifiers
    src, tgt    morphism id -> object id
    identity    object id -> morphism id
    after       f -> {g: g after f}, defined exactly on the g out of tgt f;
                empty rows are dropped, so equal tables have equal rows

    `after` may instead be given as a rule, f -> the row of f, as a category
    of elements (`elements`) and a glued category (`awfs.e_object`) are.
    Such a table builds a row the first time `row` reads it, and builds
    every row when `after` is first read, which every reader of the whole
    table does: `==`, `key` (unless the construction keyed it), `compose`,
    `generators`, `validate_category`, `validate_functor` on its domain and
    the JSON writer.  A rule reads only tables fixed when it is given, so a
    row it builds equals the row built up front, whenever it is read.

    Construction never validates; run `validate_category` to get a report.
    The dict fields are owned by the instance and must not be mutated.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    identity: dict[str, str]
    after: dict[str, dict[str, str]] = _WholeTable()

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(sorted(self.objects)))
        object.__setattr__(self, "morphisms", tuple(sorted(self.morphisms)))
        rows = self.__dict__["_rows"] = _Rows()
        if callable(self.after):
            rows.rule = self.__dict__.pop("after")
        else:
            rows.rule, after = None, self.after
            rows.update(after if all(after.values()) else ((f, r) for f, r in after.items() if r))
            object.__setattr__(self, "after", rows)

    @property
    def row(self) -> Callable[[str], dict[str, str]]:
        """f -> the row of f, {g: g after f}, empty if f has none (or is no
        morphism); a table given by a rule builds a row on its first read."""
        return self._rows.__getitem__

    @property
    def compose(self) -> Mapping[tuple[str, str], str]:
        """The rows read as the table (g, f) -> g after f; its length counts the pairs."""
        return _Pairs(self.after)

    # -- helpers ---------------------------------------------------------

    @cached_property
    def identity_set(self) -> frozenset[str]:
        return frozenset(self.identity.values())

    def is_identity(self, m: str) -> bool:
        return m in self.identity_set

    @cached_property
    def nonidentity(self) -> tuple[str, ...]:
        return tuple(m for m in self.morphisms if m not in self.identity_set)

    @cached_property
    def by_src(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {x: [] for x in self.objects}
        for m in self.morphisms:
            acc[self.src[m]].append(m)
        return {x: tuple(ms) for x, ms in acc.items()}

    @cached_property
    def by_tgt(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {x: [] for x in self.objects}
        for m in self.morphisms:
            acc[self.tgt[m]].append(m)
        return {x: tuple(ms) for x, ms in acc.items()}

    def out(self, x: str) -> tuple[str, ...]:
        return self.by_src[x]

    def into(self, x: str) -> tuple[str, ...]:
        return self.by_tgt[x]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return tuple(m for m in self.by_src[x] if self.tgt[m] == y)

    def composite(self, g: str, f: str) -> str:
        """g after f; raises InputError on a non-composable pair."""
        try:
            return self._rows[f][g]
        except KeyError:
            raise InputError(f"morphisms not composable: ({g}, {f})") from None

    @cached_property
    def key(self) -> tuple:
        """Canonical hashable form, used as a cache key for derived data; hashed
        once, so each later lookup costs a dict probe.  A construction may key
        its result by its inputs instead (`_lawful_by_construction`)."""
        sources = tuple(sorted(self.after))
        return _Key((
            self.objects,
            self.morphisms,
            _table_key(self.src),
            _table_key(self.tgt),
            _table_key(self.identity),
            sources,
            tuple(map(_table_key, map(self.after.__getitem__, sources))),
        ))

    @cached_property
    def _report(self) -> ValidationReport:
        return _category_report(self)

    @cached_property
    def lawful(self) -> bool:
        """The report's verdict, for fast paths, unless a construction marked its
        result (`_lawful_by_construction`); `validate_category` reads no mark."""
        return self._report.ok

    @cached_property
    def generators(self) -> tuple[str, ...] | None:
        """Sorted non-identities whose closure under composition, from the objects'
        identities (not stray `identity` entries), is every morphism of a typed table,
        or None if closing meets a missing composite.

        Greedy: the non-composites, then each composite the closure has not reached,
        in sorted order, except that after a composite the next generator leaves its
        target: the first unreached one into an object no generator touches, else the
        least unreached one, else (a dead end) sorted order resumes.  Light's test and
        the functor check cost a sum over G, and a path through new objects closed by
        one edge keeps |G| near the number of objects on groupoid-like tables, where
        sorted order alone takes about twice as many or more."""
        ids = {self.identity[x] for x in self.objects}
        after, src, tgt, reached = self.after, self.src, self.tgt, set(ids)
        composites = {gf for f, row in after.items() if f not in ids for g, gf in row.items() if g not in ids}
        gens: dict[str, list[str]] = {x: [] for x in self.objects}  # by source
        touched = None  # the objects generators touch, from the first composite on
        for m in sorted([m for m in self.morphisms if m not in ids], key=composites.__contains__):
            while m is not None and m not in reached:
                gens[src[m]].append(m)
                todo = [m] + [after.get(r, _EMPTY).get(m, _MISSING) for r in self.by_tgt[src[m]] if r in reached]
                while todo:
                    r = todo.pop()
                    if r is _MISSING:
                        return None
                    if r not in reached:
                        reached.add(r)
                        todo.extend(after.get(r, _EMPTY).get(g, _MISSING) for g in gens[tgt[r]])
                if m not in composites:
                    break
                if touched is None:
                    touched = {x for g in itertools.chain(*gens.values()) for x in (src[g], tgt[g])}
                touched.update((src[m], tgt[m]))
                nxt = None  # out of tgt m: the first unreached into a new object, else the least
                for n in self.by_src[tgt[m]]:
                    if n not in reached:
                        if tgt[n] not in touched:
                            nxt = n
                            break
                        if nxt is None:
                            nxt = n
                m = nxt
        return tuple(sorted(itertools.chain.from_iterable(gens.values())))


@dataclass(frozen=True, eq=True)
class FinFunctor:
    """A functor as object and morphism tables between two `FinCat` values."""

    dom: FinCat
    cod: FinCat
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    @cached_property
    def key(self) -> tuple:
        return _Key((
            self.dom.key,
            self.cod.key,
            _table_key(self.obj_map),
            _table_key(self.mor_map),
        ))

    @cached_property
    def coslice_key(self) -> tuple:
        """What the coslice J(f) reads of f (`semimonad.j_object`): the domain's
        objects and their identity ids, the object map on them and the
        codomain's key, not the morphism map.  Hashed once, like `key`."""
        A = self.dom
        return _Key((
            A.objects,
            tuple(map(A.identity.__getitem__, A.objects)),
            tuple(map(self.obj_map.__getitem__, A.objects)),
            self.cod.key,
        ))


def _table_key(table: dict) -> tuple:
    """(sorted keys, values in that order): equal for equal tables, whatever
    their insertion order."""
    keys = tuple(sorted(table))
    return keys, tuple(map(table.__getitem__, keys))


class _Pairs(Mapping):
    """Composition rows read as the read-only table (g, f) -> g after f."""

    def __init__(self, after: dict[str, dict[str, str]]):
        self._after = after

    def __getitem__(self, pair: tuple[str, str]) -> str:
        g, f = pair
        return self._after[f][g]

    def __iter__(self):
        return ((g, f) for f, row in self._after.items() for g in row)

    def __len__(self) -> int:
        return sum(map(len, self._after.values()))


def rows_from_pairs(entries) -> dict[str, dict[str, str]]:
    """Composition rows from ((g, f), g after f) entries, for files and tests;
    a pair given twice is an `InputError`."""
    after: dict[str, dict[str, str]] = {}
    for (g, f), gf in entries:
        row = after.setdefault(f, {})
        if g in row:
            raise InputError(f"compose has more than one entry for {[g, f]!r}")
        row[g] = gf
    return after


def same_cat(a: FinCat, b: FinCat) -> bool:
    """a == b, decided without reading the tables when both already hold equal
    keys: equal keys mean equal tables."""
    if a is b:
        return True
    key = a.__dict__.get("key")
    return (key is not None and key == b.__dict__.get("key")) or a == b


def same_functor(f: FinFunctor, g: FinFunctor) -> bool:
    return f is g or f == g


def identity_functor(c: FinCat) -> FinFunctor:
    return FinFunctor(c, c, {x: x for x in c.objects}, {m: m for m in c.morphisms})


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    """g after f; boundaries must match on the nose."""
    if not same_cat(f.cod, g.dom):
        raise InputError("functors not composable: cod of first differs from dom of second")
    return FinFunctor(
        f.dom,
        g.cod,
        {x: g.obj_map[fx] for x, fx in f.obj_map.items()},
        {m: g.mor_map[fm] for m, fm in f.mor_map.items()},
    )


def commutes(g: FinFunctor, f: FinFunctor, k: FinFunctor, h: FinFunctor | None = None) -> bool:
    """Whether g after f equals k after h, or k itself when h is None.

    Decides `same_functor` of the composites, raising `InputError` where
    `compose_functors` would, but builds neither: every object and morphism
    of the common domain is compared through the tables."""
    if not same_cat(f.cod, g.dom) or not (h is None or same_cat(h.cod, k.dom)):
        raise InputError("functors not composable: cod of first differs from dom of second")
    if not same_cat(f.dom, k.dom if h is None else h.dom) or not same_cat(g.cod, k.cod):
        return False
    for g_map, f_map, k_map, h_map in (
        (g.obj_map, f.obj_map, k.obj_map, None if h is None else h.obj_map),
        (g.mor_map, f.mor_map, k.mor_map, None if h is None else h.mor_map),
    ):
        if f_map.keys() != (k_map if h_map is None else h_map).keys():
            return False
        right = map(k_map.__getitem__, f_map if h_map is None else map(h_map.__getitem__, f_map))
        if list(map(g_map.__getitem__, f_map.values())) != list(right):
            return False
    return True


# -- validators ------------------------------------------------------------


def validate_category(c: FinCat) -> ValidationReport:
    """Check the category laws on raw tables, associativity by Light's test on
    rows compared as tuples; memoised on `c`, which is immutable."""
    return c._report


def _category_report(c: FinCat) -> ValidationReport:
    v: list[Violation] = []
    obj_set = set(c.objects)
    mor_set = set(c.morphisms)
    for ids, name in ((c.objects, "duplicate-object"), (c.morphisms, "duplicate-morphism")):
        seen: set[str] = set()
        for x in ids:
            if x in seen:
                v.append((name, x))
            seen.add(x)

    typed: set[str] = set()
    for m in c.morphisms:
        ok = True
        for table, name in ((c.src, "src"), (c.tgt, "tgt")):
            if m not in table:
                v.append((f"missing-{name}", m))
                ok = False
            elif table[m] not in obj_set:
                v.append(("unknown-object", m, table[m]))
                ok = False
        if ok:
            typed.add(m)

    idents: set[str] = set()
    for x in c.objects:
        i = c.identity.get(x)
        if i is None:
            v.append(("missing-identity", x))
        elif i not in mor_set:
            v.append(("unknown-identity", x, i))
        elif i not in typed or c.src[i] != x or c.tgt[i] != x:
            v.append(("identity-typing", x, i))
        else:
            idents.add(i)

    out_of: dict[str, list[str]] = {x: [] for x in c.objects}
    for m in c.morphisms:
        if m in typed:
            out_of[c.src[m]].append(m)

    # Each entry on its own, a row at a time: known ids, a composable pair, a
    # typed composite.  An untyped source has no target, so no g is
    # composable with it.
    src, tgt, after = c.src, c.tgt, c.after
    bad: list[Violation] = []
    for f, row in after.items():
        s, t = (src[f], tgt[f]) if f in typed else (None, _MISSING)
        for g, gf in row.items():
            if g not in mor_set or f not in mor_set or gf not in mor_set:
                bad.append(("compose-unknown", g, f, gf))
            elif g not in typed or src[g] != t:
                bad.append(("compose-not-composable", g, f))
            elif src.get(gf) != s or tgt.get(gf) != tgt[g]:
                bad.append(("composite-typing", g, f, gf))
    v.extend(sorted(bad, key=lambda w: w[1:3]))  # one per entry, in (g, f) order

    # Totality by counting, a row at a time: with no bad entry every g in the
    # row of f is out of tgt f, and the row's keys are distinct, so a row as
    # long as out(tgt f) is complete.  Only otherwise are its gaps listed.
    missing: set[tuple[str, str]] = set()
    for f in typed:
        row, outs = after.get(f, _EMPTY), out_of[tgt[f]]
        if bad or len(row) != len(outs):
            missing.update((g, f) for g in outs if g not in row)
    v.extend(("missing-composite", *pair) for pair in sorted(missing))

    for f in c.morphisms:
        if f not in typed:
            continue
        i_src, i_tgt = c.identity.get(src[f]), c.identity.get(tgt[f])
        if i_src in idents and after.get(i_src, _EMPTY).get(f, f) != f:
            v.append(("right-unit", f))
        if i_tgt in idents and after.get(f, _EMPTY).get(i_tgt, f) != f:
            v.append(("left-unit", f))

    # Light's test: when composition is typed and total and the units hold,
    # the middles y of associative triples hold the identities and are closed
    # under composition, so generators as middles suffice.  At a middle g the
    # rows h.(g.f), (h.g).f over h out of tgt g are tuples (scalars for one h).
    def associative_at(gens) -> bool:
        for g in gens:
            left, right = itemgetter(*after[g]), itemgetter(*after[g].values())
            for after_f in map(after.__getitem__, c.by_tgt[src[g]]):
                if left(after[after_f[g]]) != right(after_f):
                    return False
        return True

    gens = None if v else c.generators
    if gens is not None and associative_at(gens):
        return ValidationReport(True, ())
    # Else sweep each composable (g, f): equal rows of h.(g.f) and (h.g).f over
    # the keys h of after[g] hold no violation; a row that differs is walked h
    # by h out of tgt g, where a missing composite skips the triple.
    for g, f in sorted({(g, f) for f in typed for g in out_of[tgt[f]]}):
        after_f = after.get(f, _EMPTY)
        gf = after_f.get(g)
        if gf is None:
            continue
        after_g, after_gf = after.get(g, _EMPTY), after.get(gf, _EMPTY)
        if list(map(after_gf.get, after_g)) == list(map(after_f.get, after_g.values())):
            continue
        for h in out_of[tgt[g]]:
            hg, left = after_g.get(h), after_gf.get(h)
            right = None if hg is None else after_f.get(hg)
            if left is not None and right is not None and left != right:
                v.append(("associativity", h, g, f))
    return ValidationReport.from_violations(v)


def validate_functor(fun: FinFunctor) -> ValidationReport:
    """Check totality and structure preservation; a failing map's pairs are swept in order."""
    v: list[Violation] = []
    dom, cod, obj_map, mor_map = fun.dom, fun.cod, fun.obj_map, fun.mor_map
    cod_objs, cod_mors = set(cod.objects), set(cod.morphisms)
    for x in dom.objects:
        fx = obj_map.get(x)
        if fx is None:
            v.append(("obj-map-missing", x))
        elif fx not in cod_objs:
            v.append(("obj-map-unknown", x, fx))
    for m in dom.morphisms:
        fm = mor_map.get(m)
        if fm is None:
            v.append(("mor-map-missing", m))
        elif fm not in cod_mors:
            v.append(("mor-map-unknown", m, fm))
    if v:
        return ValidationReport.from_violations(v)

    dom_src, dom_tgt, cod_src, cod_tgt = dom.src, dom.tgt, cod.src, cod.tgt
    for m in dom.morphisms:
        fm = mor_map[m]
        if cod_src[fm] != obj_map[dom_src[m]]:
            v.append(("src-preservation", m))
        if cod_tgt[fm] != obj_map[dom_tgt[m]]:
            v.append(("tgt-preservation", m))
    dom_id, cod_id = dom.identity, cod.identity
    for x in dom.objects:
        if mor_map[dom_id[x]] != cod_id[obj_map[x]]:
            v.append(("identity-preservation", x))
    if not v and dom.lawful and cod.lawful:
        if _preserves_composition(dom, cod, mor_map, dom.generators):
            return ValidationReport(True, ())
    mor, cod_row = mor_map.get, cod.row  # a pair with an unknown id is reported too
    bad = [(g, f) for f, row in dom.after.items() for g, gf in row.items()
           if (img := cod_row(mor(f)).get(mor(g))) is None or img != mor(gf)]
    v.extend(("composition-preservation", *pair) for pair in sorted(bad))
    return ValidationReport.from_violations(v)


# -- constructions ----------------------------------------------------------


def _lawful_by_construction(c: FinCat, key: tuple | None = None) -> FinCat:
    """c, marked lawful by a construction whose docstring argues it is a category,
    and keyed by `key` if given.  Such a key starts with the construction's name
    and holds the keys of everything c's tables are read from, so equal keys
    still mean equal tables, and it never equals a table key, whose first
    entry is a tuple."""
    c.__dict__["lawful"] = True
    if key is not None:
        c.__dict__["key"] = _Key(key)
    return c


def discrete(c: FinCat) -> FinCat:
    """The discrete category on the objects of c, keeping identity ids."""
    idents = {x: c.identity[x] for x in c.objects}
    mors = tuple(sorted(idents.values()))
    return FinCat(
        objects=c.objects,
        morphisms=mors,
        src={m: x for x, m in idents.items()},
        tgt={m: x for x, m in idents.items()},
        identity=idents,
        after={m: {m: m} for m in mors},
    )


def elements(base: FinCat, over: dict, act, obj_name, mor_name) -> tuple[FinFunctor, dict, dict]:
    """The category of elements of an action of base, with its projection onto
    base, a discrete opfibration.  Point p is the object obj_name(p) over
    over[p]; v out of over[p] moves it along mor_name(p, v) to act(p, v), and
    (p, v2) after (p, v1) is (p, v2.v1).  Returns the projection, obj_id
    (p -> object) and mor_id (p -> {v: morphism}), every table in the order
    of `over`.  It is marked lawful unchecked: when base is a category and
    act an action (act(p, v) over the target of v, act(p, 1) = p and
    act(act(p, v1), v2) = act(p, v2.v1)), (p, v2.v1) runs from p to the
    target of (act(p, v1), v2), and units and associativity are base's.
    The `constructions` law family and the tests check what callers build.

    The rows are a rule (`FinCat`), built as read: the row of m1 = (p, v1)
    is {(q, v2): (p, v2.v1)} for q = act(p, v1), read from the projection's
    morphism map (m1 -> v1), base's row of v1 and the rows of mor_id at p
    and q, found by their object ids src m1 and tgt m1.  A build of every
    row up front reads the same, so its rows are equal (`tests/oracles.py`)."""
    obj_id = {p: obj_name(p) for p in over}
    mor_id = {p: {v: mor_name(p, v) for v in base.out(b)} for p, b in over.items()}
    src, tgt, on_mor = {}, {}, {}
    for p, row in mor_id.items():
        for v1, m1 in row.items():
            src[m1], tgt[m1], on_mor[m1] = obj_id[p], obj_id[act(p, v1)], v1
    out_of, base_row = {obj_id[p]: row for p, row in mor_id.items()}, base.row

    def row_of(m1: str) -> dict[str, str] | None:
        v1 = on_mor.get(m1)
        if v1 is None:  # no morphism
            return None
        row, after_v1 = out_of[src[m1]], base_row(v1)
        return {m2: row[after_v1[v2]] for v2, m2 in out_of[tgt[m1]].items()}

    identity = {obj_id[p]: mor_id[p][base.identity[b]] for p, b in over.items()}
    cat = _lawful_by_construction(
        FinCat(tuple(obj_id.values()), tuple(src), src, tgt, identity, row_of))
    return FinFunctor(cat, base, {obj_id[p]: b for p, b in over.items()}, on_mor), obj_id, mor_id


def counit_inclusion(c: FinCat) -> FinFunctor:
    """The identity-on-objects inclusion discrete(c) -> c."""
    d = discrete(c)
    return FinFunctor(d, c, {x: x for x in d.objects}, {m: m for m in d.morphisms})


def is_bijective_on_objects(fun: FinFunctor) -> bool:
    images = list(fun.obj_map.values())
    return len(images) == len(set(images)) and set(images) == set(fun.cod.objects)


def comma_to_object(fun: FinFunctor, b: str) -> FinCat:
    """The comma category fun/b: objects (a, u: fun a -> b), morphisms w with
    u' after fun w = u.  Identifiers are tags over the constituent ids.

    The factorisation reads its classes off `factorization.components`
    instead; this full table is the reference construction to check them."""
    if b not in fun.cod.objects:
        raise InputError(f"unknown object: {b}")
    A, B = fun.dom, fun.cod
    obj_id: dict[tuple[str, str], str] = {}
    for a in A.objects:
        for u in B.out(fun.obj_map[a]):
            if B.tgt[u] == b:
                obj_id[(a, u)] = tag(a, u)
    mor_id: dict[tuple[str, str], str] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    mor_parts: dict[str, tuple[str, str]] = {}
    for w in A.morphisms:
        a, a2 = A.src[w], A.tgt[w]
        fw = fun.mor_map[w]
        for u2 in B.out(fun.obj_map[a2]):
            if B.tgt[u2] != b:
                continue
            m = mor_id[(w, u2)] = tag(w, u2)
            src[m] = obj_id[(a, B.row(fw)[u2])]
            tgt[m] = obj_id[(a2, u2)]
            mor_parts[m] = (w, u2)
    identity = {o: mor_id[(A.identity[a], u)] for (a, u), o in obj_id.items()}
    morphisms = sorted(mor_parts)
    out_of: dict[str, list[str]] = {o: [] for o in obj_id.values()}
    for m in morphisms:
        out_of[src[m]].append(m)
    after: dict[str, dict[str, str]] = {}
    for m1 in morphisms:
        after_w1 = A.row(mor_parts[m1][0])
        row = after[m1] = {}
        for m2 in out_of[tgt[m1]]:
            w2, u3 = mor_parts[m2]
            row[m2] = mor_id[(after_w1[w2], u3)]
    return FinCat(tuple(obj_id.values()), tuple(morphisms), src, tgt, identity, after)


def enumerate_functors(
    dom: FinCat, cod: FinCat, guard: int = DEFAULT_GUARD
) -> list[FinFunctor]:
    """All functors dom -> cod in lexicographic order of their tables.

    Refuses up front when the raw search space
    |objects(cod)| ** |objects(dom)| * |morphisms(cod)| ** |nonidentity(dom)|
    exceeds the guard.
    """
    space = len(cod.objects) ** len(dom.objects)
    space *= len(cod.morphisms) ** len(dom.nonidentity)
    if space > guard:
        raise GuardExceededError(
            f"functor search space {space} exceeds guard {guard}"
        )
    found: list[FinFunctor] = []
    nonid = dom.nonidentity
    gens = dom.generators if dom.lawful and cod.lawful else None
    for images in itertools.product(cod.objects, repeat=len(dom.objects)):
        obj_map = dict(zip(dom.objects, images))
        base = {
            dom.identity[x]: cod.identity[obj_map[x]] for x in dom.objects
        }
        cands: list[tuple[str, ...]] = []
        feasible = True
        for m in nonid:
            cs = cod.hom(obj_map[dom.src[m]], obj_map[dom.tgt[m]])
            if not cs:
                feasible = False
                break
            cands.append(cs)
        if not feasible:
            continue
        for choice in itertools.product(*cands):
            mor_map = dict(base)
            mor_map.update(zip(nonid, choice))
            if _preserves_composition(dom, cod, mor_map, gens):
                found.append(FinFunctor(dom, cod, dict(obj_map), mor_map))
    return found


def _preserves_composition(dom: FinCat, cod: FinCat, mor: dict[str, str], gens) -> bool:
    """Whether a typed, identity-preserving mor keeps each g.f, for g in gens
    or, if None, every pair.  When dom and cod are categories dom's generators
    suffice: the g that pass hold the identities and are closed under composition."""
    into, src, dom_after, cod_row = dom.by_tgt, dom.src, dom.after, cod.row
    if gens is None:
        return all(cod_row(mor[f]).get(mor[g]) == mor[gf]
                   for f, row in dom_after.items() for g, gf in row.items())
    for g in gens:
        mg = mor[g]
        for f in into[src[g]]:
            if cod_row(mor[f]).get(mg) != mor[dom_after[f][g]]:
                return False
    return True
