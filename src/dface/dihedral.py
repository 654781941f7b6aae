"""Exact algebra of the dihedral groups.

An element of the order-``2n`` group is written ``s^j r^k`` with ``j`` in
{0, 1} and ``k`` reduced modulo ``n``: ``r`` generates the ``n`` rotations,
``s`` a reflection.  Composition follows the rewriting identities

    r^i r^j = r^(i+j)        r^i s r^j = s r^(j-i)
    s r^i r^j = s r^(i+j)    s r^i s r^j = r^(j-i)

so products never leave the canonical ``s^j r^k`` form.  For the square
(n = 4) a faithful representation by signed 2x2 integer matrices is
provided; the matrices act on mathematical plane coordinates (x rightward,
y upward, origin at the region center) and rotations are counterclockwise.
"""

from __future__ import annotations

import random

from .errors import DomainError, UnsupportedOrderError
from .formatting import ascii_int, shown
from .record import record


@record
class GroupElement:
    """One element ``s^j r^k`` of the dihedral group of order ``2n``.

    ``rotation_k`` is always stored reduced modulo ``order_n``; two elements
    are equal iff all three fields are equal.
    """

    order_n: int
    reflection_j: int
    rotation_k: int

    def __post_init__(self):
        if not (isinstance(self.order_n, int) and self.order_n >= 1):
            raise DomainError(f"dihedral order must be an int >= 1, got {shown(self.order_n)}")
        if not (isinstance(self.reflection_j, int) and self.reflection_j in (0, 1)):
            raise DomainError(f"reflection exponent must be 0 or 1, got {shown(self.reflection_j)}")
        if not isinstance(self.rotation_k, int):
            raise DomainError(f"rotation exponent must be an int, got {shown(self.rotation_k)}")
        object.__setattr__(self, "rotation_k", self.rotation_k % self.order_n)

    @property
    def name(self) -> str:
        return element_name(self)

    def __repr__(self) -> str:
        return f"GroupElement(D{shown(self.order_n, str)}, {self.name})"


def identity(n: int) -> GroupElement:
    return GroupElement(n, 0, 0)


def rotation(n: int, k: int = 1) -> GroupElement:
    return GroupElement(n, 0, k)


def reflection(n: int, k: int = 0) -> GroupElement:
    return GroupElement(n, 1, k)


def _pair(g: GroupElement) -> tuple[int, int]:
    return g.reflection_j, g.rotation_k


def _product(n: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product rule on ``(j, k)`` pairs, each standing for ``s^j r^k``."""
    (ja, ka), (jb, kb) = a, b
    if jb:
        return ja ^ 1, (kb - ka) % n
    return ja, (ka + kb) % n


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product ``a * b``, reduced to canonical form.

    Matrix order matters: ``matrix_of(compose(a, b))`` equals
    ``matrix_of(a) @ matrix_of(b)``.
    """
    if not (isinstance(a, GroupElement) and isinstance(b, GroupElement)):
        raise TypeError(
            f"compose takes two GroupElements, got {type(a).__name__} and {type(b).__name__}"
        )
    if a.order_n != b.order_n:
        raise DomainError("cannot compose elements of different orders: "
                          f"D{shown(a.order_n)} and D{shown(b.order_n)}")
    return GroupElement(a.order_n, *_product(a.order_n, _pair(a), _pair(b)))


def inverse(g: GroupElement) -> GroupElement:
    """Reflections are involutions; a rotation by k inverts to n - k."""
    if g.reflection_j:
        return g
    return GroupElement(g.order_n, 0, -g.rotation_k % g.order_n)


def power(g: GroupElement, m: int) -> GroupElement:
    """m-fold composition of ``g``; m may be zero or negative."""
    if m < 0:
        return power(inverse(g), -m)
    out = identity(g.order_n)
    for _ in range(m):
        out = compose(out, g)
    return out


def elements(n: int) -> list[GroupElement]:
    """All 2n elements, in canonical order: rotations by increasing k, then
    reflections by increasing k.  GroupElement(n, 0, 0) refuses n < 1."""
    return [GroupElement(n, j, k) for j in (0, 1) for k in range(max(n, 1))]


def element_name(g: GroupElement) -> str:
    """Canonical name: e, r, r2, ... and s, sr, sr2, ...  An exponent too
    long to print is named by its bit length, which no element name parses."""
    k = g.rotation_k
    rotation_part = "" if k == 0 else "r" if k == 1 else "r" + shown(k, str)
    return "s" + rotation_part if g.reflection_j else rotation_part or "e"


def parse_element(n: int, name: str) -> GroupElement:
    """Inverse of :func:`element_name`; for n = 4 the matrix labels
    (R0..R3, V, H, D1, D2) are accepted as aliases, case-insensitively.
    An exponent is ASCII decimal digits, reduced modulo n."""
    if not isinstance(name, str):
        raise DomainError(f"element name must be a str, got {type(name).__name__}")
    if n == 4:
        alias = _D4_LABEL_TO_JK.get(name.upper())
        if alias is not None:
            return GroupElement(4, *alias)
    text = name.strip()
    j = int(text.startswith("s"))
    text = text[j:]
    if text == ("" if j else "e"):
        return GroupElement(n, j, 0)
    if text == "r":
        return GroupElement(n, j, 1)
    k = ascii_int(text[1:]) if text.startswith("r") else None
    if k is not None:
        return GroupElement(n, j, k)
    raise DomainError(f"unknown element name {name!r}")


@record
class TransformMatrix:
    """Signed 2x2 integer matrix acting on plane coordinates (y up)."""

    label: str
    entries: tuple[tuple[int, int], tuple[int, int]]

    @property
    def determinant(self) -> int:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def apply(self, p: tuple[float, float]) -> tuple[float, float]:
        (a, b), (c, d) = self.entries
        x, y = p
        return (a * x + b * y, c * x + d * y)


# Rotation k <-> R{k}; reflections follow s=V, sr=D1, sr2=H, sr3=D2, which is
# forced by s acting as the vertical-axis flip and r as the 90-degree
# counterclockwise turn.
_D4_MATRICES: dict[tuple[int, int], TransformMatrix] = {
    (0, 0): TransformMatrix("R0", ((1, 0), (0, 1))),
    (0, 1): TransformMatrix("R1", ((0, -1), (1, 0))),
    (0, 2): TransformMatrix("R2", ((-1, 0), (0, -1))),
    (0, 3): TransformMatrix("R3", ((0, 1), (-1, 0))),
    (1, 0): TransformMatrix("V", ((-1, 0), (0, 1))),
    (1, 1): TransformMatrix("D1", ((0, 1), (1, 0))),
    (1, 2): TransformMatrix("H", ((1, 0), (0, -1))),
    (1, 3): TransformMatrix("D2", ((0, -1), (-1, 0))),
}

_D4_LABEL_TO_JK = {m.label: jk for jk, m in _D4_MATRICES.items()}


def matrix_of(g: GroupElement) -> TransformMatrix:
    """Faithful matrix representation; defined for the square case only."""
    if g.order_n != 4:
        raise UnsupportedOrderError("matrix representation is defined for D4 only, "
                                    f"got D{shown(g.order_n)}")
    return _D4_MATRICES[(g.reflection_j, g.rotation_k)]


def cayley_table(n: int) -> list[list[GroupElement]]:
    """table[i][j] = elements(n)[i] * elements(n)[j]; any n >= 1."""
    els = elements(n)
    return [[compose(a, b) for b in els] for a in els]


def cayley_csv(n: int) -> str:
    """Plain 2n x 2n CSV of canonical element names, no header; any n >= 1."""
    names = {_pair(g): g.name for g in elements(n)}
    return "".join(",".join([names[_product(n, a, b)] for b in names]) + "\n" for a in names)


@record
class AxiomCheck:
    name: str
    passed: bool
    detail: str


@record
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_EXHAUSTIVE_ASSOC_LIMIT = 8
_ASSOC_SAMPLES = 2000


def verify_group_axioms(n: int) -> AxiomReport:
    """Check closure, identity, inverses, associativity, and the defining
    identities r^n = e, s r^k s = r^(-k), (s r^k)^2 = e.

    Associativity is exhaustive up to n = 8 and sampled (fixed seed) above.
    Any n >= 1 is accepted: the work grows as n^2, and only the CLI caps n.
    """
    els = elements(n)
    names = {_pair(g): g.name for g in els}
    pairs = list(names)
    e = (0, 0)
    distinct = len(set(els))
    if n <= _EXHAUSTIVE_ASSOC_LIMIT:
        mode, triples = "exhaustive", [(a, b, c) for a in pairs for b in pairs for c in pairs]
    else:
        rng = random.Random(0)
        mode, triples = "sampled", [
            (rng.choice(pairs), rng.choice(pairs), rng.choice(pairs)) for _ in range(_ASSOC_SAMPLES)
        ]
    # One row per axiom, in report order: name, detail if it holds, failure witnesses.
    axioms = [
        ("element_count", f"{2 * n} distinct elements",
         [] if distinct == 2 * n else [(str(distinct),)]),
        ("closure", f"{len(els) ** 2} products stay in the group",
         [(names[a], names[b]) for a in pairs for b in pairs if _product(n, a, b) not in names]),
        ("identity", "e * g == g * e == g for all elements",
         [(names[g],) for g in pairs if _product(n, e, g) != g or _product(n, g, e) != g]),
        ("inverse", "two-sided inverses exist for all elements",
         [(names[g],) for g, h in zip(pairs, map(_pair, map(inverse, els)))
          if _product(n, g, h) != e or _product(n, h, g) != e]),
        ("associativity", f"{mode} over {len(triples)} triples",
         [(names[a], names[b], names[c]) for a, b, c in triples
          if _product(n, _product(n, a, b), c) != _product(n, a, _product(n, b, c))]),
        ("rotation_order", "r^n == e",
         [] if power(rotation(n), n) == identity(n) else [("r",)]),
        ("reflection_involution", "(s r^k)^2 == e for all k",
         [(names[1, k],) for k in range(n) if _product(n, (1, k), (1, k)) != e]),
        ("reflection_conjugation", "s r^k s == r^(-k) for all k",
         [("s", names[0, k], "s") for k in range(n)
          if _product(n, _product(n, (1, 0), (0, k)), (1, 0)) != (0, -k % n)]),
    ]
    checks = []
    for name, detail_ok, witnesses in axioms:
        some = ";".join("(" + ",".join(w) + ")" for w in witnesses[:3])
        detail = f"{len(witnesses)} violations, e.g. {some}" if witnesses else detail_ok
        checks.append(AxiomCheck(name, not witnesses, detail))
    return AxiomReport(tuple(checks))


def axiom_report_csv(report: AxiomReport) -> str:
    lines = ["check,status,detail"]
    for c in report.checks:
        status = "pass" if c.passed else "fail"
        lines.append(f"{c.name},{status},{c.detail}")
    return "\n".join(lines) + "\n"
