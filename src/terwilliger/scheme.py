"""The conjugacy-class association scheme and its intersection numbers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import ConjugacyData, GroupTable, ReconciliationError, conjugacy_classes


@dataclass
class ClassScheme:
    """Scheme on G with (x,y) in relation i iff x^-1 y lies in class i."""

    group: GroupTable
    classes: ConjugacyData
    _tensor: "IntersectionTensor | None" = field(default=None, repr=False)

    @property
    def n_classes(self) -> int:
        return self.classes.n_classes


def build_scheme(g: GroupTable) -> ClassScheme:
    return ClassScheme(group=g, classes=conjugacy_classes(g))


@dataclass
class IntersectionTensor:
    """Intersection numbers: p[i, j, k] = p_ij^k, an (nc, nc, nc) int64 array.

    p_ij^k counts the z with (x, z) in relation i and (z, y) in relation j,
    for any fixed (x, y) in relation k.
    """

    p: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.p.shape[0]


def intersection_numbers(s: ClassScheme) -> IntersectionTensor:
    """Compute all p_ij^k from one representative pair (1, g_k) per k.

    For (1, y) with y in C_k:  p_ij^k = #{z in C_i : z^-1 y in C_j},
    so one bincount over all (z, k) buckets every (i, j, k) at once.  Cached
    on the scheme.
    """
    if s._tensor is not None:
        return s._tensor
    g = s.group
    cls = s.classes
    nc = cls.n_classes
    # quotients[z, k] = z^-1 y_k
    quotients = g.mul_outer(g.inv(np.arange(g.order)), cls.representatives)
    bins = (cls.class_of[:, None] * nc + cls.class_of[quotients]) * nc + np.arange(nc)
    counts = np.bincount(bins.ravel(), minlength=nc**3)
    tensor = IntersectionTensor(p=counts.reshape(nc, nc, nc))
    _validate_tensor(tensor, cls)
    s._tensor = tensor
    return tensor


def _validate_tensor(t: IntersectionTensor, cls: ConjugacyData) -> None:
    # Each z in C_i contributes to exactly one j: sum_j p_ij^k = |C_i|.
    sums = t.p.sum(axis=1)
    bad = np.argwhere(sums.T != np.asarray(cls.sizes))
    if bad.size:
        k, i = bad[0].tolist()
        raise ReconciliationError(
            "tensor_row_sums", f"row sum p_{i}j^{k} = {sums[i, k]} != |C_{i}|"
        )
    if not np.array_equal(t.p[0], np.eye(t.n_classes, dtype=t.p.dtype)):
        raise ReconciliationError("tensor_identity_relation", "p_0j^k != delta_jk")


def dim_T0(t: IntersectionTensor) -> int:
    """Number of nonzero intersection numbers."""
    return int(np.count_nonzero(t.p))


def conj_centralizer_dim(s: ClassScheme) -> int:
    """Dimension of the conjugation centralizer algebra: sum of |G|/|C_i|."""
    n = s.group.order
    return sum(n // size for size in s.classes.sizes)


@dataclass
class AxiomReport:
    """Diagnostics from verify_axioms: violations are collected, not raised."""

    #: ordered pairs the checks cover: all |G|^2 of them
    checked_pairs: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_axioms(s: ClassScheme) -> AxiomReport:
    """Check the scheme axioms exactly, through per-element group facts.

    The group axioms already hold: by construction for S_n, and for Cayley
    tables through the Latin-square check and Light's test at load time.
    Then (x, y) lies in relation class_of[w] with w = x^-1 y, and its counts
    #{z : x^-1 z in C_i, z^-1 y in C_j} = #{u in C_i : u^-1 w in C_j}
    depend only on w.  Conjugation u -> h u h^-1 maps the set for w onto
    the set for h w h^-1 as long as it permutes every class, so when each
    class is exactly one conjugacy class the counts depend only on the class
    of w: that is p_ij^k for all |G|^2 ordered pairs (Bannai-Ito, Algebraic
    Combinatorics I, 1984).  The checks, O(|G| * |gens|), are therefore:

    - the class lists agree with class_of, each representative lies in its
      class and class 0 is {e}, so the relations partition G x G and
      relation 0 is the diagonal (with x^-1 x = e);
    - class_of[x^-1] = inverse_class[class_of[x]], the converse axiom;
    - class_of[s x s^-1] = class_of[x] for every generator s, so each class
      is a union of conjugacy classes;
    - transversal[x] rep transversal[x]^-1 = x, so each class is a single
      conjugacy class (and the transversals are right).
    """
    g = s.group
    cls = s.classes
    report = AxiomReport(checked_pairs=g.order**2)
    bad = report.violations
    c = cls.class_of
    members = [np.flatnonzero(c == i) for i in range(cls.n_classes)]
    for i, rep in enumerate(cls.representatives):
        if not np.array_equal(cls.elements[i], members[i]):
            bad.append(f"elements[{i}] differs from the elements class_of puts in class {i}")
        if cls.sizes[i] != len(members[i]):
            bad.append(f"sizes[{i}] = {cls.sizes[i]}, class has {len(members[i])} elements")
        if c[rep] != i:
            bad.append(f"representative {rep} of class {i} lies in class {c[rep]}")
    if not np.array_equal(members[0], [0]):
        bad.append(f"class 0 is {members[0].tolist()}, not the identity alone")

    every = np.arange(g.order)
    inverses = g.inv(every)
    gens = np.array(g.generators(), dtype=np.intp)
    diagonal = g.mul(inverses, every) != 0
    converse = c[inverses] != np.asarray(cls.inverse_class)[c]
    # conjugated[h, x]: conjugating x by the h-th generator leaves its class
    conjugated = c[g.conjugate(gens[:, None], every)] != c
    transversal = g.conjugate(cls.transversal, np.asarray(cls.representatives)[c]) != every
    failing = diagonal | converse | conjugated.any(axis=0) | transversal
    for x in np.flatnonzero(failing).tolist():
        if len(bad) >= 20:
            bad.append("... further violations suppressed")
            break
        if diagonal[x]:
            bad.append(f"diagonal pair ({x},{x}) not in relation 0")
        if converse[x]:
            bad.append(
                f"converse: {x}^-1 lies in class {c[inverses[x]]}, "
                f"expected {cls.inverse_class[c[x]]}"
            )
        for h, moved in zip(gens, conjugated[:, x]):
            if moved:
                bad.append(f"conjugating {x} by generator {h} leaves class {c[x]}")
        if transversal[x]:
            bad.append(
                f"transversal[{x}] does not conjugate the class-{c[x]} representative to {x}"
            )
    return report
