"""Centrally primitive idempotents, thinness, and the final decomposition.

Idempotents of the stabilizer centralizer algebra are block-diagonal across
conjugacy classes and constant on pair orbits, so each one is stored as one
integer vector of numerators per diagonal block, over the common denominator
2|G|.  Values come from coset sums over class transversals.  Which sums of
them lie in the closed algebra T is one null space per working prime: the
sums in T are spanned by the indicators of a partition of the labels, whose
singletons are the members and whose larger parts are the merged components.
A component's dimension dim(T*e), e the sum of its atom's idempotents, is
that of the switching closure seeded with e in place of the E_c*, on the
classes where e is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .chars import CentralizerReport, char_table
from .groups import ReconciliationError, SymmetricGroup, inversion_closed
from .orbitals import OrbitalIndex
from .partitions import SignedPartition
from .switching import Block, ClosureResult, SwitchingClosure


@dataclass
class CPIdem:
    """One centrally primitive idempotent in orbit coordinates.

    block_values[c] is an int64 array: the idempotent's value on orbit t of
    C_c x C_c is block_values[c][t] / denominator, and `denominator` is 2|G|
    for every idempotent of the group.  Off-diagonal blocks vanish.
    """

    label: SignedPartition
    degree: int
    multiplicity: int
    block_values: dict[int, np.ndarray]
    denominator: int

    def block_vector_mod(self, c: int, p: int) -> np.ndarray:
        return self.block_values[c] % p * pow(self.denominator, -1, p) % p

    def block_trace(self, orbindex: OrbitalIndex, c: int) -> Fraction:
        # the diagonal of C_c x C_c is orbit 0, that of (x_c, x_c)
        size = orbindex.scheme.classes.sizes[c]
        return Fraction(int(self.block_values[c][0]) * size, self.denominator)


class CpiBuilder:
    """Builds idempotents from coset sums of character values."""

    def __init__(self, orbindex: OrbitalIndex):
        scheme = orbindex.scheme
        g = scheme.group
        cls = scheme.classes
        if not inversion_closed(cls):
            raise ValueError("idempotents need inversion-closed classes")
        if not isinstance(g, SymmetricGroup):
            raise ValueError("signed-character idempotents are symmetric-group only")
        self.orbindex = orbindex
        self.group = g
        self.classes = cls
        self.table = char_table(g.n)
        #: per class c, the class histograms of its diagonal orbits' cosets
        self.histograms = [
            self._coset_histograms(c, z) for c, z in enumerate(orbindex.centralizers)
        ]

    def _char_by_class(self, sp: SignedPartition) -> np.ndarray:
        return np.array(self.table.values[self.table.row_labels.index(sp.base)], dtype=np.int64)

    def _coset_histograms(self, c: int, z: np.ndarray) -> np.ndarray:
        """The class histograms of the cosets of C_c x C_c's orbits, z = C(x).

        Entry [0, t] counts, class by class, the elements of
        {g : g x g^-1 = y}, and entry [1, t] those of {g : g x^-1 g^-1 = y},
        where (x, y) represents orbit t of C_c x C_c: x is the class
        representative.  Each coset is ty * C(x) * tx^-1, so one scan of the
        centralizer serves every character.
        """
        g, cls, nc = self.group, self.classes, self.classes.n_classes
        py = self.orbindex.block_reps[(c, c)]
        ty = cls.transversal[cls.elements[c][py]][:, None]
        rep = cls.representatives[c]
        ids = []
        for x in (rep, g.inv(rep)):
            tx_inv = g.inv(cls.transversal[x])
            ids.append(cls.class_of[g.mul(g.mul(ty, z), tx_inv)])
        # bin (inverted, t) * nc + class, over all (inverted, t, w)
        bins = np.arange(2 * len(py)).reshape(2, -1, 1) * nc + np.stack(ids)
        flat = np.bincount(bins.ravel(), minlength=2 * len(py) * nc)
        return flat.reshape(2, len(py), nc)

    def build(self, sp: SignedPartition) -> CPIdem:
        """Idempotent for one signed character; raises if it is zero."""
        oi = self.orbindex
        chi = self._char_by_class(sp)
        f = int(chi[0])
        order2 = 2 * self.group.order
        values: dict[int, np.ndarray] = {}
        for c, hists in enumerate(self.histograms):
            plus, minus = hists @ chi
            values[c] = f * (plus + sp.sign * minus)
        e = CPIdem(label=sp, degree=f, multiplicity=0, block_values=values, denominator=order2)
        trace = sum(e.block_trace(oi, c) for c in values)
        if trace.denominator != 1 or int(trace) % f:
            raise ReconciliationError(
                "cpi_trace_multiplicity", f"trace {trace} of {sp} is not a multiple of {f}"
            )
        m = int(trace) // f
        if m == 0:
            raise ValueError(f"character {sp} does not occur: zero idempotent")
        e.multiplicity = m
        return e

    def build_all(self, mults) -> dict[SignedPartition, CPIdem]:
        """Idempotents for every signed character of nonzero multiplicity."""
        out: dict[SignedPartition, CPIdem] = {}
        for sp, m in mults.nonzero():
            e = self.build(sp)
            if e.multiplicity != m:
                raise ReconciliationError(
                    "cpi_trace_multiplicity",
                    f"trace multiplicity {e.multiplicity} != <pi,chi> = {m} for {sp}",
                )
            out[sp] = e
        return out


def module_block_dims(e: CPIdem, orbindex: OrbitalIndex) -> list[int]:
    """dim of each class slice of the irreducible module for e.

    The diagonal block of a block-diagonal idempotent is idempotent, so its
    rank equals its trace; dividing by the character degree must be exact.
    """
    dims: list[int] = []
    for c in sorted(e.block_values):
        tr = e.block_trace(orbindex, c)
        dim, rem = divmod(tr, e.degree)
        if rem or dim < 0:
            raise ReconciliationError(
                "module_block_dims",
                f"block trace {tr} at class {c} is no non-negative multiple of {e.degree}",
            )
        dims.append(dim)
    if sum(dims) != e.multiplicity:
        raise ReconciliationError(
            "module_block_dims", "block dimensions do not sum to the multiplicity"
        )
    return dims


@dataclass
class ThinEntry:
    label: SignedPartition
    dim: int
    block_dims: list[int]
    thin: bool


@dataclass
class ThinReport:
    entries: list[ThinEntry]


def thinness(
    cpis: dict[SignedPartition, CPIdem], orbindex: OrbitalIndex
) -> ThinReport:
    """Thin flags: a module is thin iff every class slice has dim <= 1."""
    entries = []
    n_classes = orbindex.n_classes
    for sp, e in cpis.items():
        dims = module_block_dims(e, orbindex)
        thin = all(d <= 1 for d in dims)
        if e.multiplicity > n_classes and thin:
            raise ReconciliationError(
                "thin_module_size", "module larger than the class count cannot be thin"
            )
        entries.append(
            ThinEntry(label=sp, dim=e.multiplicity, block_dims=dims, thin=thin)
        )
    return ThinReport(entries=entries)


def cpi_membership(e: CPIdem, result: ClosureResult) -> bool:
    """Whether e lies in the closed algebra: blockwise echelon residuals.

    Every switching-basis element is supported in a single block and e is
    supported on diagonal blocks, so membership decomposes blockwise.  Both
    primes must agree.
    """
    return result.agree(
        f"membership of {e.label}",
        lambda closure: not any(
            closure.blocks[(c, c)].residual(e.block_vector_mod(c, closure.field.p)).any()
            for c in e.block_values
        ),
    )


def algebra_times_idempotent_dim(idems: list[CPIdem], result: ClosureResult) -> int:
    """dim of (closed algebra) * e, agreed under both primes, e the sum of `idems`.

    e is a sum of centrally primitive idempotents of the centralizer algebra,
    which contains the closed algebra T, so T * e = e * T = e * T * e.  T is
    spanned by products of length-1 generators, so e * T is the right closure
    of e * T0: the closure whose level 0 is each e_c, the (c, c) block of e,
    times the length-1 generators, on the classes S = {c : e_c != 0}; no
    block outside S x S can be nonzero.  Each prime's closure is restricted
    by T's closure under that prime: block (i, m) steps only through the
    classes ending an accepted word of T's block (i, m), since those words
    span T, so no generator table beyond T's is counted.  e is symmetric
    (checked: the characters of S_n are real) and central, so every level is
    closed under transposition, as the closure's derived lower blocks need.
    e's numerators over 2|G| sum those of `idems`; a failed check names each label.
    """
    oi = result.orbindex
    labels = " + ".join(str(e.label) for e in idems)
    values = {c: sum(e.block_values[c] for e in idems) for c in idems[0].block_values}
    for c, v in values.items():
        if not np.array_equal(v[oi.transposition(c, c)], v):
            raise ReconciliationError(
                "cpi_symmetric", f"idempotent {labels} is not symmetric at class {c}"
            )

    def dim_times_e(closure: SwitchingClosure) -> int:
        p = closure.field.p
        scale = pow(idems[0].denominator, -1, p)
        seed = {c: r for c, v in values.items() if (r := v % p * scale % p).any()}
        times_e = SwitchingClosure(oi, closure.field, seed, t_closure=closure)
        times_e.close()
        return times_e.total_dim

    return result.agree(f"dim(T*e) for {labels}", dim_times_e)


@dataclass
class WedderburnComponent:
    labels: tuple[SignedPartition, ...]
    size: int | None
    dim: int

    def label_strings(self) -> list[str]:
        return [sp.label() for sp in self.labels]


@dataclass
class WedderburnReport:
    components: list[WedderburnComponent]
    dim_t: int
    members: list[SignedPartition]
    non_members: list[SignedPartition]

    @property
    def total_dim(self) -> int:
        return sum(c.dim for c in self.components)

    @property
    def reconciled(self) -> bool:
        return self.total_dim == self.dim_t

    def to_markdown(self) -> str:
        parts = []
        for c in self.components:
            tag = "+".join(c.label_strings())
            parts.append(f"M_{c.size}[{tag}]" if c.size is not None else f"?[{tag}]")
        return " (+) ".join(parts)


def _idempotent_atoms(idems: list[CPIdem], closure: SwitchingClosure) -> list[tuple[int, ...]]:
    """The atoms of V = {x : sum_k x_k e_k in T} under one prime: index tuples, smallest first.

    T meets span{e_k} in a subalgebra of the commutative semisimple algebra
    (+) Q e_k that holds the identity sum_k e_k (Terwilliger, J. Algebraic
    Combin. 1992), so V is spanned by the 0/1 indicators of a partition of
    the labels, and these are V's fully reduced rows for any one pivot per
    atom.  T is a direct sum of blocks and each e_k lies in the diagonal
    ones, so x is in V exactly when sum_k x_k R_k = 0, R_k the residuals of
    e_k on the diagonal blocks: one echelon pass over [R | I] leaves V's
    rows as those pivoted in I, which must be such indicators (`non_member_partition`).
    """
    p, s, nc = closure.field.p, len(idems), closure.orbindex.n_classes
    diag = [np.stack([e.block_vector_mod(c, p) for e in idems]) for c in range(nc)]
    res = np.concatenate([closure.blocks[(c, c)].residual(x) for c, x in enumerate(diag)], axis=1)
    f = res.shape[1]
    span = Block(f + s, p)
    span.insert_batch(np.concatenate([res, np.eye(s, dtype=np.int64)], axis=1))
    kernel = span.rows[: span.rank][span.pivots[: span.rank] >= f, f:]
    if not (np.isin(kernel, (0, 1)).all() and (kernel.sum(axis=0) == 1).all()):
        raise ReconciliationError(
            "non_member_partition",
            f"the idempotent sums lying in the algebra mod {p} are not spanned by "
            f"a partition of {[e.label.label() for e in idems]}",
        )
    atoms = [tuple(np.flatnonzero(row).tolist()) for row in kernel]
    return sorted(atoms, key=lambda a: (len(a), a))


def decompose_T(
    result: ClosureResult,
    centralizer: CentralizerReport,
    cpis: dict[SignedPartition, CPIdem],
) -> WedderburnReport:
    """Wedderburn components of the closed algebra from the centralizer's.

    Which sums of the centralizer's idempotents lie in T is read off one
    partition of their labels, the atoms of `_idempotent_atoms`, agreed under
    both primes.  The singleton atoms are the members and each larger atom is
    one merged component.  One pass over the atoms, singletons first in
    label order, sizes every component: a high-multiplicity member transfers
    unchanged (the dimension-gap corollary) and may not be merged; any other
    atom is sized by dim(T*e), e the sum of the idempotents it hands to
    `algebra_times_idempotent_dim`, and a merged atom of irregular dimension
    fails.  Every such e is central in an algebra that contains T, so
    T*e = e*T: the closure seeded with e.  The squared sizes must add up to
    dim T.  A failed check raises `ReconciliationError` naming it.
    """
    dim_t = result.dim_t
    dim_tilde = centralizer.dim
    delta = dim_tilde - dim_t
    if delta < 0:
        raise ReconciliationError(
            "dim_t_within_centralizer",
            f"closed algebra dim {dim_t} exceeds its centralizer bound {dim_tilde}",
        )

    comps = centralizer.components
    idems = [cpis[sp] for sp, _ in comps]
    atoms = result.agree(
        "membership of the idempotent sums", lambda closure: _idempotent_atoms(idems, closure)
    )
    singles = {atom[0] for atom in atoms if len(atom) == 1}
    members = [sp for k, (sp, _) in enumerate(comps) if k in singles]
    non_members = [sp for k, (sp, _) in enumerate(comps) if k not in singles]
    components: list[WedderburnComponent] = []

    # singletons first, in label order, then the merged atoms
    for atom in atoms:
        labels = tuple(comps[k][0] for k in atom)
        ms = {comps[k][1] for k in atom}
        gap = [comps[k][0] for k in atom if 2 * comps[k][1] - 1 > delta]
        if gap and len(atom) > 1:
            raise ReconciliationError(
                "dimension_gap_membership",
                f"{gap[0]} must lie in T by the dimension-gap corollary",
            )
        if gap:
            # the gap corollary forces T*e = centralizer block of e
            (m,) = ms
            components.append(WedderburnComponent(labels, m, m * m))
            continue
        d = algebra_times_idempotent_dim([idems[k] for k in atom], result)
        size = isqrt(d)
        if size * size == d and (len(ms) > 1 or d == comps[atom[0]][1] ** 2):
            components.append(WedderburnComponent(labels, size, d))
        elif len(atom) == 1:
            # e splits inside the closed algebra; record the raw dimension
            components.append(WedderburnComponent(labels, None, d))
        else:
            raise ReconciliationError(
                "merged_component_dimension",
                f"merged idempotent {[str(sp) for sp in labels]} has irregular dimension {d}",
            )

    report = WedderburnReport(
        components=components,
        dim_t=dim_t,
        members=members,
        non_members=non_members,
    )
    if not report.reconciled:
        raise ReconciliationError(
            "wedderburn_reconciled",
            f"Wedderburn reconciliation failed: sum of component dims "
            f"{report.total_dim} != dim T = {dim_t}; components: "
            f"{report.to_markdown()}"
        )
    return report
