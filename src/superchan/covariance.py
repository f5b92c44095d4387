"""Group-covariance testing by sampled conjugation, and the fully
unitary-covariant superchannel families with their closed-form positivity
conditions.

Covariance is linear in the Choi matrix, so violations are generic: a small
number of seeded samples suffices, and the verdict is reproducible from the
seed.  Samplers own their generator and are not meant to be shared across
threads.  Conjugation by a diagonal group element only rephases each entry of
the Choi, so the diagonal groups (du, do) are tested on its nonzero entries
alone; the Haar groups conjugate the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    ChoiChannel,
    compose_channels,
    choi_channel,
    depolarizing,
    identity_channel,
    transpose_map,
)
from .linalg import DEFAULT_TOL, max_entangled_projector, swap_operator
from .superchannels import SuperChoi, super_choi

DIAGONAL_KINDS = ("diagonal-unitary", "diagonal-orthogonal")
SAMPLER_KINDS = (*DIAGONAL_KINDS, "haar-unitary")


@dataclass
class GroupSampler:
    """Seeded stream of unitaries from one of the supported groups.

    Two samplers with equal (kind, d, seed) emit identical streams, which is
    how correlated representations (same group element on several subsystems)
    are expressed.  ``conjugate=True`` emits the entrywise conjugate stream.
    """

    kind: str
    d: int
    seed: int
    conjugate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        self._rng = np.random.default_rng(self.seed)

    def conjugated(self) -> "GroupSampler":
        """Fresh sampler emitting the conjugates of this sampler's stream."""
        return GroupSampler(self.kind, self.d, self.seed, not self.conjugate)

    def draw(self) -> np.ndarray:
        if self.kind == "diagonal-unitary":
            phases = self._rng.uniform(0.0, 2.0 * np.pi, self.d)
            u = np.diag(np.exp(1j * phases))
        elif self.kind == "diagonal-orthogonal":
            signs = self._rng.integers(0, 2, self.d) * 2 - 1
            u = np.diag(signs.astype(complex))
        else:  # haar-unitary: QR of a complex Gaussian with phase-fixed diagonal
            z = self._rng.normal(size=(self.d, self.d)) + 1j * self._rng.normal(
                size=(self.d, self.d)
            )
            q, r = np.linalg.qr(z / np.sqrt(2.0))
            phases = np.diagonal(r) / np.abs(np.diagonal(r))
            u = q * phases
        return u.conj() if self.conjugate else u


@dataclass(frozen=True)
class CovarianceVerdict:
    """Maximum conjugation deviation over the sampled group elements."""

    max_deviation: float
    worst_sample: int
    samples: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tol

    def report(self) -> dict:
        return {
            "covariant": self.ok,
            "max_deviation": self.max_deviation,
            "worst_sample": self.worst_sample,
            "samples": self.samples,
        }


def _sampled_check(mat, samplers, combine, n, tol) -> CovarianceVerdict:
    """Worst deviation |W X W^dag - X| over n samples, W = combine(draws).

    Each sample draws one element from every sampler, in order.  When every
    sampler is diagonal, W is diagonal and conjugation only rephases each
    entry, (W X W^dag)_rc = w_r x_rc conj(w_c): combine is applied to the
    diagonals, the nonzero entries of X are gathered once, and a sample costs
    O(nnz).  A zero entry cannot deviate, so skipping it is exact.  Any other
    sampler makes W dense, and it is conjugated as a matrix.
    """
    if n < 1:  # a verdict over no samples would pass vacuously
        raise ValueError(f"the number of samples must be positive, got {n}")
    diagonal = all(s.kind in DIAGONAL_KINDS for s in samplers)
    if diagonal:
        rows, cols = np.nonzero(mat)
        x = mat[rows, cols]
    worst, worst_idx = 0.0, 0
    for k in range(n):
        draws = [s.draw() for s in samplers]
        if diagonal:
            w = combine(*(np.diagonal(u) for u in draws))
            dev = float(np.abs(w[rows] * x * w[cols].conj() - x).max(initial=0.0))
        else:
            w = combine(*draws)
            dev = float(np.abs(w @ mat @ w.conj().T - mat).max())
        if dev > worst:
            worst, worst_idx = dev, k
    return CovarianceVerdict(worst, worst_idx, n, tol)


def channel_covariance_check(
    ch: ChoiChannel,
    u_sampler: GroupSampler,
    v_sampler: GroupSampler,
    n: int = 50,
    tol: float = DEFAULT_TOL,
) -> CovarianceVerdict:
    """Test invariance of the channel Choi under conj(U) (x) V conjugation.

    U and V are drawn in lockstep from the two samplers; construct them with
    the same seed to realize two representations of the same group element.
    Diagonal groups rephase the Choi's nonzero entries, Haar groups conjugate
    it densely (see _sampled_check).
    """
    if u_sampler.d != ch.d_in or v_sampler.d != ch.d_out:
        raise ValueError("sampler dimensions do not match the channel")
    return _sampled_check(
        ch.choi.mat, (u_sampler, v_sampler), lambda u, v: np.kron(u.conj(), v), n, tol
    )


def superchannel_covariance_check(
    s: SuperChoi,
    samplers,
    n: int = 50,
    tol: float = DEFAULT_TOL,
) -> CovarianceVerdict:
    """Test invariance of a superchannel Choi under the four-fold conjugation
    U (x) conj(V) (x) conj(U') (x) V' with (U, V, U', V') drawn per sample.

    Diagonal groups rephase the Choi's nonzero entries, Haar groups conjugate
    it densely (see _sampled_check).
    """
    u, v, up, vp = samplers
    dims = (u.d, v.d, up.d, vp.d)
    if dims != (s.dA0, s.dA1, s.dB0, s.dB1):
        raise ValueError(f"sampler dims {dims} do not match {s.choi.dims}")

    def combine(u, v, up, vp):
        return np.kron(np.kron(u, v.conj()), np.kron(up.conj(), vp))

    return _sampled_check(s.choi.mat, samplers, combine, n, tol)


def covariance_sampler_tuple(group: str, d: int, seed: int = 0):
    """Canonical (U, V, U', V') sampler tuples for the named symmetry groups.

    du / do: all four diagonal, with U' = U and V' = V.
    haar: U' = U, V' = V (identity/depolarizing mixtures).
    conj-haar: U' = conj(U), V' = conj(V) (transpose/depolarizing mixtures).
    mixed: U' = U, V' = conj(V) (identity on the input pair, transpose on the
    output pair).
    """
    if group in ("du", "do"):
        kind = "diagonal-unitary" if group == "du" else "diagonal-orthogonal"
    elif group in ("haar", "conj-haar", "mixed"):
        kind = "haar-unitary"
    else:
        raise ValueError(f"unknown covariance group {group!r}")

    def fresh(offset: int, conj: bool) -> GroupSampler:
        return GroupSampler(kind, d, seed + offset, conjugate=conj)

    conj_u = group == "conj-haar"
    conj_v = group in ("conj-haar", "mixed")
    return (fresh(0, False), fresh(1, False), fresh(0, conj_u), fresh(1, conj_v))


# ---------------------------------------------------------------------------
# Fully unitary-covariant superchannel families
# ---------------------------------------------------------------------------

UU_VARIANTS = ("covariant", "conjugate", "mixed")


@dataclass(frozen=True)
class UUFamilyParams:
    """Mixing weights of a four-component unitary-covariant superchannel.

    The representing map is a weighted sum of tensor products of identity,
    depolarizing and transpose factors; the variant selects which.  The
    weights must sum to 1 (trace-preservation normalization, enforced here).
    """

    variant: str
    p0: float
    p1: float
    p2: float
    p3: float
    d: int

    def __post_init__(self) -> None:
        if self.variant not in UU_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not np.isfinite(self.p).all():
            raise ValueError("weights must be finite")
        if abs(self.p0 + self.p1 + self.p2 + self.p3 - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @property
    def p(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3])


def _pair_factors(variant: str, d: int):
    """The (A0->B0, A1->B1) Choi factors of the four components."""
    p_plus = max_entangled_projector(d).mat
    eye = np.eye(d * d, dtype=complex) / d
    swap = swap_operator(d).mat
    if variant == "covariant":  # id(x)id, id(x)D, D(x)id, D(x)D
        return [(p_plus, p_plus), (p_plus, eye), (eye, p_plus), (eye, eye)]
    if variant == "conjugate":  # T(x)T, T(x)D, D(x)T, D(x)D
        return [(swap, swap), (swap, eye), (eye, swap), (eye, eye)]
    # mixed: id(x)T, id(x)D, D(x)T, D(x)D
    return [(p_plus, swap), (p_plus, eye), (eye, swap), (eye, eye)]


@lru_cache(maxsize=None)
def _component_chois(variant: str, d: int) -> tuple[np.ndarray, ...]:
    """Choi matrices of the four components on (A0, A1, B0, B1), cached."""
    out = []
    for c0, c1 in _pair_factors(variant, d):
        prod = np.kron(c0, c1).reshape((d,) * 8)  # (A0, B0, A1, B1) refined
        arranged = prod.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d**4, d**4)
        arranged.setflags(write=False)
        out.append(arranged)
    return tuple(out)


def uu_superchannel(params: UUFamilyParams) -> SuperChoi:
    """Assemble the Choi matrix of the selected four-component mixture."""
    d = params.d
    components = _component_chois(params.variant, d)
    acc = sum(w * c for w, c in zip(params.p, components))
    return super_choi(acc, (d, d, d, d))


def uu_cp_closed_form(params: UUFamilyParams, tol: float = DEFAULT_TOL) -> bool:
    """Closed-form complete-positivity test for each variant's weight region."""
    p0, p1, p2, p3 = params.p
    d2 = float(params.d**2)
    d = float(params.d)
    if params.variant == "covariant":
        vals = (p3, p1 + p3 / d2, p2 + p3 / d2, p0 * d2 + p1 + p2 + p3 / d2)
    elif params.variant == "conjugate":
        vals = (
            p3 / d2 + p0 - abs(p1 + p2) / d,
            p3 / d2 - p0 - abs(p1 - p2) / d,
        )
    else:  # mixed
        vals = (p3 - d * abs(p2), d * p1 + p3 / d - abs(d2 * p0 + p2))
    return all(v >= -tol for v in vals)


def uu_closed_form_action(params: UUFamilyParams, ch: ChoiChannel) -> ChoiChannel:
    """Channel-level evaluation of the mixture by explicit composition.

    Must agree with representing_apply on the assembled Choi; the two routes
    are kept independent on purpose.
    """
    d = params.d
    if (ch.d_in, ch.d_out) != (d, d):
        raise ValueError(f"channel dims do not match d={d}")
    dep = depolarizing(d)
    trans = transpose_map(d)
    if params.variant == "covariant":
        terms = [
            ch,
            compose_channels(dep, ch),
            compose_channels(ch, dep),
            compose_channels(dep, compose_channels(ch, dep)),
        ]
    elif params.variant == "conjugate":
        sandwich_t = compose_channels(trans, compose_channels(ch, trans))
        terms = [
            sandwich_t,
            compose_channels(dep, compose_channels(ch, trans)),
            compose_channels(trans, compose_channels(ch, dep)),
            compose_channels(dep, compose_channels(ch, dep)),
        ]
    else:  # mixed
        terms = [
            compose_channels(trans, ch),
            compose_channels(dep, ch),
            compose_channels(trans, compose_channels(ch, dep)),
            compose_channels(dep, compose_channels(ch, dep)),
        ]
    acc = sum(w * t.choi.mat for w, t in zip(params.p, terms))
    return choi_channel(acc, d, d)


def holevo_werner_superchannel_params(d: int) -> UUFamilyParams:
    """Weights of the extreme conjugate-covariant superchannel."""
    denom = d * d - 1.0
    return UUFamilyParams("conjugate", -1.0 / denom, 0.0, 0.0, d * d / denom, d)


def holevo_werner_superchannel(d: int) -> SuperChoi:
    return uu_superchannel(holevo_werner_superchannel_params(d))


def uu_induced_map(params: UUFamilyParams) -> ChoiChannel:
    """The map the mixture induces on input marginals (identity-or-transpose
    with weight p0+p1, depolarizing with weight p2+p3)."""
    d = params.d
    first = transpose_map(d) if params.variant == "conjugate" else identity_channel(d)
    acc = (params.p0 + params.p1) * first.choi.mat + (
        params.p2 + params.p3
    ) * depolarizing(d).choi.mat
    return choi_channel(acc, d, d)
