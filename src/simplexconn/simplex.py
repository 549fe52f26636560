"""Jacobi polynomials on the simplex and the symmetric group acting on them.

The simplex in d variables carries the normalized measure with density
proportional to x_1^k1 ... x_d^kd (1-|x|)^k_{d+1}; parameters are the
(d+1)-tuple kappa.  Monomial moments are products of Pochhammer symbols,
so all inner products here are exact rationals.
"""

import itertools
import re

from .backend import R, ZERO, ONE
from .exact_arith import pochhammer
from .multipoly import SparsePoly, substitute_homogeneous

_TOKEN = re.compile(r"\d+")
_CYCLE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """Permutation of {1, ..., m}, stored as the tuple of images."""

    __slots__ = ("img",)

    def __init__(self, img):
        self.img = tuple(img)
        if sorted(self.img) != list(range(1, len(self.img) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.img)}: {img}")

    @classmethod
    def identity(cls, m):
        return cls(range(1, m + 1))

    @classmethod
    def from_cycles(cls, text, m):
        """Parse cycle notation like "(12)", "(1 3)(2 4)", "e" or "()"."""
        text = text.strip()
        img = list(range(1, m + 1))
        if text in ("e", "id", "()", "1", ""):
            return cls(img)
        if _CYCLE.sub("", text).strip():
            raise ValueError(f"bad cycle notation: {text!r}")
        for cyc in _CYCLE.findall(text):
            if "," in cyc or " " in cyc:
                entries = [int(t) for t in _TOKEN.findall(cyc)]
            else:
                entries = [int(ch) for ch in cyc.strip()]
            if not entries:
                continue
            if any(e < 1 or e > m for e in entries):
                raise ValueError(f"cycle entry out of range 1..{m}: {cyc}")
            if len(set(entries)) != len(entries):
                raise ValueError(f"repeated entry in cycle: {cyc}")
            # compose this cycle on the left of what we have so far
            cyc_map = {entries[i]: entries[(i + 1) % len(entries)] for i in range(len(entries))}
            img = [cyc_map.get(v, v) for v in img]
        return cls(img)

    @property
    def m(self):
        return len(self.img)

    def __call__(self, i):
        return self.img[i - 1]

    def __mul__(self, other):
        """Composition self * other: apply other first, then self."""
        if self.m != other.m:
            raise ValueError("size mismatch")
        return Permutation(self.img[other.img[i] - 1] for i in range(self.m))

    def reduced_word(self):
        """Indices a_1, ..., a_k with self = s_{a_1} * ... * s_{a_k}, s_a = (a, a+1).

        Found by bubble sort, so k is the number of inversions of self.  The
        scan runs right to left, bubbling the smallest image to the front, so
        the word leans on high letters: among all reduced words it minimizes
        sum(m - 1 - a_i).  In the connection engine s_{m-1} is a free signed
        diagonal and each lower letter costs a block of 4F3 entries, so
        (13) in S_3 is spelled s_2 s_1 s_2 (one block), not s_1 s_2 s_1 (two).
        """
        img = list(self.img)
        swaps = []
        for start in range(1, len(img)):
            for a in range(len(img) - 1, start - 1, -1):
                if img[a - 1] > img[a]:
                    # img becomes the images of self * s_a
                    img[a - 1], img[a] = img[a], img[a - 1]
                    swaps.append(a)
        return tuple(reversed(swaps))

    def inverse(self):
        inv = [0] * self.m
        for i, v in enumerate(self.img):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def is_identity(self):
        return all(self.img[i] == i + 1 for i in range(self.m))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def cycles(self):
        seen = set()
        out = []
        for start in range(1, self.m + 1):
            if start in seen or self(start) == start:
                seen.add(start)
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + "".join(str(v) for v in c) + ")" for c in cycs)

    def act_params(self, kappa):
        """Permuted parameter tuple: entry i becomes kappa[tau(i)]."""
        if len(kappa) != self.m:
            raise ValueError("parameter length mismatch")
        return tuple(kappa[self(i) - 1] for i in range(1, self.m + 1))

    def act_vars(self, poly):
        """Permute the barycentric variables (x_1,...,x_d, 1-|x|) of poly."""
        d = poly.d
        if self.m != d + 1:
            raise ValueError("permutation must act on d+1 slots")
        last = SparsePoly.constant(d, ONE)
        for i in range(d):
            last = last - SparsePoly.variable(d, i)
        xs = [SparsePoly.variable(d, i) for i in range(d)] + [last]
        return poly.subst([xs[self(i + 1) - 1] for i in range(d)])


def all_permutations(m):
    return [Permutation(img) for img in itertools.permutations(range(1, m + 1))]


def jacobi_1d(n, a, b):
    """Coefficient list (ascending in z) of the Jacobi polynomial P_n^{(a,b)}(2z - 1).

    Normalization: P_n^{(a,b)}(1) = (a+1)_n / n!, so the coefficients sum to it.
    """
    a = R(a)
    b = R(b)
    # (-1)^n (b+1)_n/n! sum_k (-n)_k (n+a+b+1)_k / ((b+1)_k k!) z^k
    term = pochhammer(b + 1, n) / pochhammer(ONE, n)
    if n % 2:
        term = -term
    coeffs = [term]
    for k in range(1, n + 1):
        term = term * (k - 1 - n) * (n + a + b + k) / ((b + k) * k)
        coeffs.append(term)
    return coeffs


def simplex_moment(gamma, kappa):
    """Normalized moment of the monomial x^gamma; gamma may have d or d+1 parts."""
    d = len(kappa) - 1
    if len(gamma) == d:
        gamma = tuple(gamma) + (0,)
    s = sum(gamma)
    val = ONE
    for ki, gi in zip(kappa, gamma):
        val *= pochhammer(R(ki) + 1, gi)
    total = sum((R(k) for k in kappa), ZERO) + d + 1
    return val / pochhammer(total, s)


_MOMENT_CACHE = {}


def _moment_cached(gamma, kappa):
    key = (gamma, kappa)
    v = _MOMENT_CACHE.get(key)
    if v is None:
        v = simplex_moment(gamma, kappa)
        _MOMENT_CACHE[key] = v
    return v


def inner_product_simplex(f, g, kappa):
    """Exact inner product of two polynomials w.r.t. the normalized measure."""
    kappa = tuple(R(k) for k in kappa)
    h = f * g
    total = ZERO
    for gamma, c in h.terms.items():
        total += c * _moment_cached(gamma, kappa)
    return total


def a_coeffs(nu, kappa):
    """Auxiliary parameters a_j = |kappa^{j+1}| + 2|nu^{j+1}| + d - j."""
    d = len(nu)
    out = []
    for j in range(1, d + 1):
        tail_k = sum((R(k) for k in kappa[j:]), ZERO)
        tail_n = sum(nu[j:])
        out.append(tail_k + 2 * tail_n + d - j)
    return out


def check_kappa(kappa, name="kappa"):
    """kappa as a tuple of rationals; ValueError unless d >= 1 and every kappa_i > -1.

    Outside this domain the weight is not integrable and no orthogonal basis
    exists, though the product formulas may still return numbers.
    """
    kappa = tuple(R(k) for k in kappa)
    if len(kappa) < 2 or any(k <= -1 for k in kappa):
        raise ValueError(f"{name} needs at least 2 entries, each > -1")
    return kappa


def _product_form(nu, kappa, xs, one):
    """prod_j hom_j^{nu_j} P_{nu_j}^{(a_j, kappa_j)}(2 xs_j / hom_j - 1), with
    hom_j = one - xs_1 - ... - xs_{j-1}."""
    d = len(nu)
    if len(kappa) != d + 1:
        raise ValueError("kappa must have d+1 entries")
    aj = a_coeffs(nu, kappa)
    result = SparsePoly.constant(d, ONE)
    hom = SparsePoly.constant(d, one)
    for j in range(d):
        coeffs = jacobi_1d(nu[j], aj[j], R(kappa[j]))
        result = result * substitute_homogeneous(coeffs, xs[j], hom, nu[j])
        hom = hom - xs[j]
    return result


def jacobi_simplex_basis(nu, kappa):
    """Orthogonal basis polynomial for multi-index nu on the simplex."""
    d = len(nu)
    return _product_form(nu, kappa, [SparsePoly.variable(d, i) for i in range(d)], ONE)


def leading_form(nu, kappa, tau=None):
    """Degree-|nu| part of jacobi_simplex_basis(nu, kappa), or of its tau.act_vars image.

    Each factor of the product has degree at most nu_j, so the top part is the
    product of the top parts: the same loop with the constant 1 of
    hom = 1 - |x| replaced by 0.  Acting by tau on the top part substitutes the
    linear part of each barycentric slot, x_i or -|x| for the last one.
    """
    d = len(nu)
    xs = [SparsePoly.variable(d, i) for i in range(d)]
    if tau is not None:
        if tau.m != d + 1:
            raise ValueError("permutation must act on d+1 slots")
        slots = xs + [-sum(xs, SparsePoly.zero(d))]
        xs = [slots[tau(i + 1) - 1] for i in range(d)]
    return _product_form(nu, kappa, xs, ZERO)


def norm_A(nu, kappa):
    """Squared norm of the basis polynomial under the normalized measure."""
    d = len(nu)
    kappa = [R(k) for k in kappa]
    aj = a_coeffs(nu, kappa)
    total = sum(kappa, ZERO) + d + 1
    val = ONE / pochhammer(total, 2 * sum(nu))
    for j in range(d):
        k, a, n = kappa[j], aj[j], nu[j]
        # (k+a+1)_{2n} / (k+a+1)_n, written so that k + a + 1 = 0 gives no 0/0
        val *= pochhammer(k + a + n + 1, n) * pochhammer(k + 1, n) * pochhammer(a + 1, n) / pochhammer(ONE, n)
    return val


def enumerate_basis(d, n):
    """All multi-indices of length d and total degree n, in grevlex order.

    Grevlex compares the last part first, so the list is built by recursing
    on it: last part 0, 1, ..., n, each followed by the shorter indices.
    """
    if d == 0:
        return [()] if n == 0 else []
    return [nu + (last,) for last in range(n + 1) for nu in enumerate_basis(d - 1, n - last)]
