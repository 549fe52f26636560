"""Jacobi polynomials on the simplex and the symmetric group acting on them.

The simplex in d variables carries the normalized measure with density
proportional to x_1^k1 ... x_d^kd (1-|x|)^k_{d+1}; parameters are the
(d+1)-tuple kappa.  Monomial moments are products of Pochhammer symbols,
so all inner products here are exact rationals.

jacobi_simplex_basis is the rational definition of the basis.  Beside it,
leading_core builds the top-degree part of a basis polynomial, or of its
permuted image, in Python integers with kappa over the lcm of its
denominators; leading_form and the Gram oracle read it.  norm_A is one
rational made from integer Pochhammer products in the same way.
"""

import itertools
import re
from math import comb, factorial
from operator import add

from .backend import R, ZERO, ONE
from .exact_arith import over_lcm, pochhammer, rising
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


def scaled_kappa(kappa, name="kappa"):
    """(K, D): kappa over D, the lcm of its denominators; ValueError unless d >= 1 and every K_i > -D.

    Outside this domain (kappa_i > -1) the weight is not integrable and no
    orthogonal basis exists, though the product formulas may still return
    numbers.
    """
    K, D = over_lcm([R(k) for k in kappa])
    if len(K) < 2 or any(k <= -D for k in K):
        raise ValueError(f"{name} needs at least 2 entries, each > -1")
    return K, D


def check_kappa(kappa, name="kappa"):
    """kappa as a tuple of rationals, with scaled_kappa's domain check."""
    K, D = scaled_kappa(kappa, name)
    return tuple(R(k, D) for k in K)


def jacobi_simplex_basis(nu, kappa):
    """Orthogonal basis polynomial for multi-index nu on the simplex.

    prod_j hom_j^{nu_j} P_{nu_j}^{(a_j, kappa_j)}(2 x_j / hom_j - 1), with
    hom_j = 1 - x_1 - ... - x_{j-1}.
    """
    d = len(nu)
    if len(kappa) != d + 1:
        raise ValueError("kappa must have d+1 entries")
    aj = a_coeffs(nu, kappa)
    result = SparsePoly.constant(d, ONE)
    hom = SparsePoly.constant(d, ONE)
    for j in range(d):
        x = SparsePoly.variable(d, j)
        coeffs = jacobi_1d(nu[j], aj[j], R(kappa[j]))
        result = result * substitute_homogeneous(coeffs, x, hom, nu[j])
        hom = hom - x
    return result


def _int_mul(p, q):
    """Product of two polynomials held as {exponent tuple: int}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def leading_core(nu, K, D, tau=None):
    """(terms, den): the leading form of P_nu^kappa, or of tau.P_nu^kappa, as {exponent: int} over den.

    kappa = K / D with integers K.  Factor j of the basis is
    hom_j^{n} P_n^{(a_j, kappa_j)}(2 x_j / hom_j - 1), n = nu_j, whose top part
    keeps only the linear parts: x_j, and -x_1 - ... - x_{j-1} for hom_j.  Its
    Jacobi coefficient of x_j^k is
    (-1)^{n+k} C(n, k) (n+a_j+kappa_j+1)_k (kappa_j+k+1)_{n-k} / n!, and with
    D a_j = A_j an integer each Pochhammer symbol is a rising product over
    step D divided by D^k or D^{n-k}.  So the form is an integer polynomial
    over den = prod_j nu_j! D^{|nu|}.  Acting by tau on the top part puts
    the linear part of each barycentric slot, x_i or -|x| for the last one,
    in place of x_i.
    """
    d = len(nu)
    if tau is not None and tau.m != d + 1:
        raise ValueError("permutation must act on d+1 slots")
    if len(K) != d + 1:
        raise ValueError("kappa must have d+1 entries")
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    slots = [{e: 1} for e in units] + [dict.fromkeys(units, -1)]
    xs = slots[:d] if tau is None else [slots[tau(i + 1) - 1] for i in range(d)]
    one = {(0,) * d: 1}
    terms, den, hom = one, 1, {}
    tail_k, tail_n = sum(K), sum(nu)
    for j, (n, b, x) in enumerate(zip(nu, K, xs)):
        tail_k -= b
        tail_n -= n
        top = tail_k + (2 * tail_n + d - j + n) * D + b  # D (n + a_j + kappa_j + 1)
        hom_pows = [one]
        for _ in range(n):
            hom_pows.append(_int_mul(hom_pows[-1], hom))
        factor, x_pow = {}, one
        for k in range(n + 1):
            c = comb(n, k) * rising(top, k, D) * rising(b + (k + 1) * D, n - k, D)
            if (n + k) % 2:
                c = -c
            for e, v in _int_mul(x_pow, hom_pows[n - k]).items():
                factor[e] = factor.get(e, 0) + c * v
            x_pow = _int_mul(x_pow, x)
        terms = _int_mul(terms, factor)
        den *= factorial(n) * D**n
        hom = dict(hom)
        for e, v in x.items():
            hom[e] = hom.get(e, 0) - v
    return {e: c for e, c in terms.items() if c}, den


def leading_form(nu, kappa, tau=None):
    """Degree-|nu| part of jacobi_simplex_basis(nu, kappa), or of its tau.act_vars image.

    Each factor of the product has degree at most nu_j, so the top part is the
    product of the top parts, which leading_core builds in integers.
    """
    K, D = over_lcm([R(k) for k in kappa])
    terms, den = leading_core(nu, K, D, tau)
    return SparsePoly(len(nu), {e: R(c, den) for e, c in terms.items()})


def norm_A(nu, kappa):
    """Squared norm of the basis polynomial under the normalized measure.

    prod_j (k_j+a_j+n_j+1)_{n_j} (k_j+1)_{n_j} (a_j+1)_{n_j} / n_j! over
    (lambda)_{2|nu|}, with k = kappa, n = nu and lambda = |kappa| + d + 1.  The
    first symbol is (k_j+a_j+1)_{2 n_j} / (k_j+a_j+1)_{n_j}, written so that
    k_j + a_j + 1 = 0 gives no 0/0.  With kappa = K / D each symbol is a
    rising product over step D, and the D powers cancel to D^{|nu|} in the
    denominator.
    """
    d = len(nu)
    K, D = over_lcm([R(k) for k in kappa])
    num, den = 1, rising(sum(K) + (d + 1) * D, 2 * sum(nu), D) * D ** sum(nu)
    for j in range(d):
        k, n = K[j], nu[j]
        a = sum(K[j + 1:]) + (2 * sum(nu[j + 1:]) + d - j - 1) * D  # D a_j
        num *= rising(k + a + (n + 1) * D, n, D) * rising(k + D, n, D) * rising(a + D, n, D)
        den *= factorial(n)
    return R(num, den)


def enumerate_basis(d, n):
    """All multi-indices of length d and total degree n, in grevlex order.

    Grevlex compares the last part first, so the list is built by recursing
    on it: last part 0, 1, ..., n, each followed by the shorter indices.
    """
    if d == 0:
        return [()] if n == 0 else []
    return [nu + (last,) for last in range(n + 1) for nu in enumerate_basis(d - 1, n - last)]
