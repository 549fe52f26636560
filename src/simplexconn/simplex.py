"""Jacobi polynomials on the simplex and the symmetric group acting on them.

The simplex in d variables carries the normalized measure with density
proportional to x_1^k1 ... x_d^kd (1-|x|)^k_{d+1}; parameters are the
(d+1)-tuple kappa.  Monomial moments are Dirichlet moments, products of
Pochhammer symbols, so all inner products here are exact rationals.

Each quantity of the basis has one definition in Python integers, with
kappa over the lcm D of its denominators: jacobi_core the one-variable
Jacobi coefficients, a_core D a_j, and one basis product that builds
P_nu^kappa, or tau.P_nu^kappa, as integers over one denominator, for a
whole list of nu in one call that builds each Jacobi factor and each
suffix product once.  Setting the constant 1 of every barycentric
coordinate to 0 in that product gives the top-degree parts, leading_cores,
which the Gram oracle reads one basis per call.
jacobi_1d, a_coeffs and jacobi_simplex_basis are their rational views
(the rational leading form is a test oracle), and norm_A and
simplex_moment are each one rational of integer rising products, computed
where read and held by nobody.
Permutation.act_params is the package's one action on tuples.

The kappa domain is kappa_i > -1, where the weight is integrable.  A
formula function (a basis, value, norm or moment, of every family)
evaluates wherever its formula is defined; every function that builds or
normalizes a connection matrix or a closed coefficient checks kappa with
scaled_kappa and raises ValueError outside the domain.
"""

import itertools
import re
from math import comb, factorial

from .backend import R, ZERO, ONE
from .exact_arith import over_lcm, rising
from .multipoly import SparsePoly, mul_terms

_TOKEN = re.compile(r"\d+")
_CYCLE = re.compile(r"\(([\d ,]*)\)")


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
        """Parse cycle notation like "(12)", "(1 3)(2 4)", "e" or "()"; a cycle holds digits, spaces and commas only."""
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
                entries = [int(ch) for ch in cyc]
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
        return Permutation(other.act_params(self.img))

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
        return tuple(kappa[t - 1] for t in self.img)

    def act_vars(self, poly):
        """Permute the barycentric variables (x_1,...,x_d, 1-|x|) of poly."""
        d = poly.d
        if self.m != d + 1:
            raise ValueError("permutation must act on d+1 slots")
        last = SparsePoly.constant(d, ONE)
        for i in range(d):
            last = last - SparsePoly.variable(d, i)
        xs = [SparsePoly.variable(d, i) for i in range(d)] + [last]
        return poly.subst(self.act_params(xs)[:d])


def all_permutations(m):
    return [Permutation(img) for img in itertools.permutations(range(1, m + 1))]


def jacobi_core(n, A, B, D):
    """(coefficients, den): P_n^{(a,b)}(2z - 1) in z, ascending, as integers over n! D^n; a = A / D, b = B / D.

    The coefficient of z^k is (-1)^{n+k} C(n, k) (n+a+b+1)_k (b+k+1)_{n-k} / n!,
    and each Pochhammer symbol is a rising product over step D divided by
    D^k or D^{n-k}.  Each coefficient is a polynomial in a and b, so it has
    no pole: at b = -1, -2, ..., outside the domain, it is the limit.
    """
    top = A + B + (n + 1) * D  # D (n + a + b + 1)
    return [(-1) ** (n + k) * comb(n, k) * rising(top, k, D) * rising(B + (k + 1) * D, n - k, D)
            for k in range(n + 1)], factorial(n) * D**n


def jacobi_1d(n, a, b):
    """Coefficient list (ascending in z) of the Jacobi polynomial P_n^{(a,b)}(2z - 1).

    Normalization: P_n^{(a,b)}(1) = (a+1)_n / n!, so the coefficients sum to it.
    """
    (A, B), D = over_lcm([R(a), R(b)])
    coeffs, den = jacobi_core(n, A, B, D)
    return [R(c, den) for c in coeffs]


def simplex_moment(gamma, kappa):
    """Normalized moment prod_i (kappa_i+1)_{gamma_i} / (|kappa|+d+1)_{|gamma|} of x^gamma, gamma with d or d+1 parts.

    With kappa = K / D each symbol is a rising product over step D, and the D^{|gamma|} cancel.
    """
    K, D = over_lcm([R(k) for k in kappa])
    num = 1
    for k, g in zip(K, gamma):
        num *= rising(k + D, g, D)
    return R(num, rising(sum(K) + len(K) * D, sum(gamma), D))


# Never filled; kept because perfbench's reset_caches clears it by name before every timed operation.
_MOMENT_CACHE = {}


def inner_product_simplex(f, g, kappa):
    """Exact inner product of two polynomials w.r.t. the normalized measure: simplex_moment for each term of f g."""
    return sum((c * simplex_moment(gamma, kappa) for gamma, c in (f * g).terms.items()), ZERO)


def a_core(K, D, j, tail):
    """D a_j for kappa = K / D and |nu^{j+1}| = tail, with a_j = |kappa^{j+1}| + 2|nu^{j+1}| + d - j."""
    return sum(K[j:], (2 * tail + len(K) - 1 - j) * D)


def _check_kappa_length(nu, kappa):
    """ValueError unless kappa has len(nu) + 1 entries."""
    if len(kappa) != len(nu) + 1:
        raise ValueError(f"nu = {tuple(nu)} needs {len(nu) + 1} kappa entries, got {len(kappa)}")


def a_coeffs(nu, kappa):
    """Auxiliary parameters a_1, ..., a_d of the basis, the rational view of a_core; ValueError as norm_A."""
    _check_kappa_length(nu, kappa)
    K, D = over_lcm([R(k) for k in kappa])
    return [R(a_core(K, D, j, sum(nu[j:])), D) for j in range(1, len(nu) + 1)]


def scaled_kappa(kappa, name="kappa"):
    """(K, D): kappa over D, the lcm of its denominators; ValueError unless d >= 1 and every K_i > -D.

    Outside this domain (kappa_i > -1) the weight is not integrable and no
    orthogonal basis exists, though the product formulas may still return
    numbers.
    """
    K, D = over_lcm([R(k) for k in kappa])
    if len(K) < 2 or min(K) <= -D:
        raise ValueError(f"{name} needs at least 2 entries, each > -1")
    return K, D


def check_degree(n):
    """ValueError unless the degree n is >= 0."""
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")


def jacobi_simplex_basis(nu, kappa):
    """Orthogonal basis polynomial for multi-index nu on the simplex.

    prod_j hom_j^{nu_j} P_{nu_j}^{(a_j, kappa_j)}(2 x_j / hom_j - 1), with
    hom_j = 1 - x_1 - ... - x_{j-1}: the rational view of _product_cores.
    """
    K, D = over_lcm([R(k) for k in kappa])
    [(terms, den)] = _product_cores([nu], K, D, None, 1)
    return SparsePoly(len(nu), {e: R(c, den) for e, c in terms.items()})


def _product_cores(order, K, D, tau, one):
    """[(terms, den) for nu in order]: the basis product, as {exponent: int} over den, at kappa = K / D.

    Factor j is hom_j^n P_n^{(a_j, kappa_j)}(2 x_j / hom_j - 1), n = nu_j, that
    is sum_k c_k x_j^k hom_j^{n-k} for jacobi_core's c_k over n! D^n.  The
    barycentric slots are x_1, ..., x_d and one - |x|, tau puts slot tau(i)
    in place of x_i, and hom_j = one - (slots in places 1, ..., j-1).  With
    one = 1 this is P_nu^kappa, or tau.P_nu^kappa.  With one = 0 each slot
    keeps only its linear part, which gives the degree-|nu| part: each factor
    has degree nu_j, so the top part is the product of the top parts.

    Factor j depends on nu only through (nu_j, |nu^{j+1}|), and the product
    of factors j, ..., d only through the suffix (nu_j, ..., nu_d), so the
    slots and the hom_j are built once per call, each factor once per
    (j, nu_j, |nu^{j+1}|), and each suffix product once, multiplying from the
    last slot down.
    """
    d = len(K) - 1
    if tau is not None and tau.m != d + 1:
        raise ValueError("permutation must act on d+1 slots")
    if any(len(nu) != d for nu in order):
        raise ValueError("kappa must have d+1 entries")
    zero = (0,) * d
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    hom = {zero: 1} if one else {}
    slots = [{e: 1} for e in units] + [{**hom, **dict.fromkeys(units, -1)}]
    xs = slots[:d] if tau is None else tau.act_params(slots)[:d]
    homs = []
    for x in xs:
        homs.append(hom)
        hom = dict(hom)
        for e, v in x.items():
            hom[e] = hom.get(e, 0) - v
    factors = {}
    products = {(): ({zero: 1}, 1)}

    def factor(j, n, tail):
        key = (j, n, tail)
        if key not in factors:
            coeffs, q = jacobi_core(n, a_core(K, D, j + 1, tail), K[j], D)
            # Horner in x: F <- F x + c_k hom^{n-k}, from F = c_n down to k = 0
            terms, h = {zero: coeffs[n]}, {zero: 1}
            for c in reversed(coeffs[:n]):
                h = mul_terms(h, homs[j])
                terms = mul_terms(terms, xs[j])
                for e, v in h.items():
                    terms[e] = terms.get(e, 0) + c * v
            factors[key] = {e: v for e, v in terms.items() if v}, q
        return factors[key]

    def product(suffix):
        if suffix not in products:
            terms, den = product(suffix[1:])
            n, tail = suffix[0], sum(suffix[1:])
            if n:
                f, q = factor(d - len(suffix), n, tail)
                terms, den = (mul_terms(f, terms) if tail else f), q * den
            products[suffix] = terms, den
        return products[suffix]

    return [product(tuple(nu)) for nu in order]


def leading_cores(order, K, D, tau=None):
    """[(terms, den) for nu in order]: the leading forms of P_nu^kappa or tau.P_nu^kappa at kappa = K / D, _product_cores at one = 0."""
    return _product_cores(order, K, D, tau, 0)


def norm_A(nu, kappa):
    """Squared norm of the basis polynomial under the normalized measure.

    prod_j (k_j+a_j+n_j+1)_{n_j} (k_j+1)_{n_j} (a_j+1)_{n_j} / n_j! over
    (lambda)_{2|nu|}, with k = kappa, n = nu and lambda = |kappa| + d + 1.  The
    first symbol is (k_j+a_j+1)_{2 n_j} / (k_j+a_j+1)_{n_j}, written so that
    k_j + a_j + 1 = 0 gives no 0/0.  With kappa = K / D each symbol is a
    rising product over step D, and the D powers cancel to D^{|nu|} in the
    denominator.  ValueError unless kappa has len(nu) + 1 entries.
    """
    _check_kappa_length(nu, kappa)
    K, D = over_lcm([R(k) for k in kappa])
    num, den = 1, rising(sum(K) + len(K) * D, 2 * sum(nu), D) * D ** sum(nu)
    for j, (k, n) in enumerate(zip(K, nu), 1):
        a = a_core(K, D, j, sum(nu[j:]))
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
