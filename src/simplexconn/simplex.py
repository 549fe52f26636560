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
suffix product once.  The product keys each monomial x^e of degree <= n by
the packed integer sum_i e_i b^i, b = max(n, 1) + 1, which no exponent
overflows: a monomial product is one integer addition, and a Horner step
by a bare variable is a shift of the keys.  Setting the constant 1 of
every barycentric coordinate to 0 in that product gives the top-degree
parts, leading_cores, which writes them as dense integer rows in basis
order for the Gram oracle, one basis per call.
jacobi_1d, a_coeffs and jacobi_simplex_basis are their rational views
(jacobi_simplex_basis reads the packed keys back as exponent tuples; the
rational leading form is a test oracle), and norm_A and
simplex_moment are each one rational of integer rising products, computed
where read and held by nobody.
Permutation.act_params is the package's one action on tuples.

The kappa domain is kappa_i > -1, where the weight is integrable.  A
formula function (a basis, value, norm or moment, of every family)
evaluates wherever its formula is defined; every function that builds or
normalizes a connection matrix or a closed coefficient checks kappa with
scaled_kappa, or check_kappa where it reads no kappa, and raises
ValueError outside the domain.
"""

import itertools
import re
from math import comb, factorial
from operator import add

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
    ValueError unless gamma has len(kappa) - 1 or len(kappa) parts.
    """
    K, D = over_lcm([R(k) for k in kappa])
    if len(gamma) not in (len(K) - 1, len(K)):
        raise ValueError(f"gamma has {len(gamma)} parts and kappa {len(K)} entries; "
                         "a moment needs len(kappa) - 1 or len(kappa) parts")
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


_DOMAIN = "{} needs at least 2 entries, each > -1"


def scaled_kappa(kappa, name="kappa"):
    """(K, D): kappa over D, the lcm of its denominators; ValueError unless d >= 1 and every K_i > -D.

    Outside this domain (kappa_i > -1) the weight is not integrable and no
    orthogonal basis exists, though the product formulas may still return
    numbers.
    """
    K, D = over_lcm([R(k) for k in kappa])
    if len(K) < 2 or min(K) <= -D:
        raise ValueError(_DOMAIN.format(name))
    return K, D


def check_kappa(kappa, name="kappa"):
    """scaled_kappa's checks without its lcm, for a caller that reads no kappa: the same ValueError and TypeError."""
    pairs = [R(k).as_integer_ratio() for k in kappa]
    if len(pairs) < 2 or any(p <= -q for p, q in pairs):
        raise ValueError(_DOMAIN.format(name))


def check_degree(n):
    """ValueError unless the degree n is >= 0."""
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")


def jacobi_simplex_basis(nu, kappa):
    """Orthogonal basis polynomial for multi-index nu on the simplex.

    prod_j hom_j^{nu_j} P_{nu_j}^{(a_j, kappa_j)}(2 x_j / hom_j - 1), with
    hom_j = 1 - x_1 - ... - x_{j-1}: the rational view of _product_cores,
    its packed keys read back as exponent tuples.
    """
    K, D = over_lcm([R(k) for k in kappa])
    [(terms, den)] = _product_cores([nu], K, D, None, 1)
    d, n = len(nu), sum(nu)
    b = _base(n)
    exponents = {_pack(e, b): e for m in range(n + 1) for e in enumerate_basis(d, m)}
    return SparsePoly(d, {exponents[key]: R(c, den) for key, c in terms.items()})


def _base(n):
    """The base b = max(n, 1) + 1 of the packed keys of forms of degree <= n.

    x^e is keyed by the integer sum_i e_i b^i.  Every exponent of such a form
    is at most n < b, so the digits never carry, a monomial product is one
    integer addition, and x^e x_i adds b^i; b >= 2 gives the d variables
    distinct keys at n = 0 too.
    """
    return max(n, 1) + 1


def _pack(e, b):
    """The packed key sum_i e_i b^i of x^e, by Horner's rule from the last exponent."""
    key = 0
    for v in reversed(e):
        key = key * b + v
    return key


def _product_cores(order, K, D, tau, one):
    """[(terms, den) for nu in order]: the basis product, as {packed key: int} over den, at kappa = K / D.

    The keys are _pack's at base _base(n), n the largest |nu| of order.
    Factor j is hom_j^n P_n^{(a_j, kappa_j)}(2 x_j / hom_j - 1), n = nu_j, that
    is sum_k c_k x_j^k hom_j^{n-k} for jacobi_core's c_k over n! D^n.  The
    barycentric slots are x_1, ..., x_d and one - |x|, tau puts slot tau(i)
    in place of x_i, and hom_j = one - (slots in places 1, ..., j-1).  With
    one = 1 this is P_nu^kappa, or tau.P_nu^kappa.  With one = 0 each slot
    keeps only its linear part, which gives the degree-|nu| part: each factor
    has degree nu_j, so the top part is the product of the top parts.

    The factor is summed by Horner's rule, F <- F x_j + c_k hom_j^{n-k}.  A
    slot x_i in place j is bare, so F x_j shifts each key by b^(i-1) and
    makes no product; only slot d + 1 is multiplied out.  That is every
    factor of the untransformed basis, and of tau.P_nu each factor but the
    one, if any, in the place that tau gives slot d + 1.  At one = 0,
    hom_1 = 0, so factor 1's steps multiply by no hom_1.

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
    b = _base(max(map(sum, order), default=0))
    units = [b**i for i in range(d)]
    hom = {0: 1} if one else {}
    # a bare slot is its key; slot d + 1 is the form one - |x|
    last = {**hom, **dict.fromkeys(units, -1)}
    slots = units + [last]
    xs = slots[:d] if tau is None else tau.act_params(slots)[:d]
    homs = []
    for x in xs:
        homs.append(hom)
        hom = dict(hom)
        for e, v in (last.items() if x is last else [(x, 1)]):
            hom[e] = hom.get(e, 0) - v
        hom = {e: v for e, v in hom.items() if v}
    factors = {}
    products = {(): ({0: 1}, 1)}

    def factor(j, n, tail):
        key = (j, n, tail)
        if key not in factors:
            coeffs, q = jacobi_core(n, a_core(K, D, j + 1, tail), K[j], D)
            x = xs[j]
            terms, h = {0: coeffs[n]}, {0: 1}
            for c in reversed(coeffs[:n]):
                h = mul_terms(h, homs[j], add) if homs[j] else {}
                terms = mul_terms(terms, last, add) if x is last else {e + x: v for e, v in terms.items()}
                for e, v in h.items():
                    terms[e] = terms.get(e, 0) + c * v
            factors[key] = {e: v for e, v in terms.items() if v}, q
        return factors[key]

    def product(suffix):
        found = products.get(suffix)
        if found is None:
            rest = suffix[1:]
            terms, den = product(rest)
            if suffix[0]:
                tail = sum(rest)
                f, q = factor(d - len(suffix), suffix[0], tail)
                terms, den = (mul_terms(f, terms, add) if tail else f), q * den
            found = products[suffix] = terms, den
        return found

    return [product(tuple(nu)) for nu in order]


def leading_cores(order, K, D, tau=None):
    """[(row, den) for nu in order]: the leading forms of P_nu^kappa or tau.P_nu^kappa at kappa = K / D.

    order holds each multi-index of one degree n once, as enumerate_basis(d, n)
    does, and each form is _product_cores at one = 0 written out as a fresh
    dense row: the integer coefficients of x^gamma for gamma in order, over
    den, placed through a map from packed key to row index.  ValueError
    unless order is such a list.
    """
    n = sum(order[0]) if order else 0
    b = _base(n)
    index = {_pack(gamma, b): i for i, gamma in enumerate(order)}
    if len(index) != len(order) or len(order) != comb(n + len(K) - 2, n) or any(sum(nu) != n for nu in order):
        raise ValueError(f"order must hold each multi-index of degree {n} once")
    rows = []
    for terms, den in _product_cores(order, K, D, tau, 0):
        row = [0] * len(order)
        for key, v in terms.items():
            row[index[key]] = v
        rows.append((row, den))
    return rows


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
    """All multi-indices of length d and total degree n, in grevlex order, as a new list.

    Grevlex compares the last part first, so the indices of length l and
    degree m are those of length l - 1 and degree m - last, for last part
    0, 1, ..., m in turn.  The lists are built level by level, each
    length's lists of every degree <= n once from the previous length's,
    with no recursion; only degree n is built at length d.  [()] at
    (d, n) = (0, 0), and [] at d = 0 with n != 0 and at n < 0.
    """
    if d == 0:
        return [()] if n == 0 else []
    levels = [[()]] + [[] for _ in range(n)]
    for _ in range(d - 1):
        levels = [[nu + (last,) for last in range(m + 1) for nu in levels[m - last]] for m in range(n + 1)]
    return [nu + (last,) for last in range(n + 1) for nu in levels[n - last]]
