"""Sparse multivariate polynomials over exact rationals.

A polynomial is a dict mapping exponent tuples to nonzero rational
coefficients.  Keys are ordered graded-reverse-lexicographically for
serialization so output is deterministic.  mul_terms is the one product of
such dicts, told how two keys combine: SparsePoly adds exponent tuples, and
the integer basis product of simplex adds its packed integer keys.
"""

from operator import add

from .backend import R, ZERO, ONE, rat_str


class DimensionMismatch(ValueError):
    pass


def grevlex_key(exp):
    """Sort key: graded, then reverse-lexicographic within a degree."""
    return (sum(exp), tuple(reversed(exp)))


class SparsePoly:
    """Polynomial in d variables; immutable by convention."""

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = d
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if c != 0:
                    self.terms[tuple(exp)] = c

    @classmethod
    def zero(cls, d):
        return cls(d)

    @classmethod
    def constant(cls, d, c):
        return cls(d, {(0,) * d: R(c)})

    @classmethod
    def variable(cls, d, i):
        """x_{i+1} as a polynomial (0-based index i)."""
        exp = [0] * d
        exp[i] = 1
        return cls(d, {tuple(exp): ONE})

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def _check(self, other):
        if self.d != other.d:
            raise DimensionMismatch(f"{self.d} vs {other.d} variables")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, ZERO) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        p = SparsePoly(self.d)
        p.terms = out
        return p

    def __neg__(self):
        p = SparsePoly(self.d)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        p = SparsePoly(self.d)
        p.terms = mul_terms(self.terms, other.terms, _add_exponents)
        return p

    def scale(self, c):
        if c == 0:
            return SparsePoly(self.d)
        p = SparsePoly(self.d)
        p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.d == other.d and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def subst(self, replacements):
        """Substitute each variable x_i by the polynomial replacements[i]."""
        d_out = replacements[0].d
        result = SparsePoly(d_out)
        powers = [{0: SparsePoly.constant(d_out, 1)} for _ in range(self.d)]

        def pw(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = pw(i, e - 1) * replacements[i]
            return cache[e]

        for exp, c in self.terms.items():
            term = SparsePoly.constant(d_out, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * pw(i, e)
            result = result + term
        return result

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def leading(self):
        """(exponent, coefficient) of the grevlex-largest term; None if zero."""
        if not self.terms:
            return None
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def to_json(self):
        return {
            "d": self.d,
            "terms": [{"exp": list(e), "coef": rat_str(c)} for e, c in self.sorted_terms()],
        }

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{rat_str(c)}" + (f"*{mono}" if mono else ""))
        return "SparsePoly(" + " + ".join(bits) + ")"


def _add_exponents(e1, e2):
    """The exponent tuple of x^e1 x^e2."""
    return tuple(map(add, e1, e2))


def mul_terms(p, q, combine):
    """Product of two polynomials held as {monomial key: coefficient}, integer or rational; no zero is kept.

    combine(k1, k2) is the key of the product of the monomials keyed k1 and k2.
    """
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = combine(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def substitute_homogeneous(coeffs, lin, hom, n):
    """sum_k coeffs[k] * lin^k * hom^(n-k) for a degree-n coefficient list.

    Equals hom^n * f(lin/hom) wherever hom != 0, with f = sum coeffs[k] t^k:
    homogenize f to degree n in (y_1, y_2), then put y_1 = lin, y_2 = hom - lin.
    """
    if len(coeffs) > n + 1:
        raise ValueError("coefficient list longer than degree+1")
    f = SparsePoly(1, {(k,): c for k, c in enumerate(coeffs)})
    return homogenize(f, n).subst([lin, hom - lin])


def homogenize(p, m):
    """sum_g c_g y^(g, 0) (y_1 + ... + y_{d+1})^(m - |g|) for p = sum_g c_g x^g in d variables.

    The degree-m form in d+1 variables that equals p where y_{d+1} = 1 - |y|.
    """
    if p.degree() > m:
        raise ValueError(f"cannot homogenize a degree-{p.degree()} polynomial to degree {m}")
    d = p.d + 1
    allsum = sum((SparsePoly.variable(d, i) for i in range(d)), SparsePoly.zero(d))
    powers = [SparsePoly.constant(d, ONE)]
    for _ in range(m):
        powers.append(powers[-1] * allsum)
    result = SparsePoly(d)
    for g, c in p.terms.items():
        result = result + SparsePoly(d, {g + (0,): c}) * powers[m - sum(g)]
    return result
