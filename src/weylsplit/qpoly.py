"""Exact quotients of (1 - q^k) products, and two shape tests.

Polynomials are lists of int coefficients, index = exponent.  Dynkin
polynomials and rank generating functions are quotients
prod(1 - q^c) / prod(1 - q^e).  ``quotient_rgf`` cancels the exponents both
sides share, then computes the quotient on a single int list of length
sum(c) + 1: the power series of the quotient, truncated past the
numerator's degree.  Multiplying by (1 - q^c) subtracts the series
shifted by c; dividing by (1 - q^e) = 1 + q^e + q^2e + ... is a prefix sum
with stride e.  Each step is linear in the degree.
"""

from collections import Counter
from itertools import accumulate

from .errors import BadQuotient


def is_palindromic(p):
    return list(p) == list(reversed(p))


def is_unimodal(p):
    rising = True
    for a, b in zip(p, p[1:]):
        if b > a and not rising:
            return False
        if b < a:
            rising = False
    return True


def quotient_rgf(num_exponents, den_exponents):
    """prod(1-q^c) / prod(1-q^e), exact; raises BadQuotient otherwise.

    Every exponent must be a plain int >= 1 (not bool, float or str), also
    under python -O.  The quotient is a polynomial exactly when the
    truncated series vanishes past sum(c) - sum(e): then it times the
    denominator agrees with the numerator up to and including their common
    degree sum(c).  Exponents shared by both sides, counted with
    multiplicity, cancel first: the quotient is the same, and so is its
    degree, on a shorter list.
    """
    num_exponents, den_exponents = list(num_exponents), list(den_exponents)
    if not all(type(c) is int and c >= 1 for c in num_exponents + den_exponents):
        raise BadQuotient("exponents must be positive plain ints")
    num, den = Counter(num_exponents), Counter(den_exponents)
    num_exponents, den_exponents = list((num - den).elements()), list((den - num).elements())
    top = sum(num_exponents)
    s = [1] + [0] * top
    for c in num_exponents:
        s[c:] = [x - y for x, y in zip(s[c:], s)]
    for e in den_exponents:
        for r in range(e):
            s[r::e] = accumulate(s[r::e])
    deg = top - sum(den_exponents)
    if deg < 0 or any(s[deg + 1:]):
        raise BadQuotient("inexact polynomial division")
    return s[:deg + 1]
