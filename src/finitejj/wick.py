"""Normal ordering and vacuum expectations for a single bosonic mode.

Operators are polynomials in ladder-operator words: each word is a tuple of
``RAISE``/``LOWER`` symbols read left to right in operator order, and a
polynomial maps words to complex coefficients.  Normal ordering reads each
word once from left to right, commuting every raising symbol past the
lowering symbols before it (b^n b^dag = b^dag b^n + n b^(n-1)), so every word
ends with all raising symbols first; the identity (empty word) coefficient of
the normal form is then the vacuum expectation value.  Frame changes are the
caller's; the first-order transmon corrections that ``perturbation`` evaluates
in closed form were reduced from operators written in the quasiparticle mode.

The independent oracle acts with the ladder operators on Fock states instead
of counting commutators: ``fock_oracle`` walks each word from |0> in a Fock
space truncated at a given dimension, exact in any dimension above the word's
length.  The module loads no array code.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import TermBudgetError

RAISE = "+"
LOWER = "-"

Word = tuple[str, ...]

# Guard against runaway expansions (the cap counts words in one polynomial).
TERM_CAP = 200_000


def _check_budget(n_terms: int):
    if n_terms > TERM_CAP:
        raise TermBudgetError(f"expansion produced {n_terms} terms (cap {TERM_CAP})")


class OperatorPoly:
    """Sum of scalar-weighted ladder-operator words, closed under + and *."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, complex] | None = None):
        clean: dict[Word, complex] = {}
        if terms:
            for word, coeff in terms.items():
                c = complex(coeff)
                if c != 0:
                    clean[tuple(word)] = c
        _check_budget(len(clean))
        self._terms = clean

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "OperatorPoly":
        return cls({(): coeff})

    @classmethod
    def lowering(cls, coeff: complex = 1.0) -> "OperatorPoly":
        return cls({(LOWER,): coeff})

    @classmethod
    def raising(cls, coeff: complex = 1.0) -> "OperatorPoly":
        return cls({(RAISE,): coeff})

    @classmethod
    def from_word(cls, word: Word, coeff: complex = 1.0) -> "OperatorPoly":
        for sym in word:
            if sym not in (RAISE, LOWER):
                raise ValueError(f"unknown ladder symbol {sym!r}")
        return cls({tuple(word): coeff})

    def coefficient(self, word: Word) -> complex:
        return self._terms.get(tuple(word), 0j)

    def terms(self) -> list[tuple[Word, complex]]:
        """Terms in canonical order (by length, then symbol sequence)."""
        return sorted(self._terms.items(), key=lambda item: (len(item[0]), item[0]))

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            c = merged.get(word, 0j) + coeff
            if c == 0:
                merged.pop(word, None)
            else:
                merged[word] = c
        return OperatorPoly(merged)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return OperatorPoly({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return OperatorPoly()
            return OperatorPoly({w: c * other for w, c in self._terms.items()})
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        product: dict[Word, complex] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                c = product.get(word, 0j) + c1 * c2
                if c == 0:
                    product.pop(word, None)
                else:
                    product[word] = c
            _check_budget(len(product))
        return OperatorPoly(product)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0 or exponent != int(exponent):
            raise ValueError("exponent must be a non-negative integer")
        result = OperatorPoly.identity()
        for _ in range(int(exponent)):
            result = result * self
        return result

    def __repr__(self):
        return f"OperatorPoly({self._terms!r})"


def _as_poly(value) -> "OperatorPoly":
    if isinstance(value, OperatorPoly):
        return value
    if isinstance(value, (int, float, complex)):
        return OperatorPoly.identity(value)
    return NotImplemented


@lru_cache(maxsize=None)
def _normal_order_word(word: Word) -> tuple[tuple[Word, int], ...]:
    """Normal form of a single word as ((canonical word, integer count), ...).

    One left-to-right pass keeps the prefix's normal form as integer counts of
    b†^m b^n, keyed by (m, n).  Appending b gives b†^m b^(n+1); appending b†
    uses b^n b† = b† b^n + n b^(n-1).
    """
    form = {(0, 0): 1}
    for sym in word:
        if sym == LOWER:
            form = {(m, n + 1): count for (m, n), count in form.items()}
            continue
        grown: dict[tuple[int, int], int] = {}
        for (m, n), count in form.items():
            grown[m + 1, n] = grown.get((m + 1, n), 0) + count
            if n:
                grown[m, n - 1] = grown.get((m, n - 1), 0) + n * count
        form = grown
    return tuple(sorted(((RAISE,) * m + (LOWER,) * n, count) for (m, n), count in form.items()))


def vacuum_expectation(p: OperatorPoly) -> complex:
    """<0| p |0>: the identity coefficient after normal ordering.

    Summation runs in canonical term order through exact accumulation
    (math.fsum per component), so results are bitwise reproducible.
    """
    re_parts: list[float] = []
    im_parts: list[float] = []
    for word, coeff in p.terms():
        for canon, count in _normal_order_word(word):
            if not canon:
                re_parts.append(coeff.real * count)
                im_parts.append(coeff.imag * count)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def fock_oracle(p: OperatorPoly, dim: int) -> complex:
    """<0| p |0> in a Fock space truncated at ``dim`` states, by walking each word.

    Read right to left, a word maps |0> to a multiple of one Fock state: b at
    n = 0 and b† at n + 1 >= ``dim`` give 0, and otherwise b and b† step n by
    one with the square root of the higher level.  A walk back to |0> crosses
    each level as often down as up, so its amplitude is the integer product of
    the levels its raising steps reach.  Exact whenever ``dim`` exceeds the
    degree; summed in canonical term order through math.fsum.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    re_parts, im_parts = [], []
    for word, coeff in p.terms():
        n, count = 0, 1
        for sym in reversed(word):
            n += 1 if sym == RAISE else -1
            if not 0 <= n < dim:
                break
            if sym == RAISE:
                count *= n
        if n == 0:  # a walk cut short ends at n = -1 or n = dim
            re_parts.append(coeff.real * count)
            im_parts.append(coeff.imag * count)
    return complex(math.fsum(re_parts), math.fsum(im_parts))
