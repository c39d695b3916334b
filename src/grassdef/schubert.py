"""Schubert varieties in G(r, n): dimensions, containment, singular loci,
multiplicities, and degrees of Grassmannians.

Partitions here index Schubert varieties with respect to a fixed complete
flag.  The multiplicity routine splits the determinantal formula for the
multiplicity of a Schubert variety along a smaller one into the diagonal
blocks of a block triangular matrix, and evaluates each block of size at
least 2 by _det, the package's one determinant: fraction-free (Bareiss)
elimination, in integers throughout.  The formula reads mu only through
one tuple sigma, so each partition lam keeps the multiplicities it has
computed, keyed by the counts r + 1 - sigma_c, and reuses them for every
mu that gives the same sigma.  Containment compares two words of parts
in fixed-width slots, cached on each partition with the memo's keys.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, repeat, zip_longest
from math import comb, factorial, lgamma, log, prod

from .indices import GrassShape, _check_digits, _check_ints, _check_size


@dataclass(frozen=True)
class Partition:
    """A partition indexing a Schubert variety of G(r, n).

    Holds exactly r + 1 weakly decreasing parts, each in [0, n - r];
    shorter part lists are zero padded, and trailing zeros beyond r + 1
    parts are tolerated on input.
    """

    r: int
    n: int
    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_ints("r and n", (self.r, self.n))
        if not 0 <= self.r < self.n:
            raise ValueError(f"need 0 <= r < n, got r={self.r}, n={self.n}")
        _check_size("a partition of r + 1 parts", self.r + 1)
        parts = _check_ints("parts", self.parts, 0, self.n - self.r)
        if len(parts) > self.r + 1:
            if any(parts[self.r + 1 :]):
                raise ValueError(f"at most {self.r + 1} nonzero parts allowed")
            parts = parts[: self.r + 1]
        parts = parts + (0,) * (self.r + 1 - len(parts))
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def blocks(self) -> list[tuple[int, int]]:
        """Parts grouped as (value, repetition) pairs, largest value first,
        including the zero block when present."""
        return [(a, len(list(run))) for a, run in groupby(self.parts)]

    @cached_property
    def label(self) -> str:
        return "(" + ",".join(str(a) for a in self.parts) + ")"

    @cached_property
    def _word(self) -> int:
        """The parts in slots of w = (n - r).bit_length() + 1 bits, part i in
        slot i; pairing adjacent words per round keeps the work near linear."""
        words, w = self.parts, (self.n - self.r).bit_length() + 1
        while len(words) > 1:
            words = [a | b << w for a, b in zip_longest(words[::2], words[1::2], fillvalue=0)]
            w *= 2
        return words[0]

    @cached_property
    def _guard(self) -> int:
        """The top bit of every slot of _word, by a base 2^w repunit."""
        w = (self.n - self.r).bit_length() + 1
        return ((1 << w * (self.r + 1)) - 1) // ((1 << w) - 1) << (w - 1)

    @cached_property
    def _keys(self) -> list[int]:
        return [j - b for j, b in enumerate(self.parts, 1)]

    @cached_property
    def _levels(self) -> list[int]:
        return [l - self.parts[l - 1] for l in range(self.r + 1, 0, -1)]

    @cached_property
    def _multiplicities(self) -> dict[tuple[int, ...], int]:
        """multiplicity(self, mu) by the counts of mu; see multiplicity."""
        return {}


def complementary(p: Partition) -> tuple[int, ...]:
    """The complementary tuple (n - r - lambda_1, ..., n - r - lambda_{r+1}),
    weakly increasing in index order; its sum is the dimension of the
    Schubert variety."""
    return tuple(p.n - p.r - a for a in p.parts)


def schubert_dim(p: Partition) -> int:
    return sum(complementary(p))


def schubert_codim(p: Partition) -> int:
    return p.size


def contains(lam: Partition, mu: Partition) -> bool:
    """Whether the Schubert variety of lam contains the one of mu: whether
    every mu_i >= lambda_i.  As n - r < 2^(w-1), slot i of mu._word + guard
    - lam._word is 2^(w-1) + mu_i - lambda_i in [1, 2^w - 1], so no borrow
    crosses a slot and its top bit is set exactly when mu_i >= lambda_i."""
    if lam.r != mu.r or lam.n != mu.n:
        raise ValueError("partitions must index the same Grassmannian")
    guard = lam._guard
    return (mu._word + guard - lam._word) & guard == guard


def singular_locus(p: Partition) -> list[Partition]:
    """Partitions of the irreducible components of the singular locus.

    Writing the parts in blocks (a_1^{p_1}, ..., a_k^{p_k}) with
    a_1 > ... > a_k >= 0, each adjacent pair of blocks contributes the
    candidate obtained by replacing the pair with
    ((a_i + 1)^{p_i + 1}, a_{i+1}^{p_{i+1} - 1}); candidates whose first
    part would exceed n - r are discarded.  Rectangles, including the zero
    partition, are smooth and give the empty list.
    """
    blocks = p.blocks()
    cap = p.n - p.r
    out: list[Partition] = []
    for i in range(len(blocks) - 1):
        a, pa = blocks[i]
        b, pb = blocks[i + 1]
        if a + 1 > cap:
            continue
        merged = blocks[:i] + [(a + 1, pa + 1)] + ([(b, pb - 1)] if pb > 1 else []) + blocks[i + 2 :]
        out.append(Partition(p.r, p.n, tuple(value for value, count in merged for _ in range(count))))
    return out


def multiplicity(lam: Partition, mu: Partition) -> int:
    """Multiplicity of the Schubert variety of lam along the one of mu.

    Requires contains(lam, mu).  With l, j running over 1..r+1 set
    t_l = n - r + l - lambda_l and s_l = #{ j : mu_j - j < lambda_l - l };
    the multiplicity is |det M| for M[k][l] = C(t_l, (k - 1) - s_l),
    computed by fraction-free elimination with no rational arithmetic.

    Only the blocks that are not forced are eliminated.  Number the rows
    k - 1 = 0..r and take the columns in reverse order, c = r + 1 - l, with
    sigma_c = s_{r+1-c}.  As lambda_l - l strictly decreases in l, sigma is
    weakly increasing.  Containment gives sigma_c <= c, since every j <= l
    has mu_j - j >= lambda_j - j >= lambda_l - l.  Column c vanishes in the
    rows above sigma_c, so wherever sigma_q = q every column from q on
    vanishes in rows 0..q-1: the matrix is block lower triangular there,
    and |det M| is the product of the |det| of its diagonal blocks.  A 1 x 1
    block is C(t, 0) = 1, so only blocks of size at least 2 are eliminated.
    As j - mu_j strictly increases in j, each s_l is one bisection.

    The entries of M depend on t, which lam alone fixes, and on sigma, so
    two mu with the same sigma have the same multiplicity along lam.  Each
    result is kept on lam, keyed by the counts r + 1 - sigma_c: bisections
    of mu._keys (j - mu_j) at lam._levels (l - lambda_l, l = r+1..1), both
    cached; sigma and t are built only on a miss.  The memo holds at most
    the Catalan number C_{r+1} of weakly increasing tuples with 0 <= sigma_c
    <= c (42 on G(4, 9)), and never more entries than calls made on lam.
    """
    if not contains(lam, mu):
        raise ValueError("multiplicity needs mu componentwise above lam")
    key = tuple(map(bisect_right, repeat(mu._keys), lam._levels))
    if key in lam._multiplicities:
        return lam._multiplicities[key]
    size = lam.r + 1
    sigma = [size - count for count in key]
    t = [lam.n - lam.r + level for level in lam._levels]
    result, start = 1, 0
    for q in range(1, size + 1):
        if q == size or sigma[q] == q:
            rows = range(start, q)
            if len(rows) > 1:
                block = [[comb(t[c], k - sigma[c]) if k >= sigma[c] else 0 for c in rows] for k in rows]
                result *= abs(_det(block))
            start = q
    lam._multiplicities[key] = result
    return result


def _det(matrix: list[list[int]]) -> int:
    """The determinant of a square integer matrix.  Step c sets m[i][j] =
    (m[c][c] m[i][j] - m[i][c] m[c][j]) / (previous pivot) below the pivot
    row: by Sylvester's identity a (c+1) x (c+1) minor of the row-swapped
    input, so every division is exact (Bareiss, Math. Comp. 22, 1968) and a
    remainder raises ArithmeticError.  The last pivot is the determinant up
    to the sign of the row swaps; a column with no pivot gives 0."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top, p = m[c], m[c][c]
        for row in m[c + 1 :]:
            f = row[c]
            for j in range(c + 1, n):
                row[j], rem = divmod(p * row[j] - f * top[j], prev)
                if rem:
                    raise ArithmeticError(f"a Bareiss step left remainder {rem} at column {c}")
        prev = p
    return sign * prev


def grass_degree(r: int, n: int) -> int:
    """Degree of G(r, n) in the Pluecker embedding, by the hook length
    formula on the (r+1) x (n-r) rectangle of GrassShape(r, n).  The hooks
    of the rows are i, ..., i + cols - 1 for i = 1..rows, so the log-gamma
    size of the degree refuses one too long to print before any factorial
    is built."""
    shape = GrassShape(r, n)
    rows, cols = shape.r + 1, shape.n - shape.r
    ln = lgamma(rows * cols + 1) - sum(lgamma(cols + i) - lgamma(i) for i in range(1, rows + 1))
    _check_digits(f"the degree of {shape.label}", ln / log(10))
    hooks = prod(i + j - 1 for i in range(1, rows + 1) for j in range(1, cols + 1))
    degree, remainder = divmod(factorial(rows * cols), hooks)
    if remainder:
        raise ArithmeticError(f"the hook product {hooks} does not divide ({rows * cols})!")
    return degree


def rectangle_count(p: Partition) -> int:
    """Number of distinct nonzero parts of the complementary tuple: the
    count of maximal rectangles stacked in the complementary diagram."""
    return len({a for a in complementary(p) if a})


@dataclass(frozen=True)
class FerrersDiagram:
    """A Ferrers diagram with weakly increasing row lengths as drawn, with
    an optional inner diagram marked for skew displays."""

    outer: tuple[int, ...]
    inner: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        outer = _check_ints("row lengths", self.outer, 0)
        if any(b < a for a, b in zip(outer, outer[1:])):
            raise ValueError("row lengths must be weakly increasing as drawn")
        object.__setattr__(self, "outer", outer)
        if self.inner is not None:
            inner = _check_ints("inner row lengths", self.inner, 0)
            inner = inner + (0,) * (len(outer) - len(inner))
            if len(inner) != len(outer):
                raise ValueError("inner diagram has too many rows")
            if any(b < a for a, b in zip(inner, inner[1:])):
                raise ValueError("inner row lengths must be weakly increasing")
            if any(i > o for i, o in zip(inner, outer)):
                raise ValueError("inner diagram must fit inside the outer one")
            object.__setattr__(self, "inner", inner)

    @classmethod
    def of_partition(cls, p: Partition, inner: Partition | None = None) -> "FerrersDiagram":
        """Diagram of the complementary tuple of p, optionally marking the
        complementary diagram of a larger Schubert variety inside it."""
        if inner is None:
            return cls(complementary(p))
        if not contains(p, inner):
            raise ValueError("the inner Schubert variety must be contained in the outer one")
        return cls(complementary(p), complementary(inner))

    def render(self) -> str:
        _check_size(f"a Ferrers diagram of {len(self.outer)} rows", sum(self.outer))
        lines = []
        for row, length in enumerate(self.outer):
            marked = self.inner[row] if self.inner is not None else 0
            lines.append("." * marked + "#" * (length - marked))
        return "\n".join(lines)
