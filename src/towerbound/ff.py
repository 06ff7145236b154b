"""Arithmetic in small finite fields F_{p^(e*n)} with deterministic moduli.

An element sum(c_i * x^i) of F_p[x] / (modulus) is packed as the integer
sum(c_i * p^i).  Equality and hashing are therefore value-based, and since
the modulus is always the monic irreducible polynomial with the smallest
packed value, element encodings are reproducible bit for bit across runs.

Every supported field has order at most MAX_ORDER = 2^20 (F_2^20, F_3^12,
F_p for p <= 2^20, ...), and every field gets compact exp/log tables at
construction, each an array of the narrowest C type that holds its
entries: 2 bytes an entry up to order 2^16 (2^15 for the Zech table, whose
-1 needs a sign), 4 above, so a cached F_2^16 holds 256 kB of exp and log
and F_2^20 8 MB: multiplication, inversion and powering are table lookups,
and in odd characteristic a table of Zech logarithms log(1 + g^k) makes
addition, subtraction and negation lookups too.  `add` is the reference
form of that rule; the kernels of `curve` (`eval_compiled`, the
coefficient columns of `_y_columns` and `_quadratic_roots`) inline it,
reading the exp, log and Zech tables themselves and keeping their sums as
logs from the first term to the last.  The absolute trace and
the solutions of w^p - w = u are two lookups in one pair of tables of
about sqrt(q) entries; over F_2, `_quadratic_roots` makes those two
lookups itself.

The tables are built a block of about sqrt(q) powers at a time: each block
is h times the one before, and multiplication by a fixed h is F_p-linear,
so it too is two lookups in tables of about sqrt(q) entries.  One set of
polynomial routines (`_poly_*`) takes its coefficient field: the integers
mod p, with no table, to find the modulus (Ben-Or's irreducibility test),
the generator and the columns of those linear maps; an ExtField in
`curve`, to find roots in y by gcds.

One table is built lazily, on first use: `trace_of_power`, the trace of
each power of the generator.  Fields used only for point counts never
build it.  The trace kernel of `cover` reads it at logs, with log A as
`eval_compiled` gives it, so that Tr(c x^i y^j / A^p) costs one read at an
integer log.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isqrt
from typing import Iterator

from .errors import NotPrime, OutOfRange, UnsupportedSize

MAX_ORDER = 2**20  # the largest supported field order; the CLI checks each command's
# largest field against it before counting anything (the bundled workloads reach 2^17)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FieldParams:
    """The constant field F_q with q = p^e."""

    p: int
    e: int = 1

    def __post_init__(self):
        if self.p > MAX_ORDER:  # before the trial division, which is slow for a huge p
            raise UnsupportedSize(
                f"characteristic {self.p} exceeds the supported field order {MAX_ORDER}"
            )
        if not _is_prime(self.p):
            raise NotPrime(f"characteristic {self.p} is not prime")
        if self.e < 1:
            raise OutOfRange("e must be a positive integer")
        require_supported_degree(self, 1)

    @property
    def q(self) -> int:
        return self.p**self.e


# ---------------------------------------------------------------------------
# dense polynomials, coefficient lists low degree -> high degree, over a
# coefficient field K: any object with add, sub, mul and inv.  Field
# construction passes _IntsMod(p); root finding in `curve` an ExtField.
# ---------------------------------------------------------------------------


class _IntsMod:
    """F_p as the integers mod p: the coefficient field of field
    construction, which reads no tables."""

    def __init__(self, p: int):
        self.add, self.sub = lambda a, b: (a + b) % p, lambda a, b: (a - b) % p
        self.mul, self.inv = lambda a, b: a * b % p, lambda a: pow(a, -1, p)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_sub(a: list[int], b: list[int], K) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _poly_trim([K.sub(u, v) for u, v in zip(a, b)])


def _poly_mod(a: list[int], f: list[int], K) -> list[int]:
    # f monic; only its nonzero lower terms are subtracted
    a, m = list(a), len(f) - 1
    sub, mul = K.sub, K.mul
    terms = [(j, c) for j, c in enumerate(f[:m]) if c]
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k]
        if c:
            for j, fj in terms:
                a[k - m + j] = sub(a[k - m + j], mul(c, fj))
    return _poly_trim(a[:m])


def _poly_mulmod(a: list[int], b: list[int], f: list[int], K) -> list[int]:
    if not a or not b:
        return []
    add, mul = K.add, K.mul
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = add(prod[i + j], mul(ca, cb))
    return _poly_mod(prod, f, K)


def _poly_powmod(a: list[int], k: int, f: list[int], K) -> list[int]:
    result = [1]
    base = _poly_mod(a, f, K)
    while k:
        if k & 1:
            result = _poly_mulmod(result, base, f, K)
        k >>= 1
        if k:  # no square past the top bit
            base = _poly_mulmod(base, base, f, K)
    return result


def _poly_gcd(a: list[int], b: list[int], K) -> list[int]:
    """The monic gcd of a and b; a itself when b is zero."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = K.inv(b[-1])
        monic = [K.mul(c, inv_lead) for c in b]
        a, b = monic, _poly_mod(a, monic, K)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test for a monic f of degree m: irreducible iff
    gcd(x^(p^i) - x, f) = 1 for i = 1..m//2.  A reducible f has a monic
    irreducible factor of some degree i <= m/2, which divides x^(p^i) - x,
    so the loop stops at the least such i (Ben-Or, "Probabilistic
    algorithms in finite fields", FOCS 1981)."""
    m = len(f) - 1
    if m < 1:
        return False
    K = _IntsMod(p)
    x = _poly_mod([0, 1], f, K)
    cur = x
    for _ in range(m // 2):
        cur = _poly_powmod(cur, p, f, K)
        if len(_poly_gcd(f, _poly_sub(cur, x, K), K)) > 1:
            return False
    return True


def _smallest_irreducible(m: int, p: int) -> list[int]:
    """Monic irreducible of degree m over F_p with the smallest packed value.

    For m >= 2 a candidate divisible by x (constant digit 0) or by x - 1
    (digit sum 0 mod p, i.e. f(1) = 0) is skipped before the test."""
    for packed in range(p**m, 2 * p**m):
        if m >= 2 and packed % p == 0:
            continue
        coeffs = []
        v = packed
        while v:
            coeffs.append(v % p)
            v //= p
        if m >= 2 and sum(coeffs) % p == 0:
            continue
        if _is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible of degree {m} over F_{p}")  # unreachable


def _typecode(largest: int, signed: bool = False) -> str:
    """The narrowest array typecode, 2 bytes or else 4, for entries from 0
    (from -1 when signed) up to largest; every table entry is a packed
    element, a log or a trace below MAX_ORDER, or the Zech sentinel -1."""
    if largest.bit_length() + signed <= 16:
        return "h" if signed else "H"
    return "i"


def _norm(c: list[int], f: list[int], p: int) -> int:
    """The norm of c(x) from F_p[x]/(f) down to F_p, for monic f: the
    resultant Res(f, c), the product of c over the roots of f, by a Euclid
    over F_p.  With a monic and b = lc * b', the product of b over the
    roots of a is lc^deg(a) * (-1)^(deg a * deg b') times the product of
    a mod b' over the roots of b'."""
    a, b, out, K = f, _poly_trim(list(c)), 1, _IntsMod(p)
    while b:
        m, n, lc = len(a) - 1, len(b) - 1, b[-1]
        out = out * pow(lc, m, p) * (-1) ** (m * n) % p
        if n == 0:
            return out
        inv = pow(lc, p - 2, p)
        monic = [v * inv % p for v in b]
        a, b = monic, _poly_mod(a, monic, K)
    return 0


def _add_digits(a: int, b: int, p: int) -> int:
    """a + b digit by digit mod p, for packed a and b: the field sum,
    without tables."""
    out, place = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + db) % p * place
        place *= p
    return out


def _span(images: list[int], p: int) -> list[int]:
    """sum_k c_k * images[k] at every packed digit vector (c_0, c_1, ...),
    for packed elements images[k].

    A list, not an array: it has about sqrt(q) entries, and list indexing
    returns a stored int instead of building one (F_2^16 trace, CPython 3.11:
    about 100 against 160 ns).
    """
    out = [0]
    for v in images:
        size = len(out)
        for _ in range(p - 1):  # the entries with c_k = c are those with c - 1, plus v
            if p == 2:
                out += [x ^ v for x in out[-size:]]
            else:
                out += [_add_digits(x, v, p) for x in out[-size:]]
    return out


def _rebase(v: int, p: int, r: int) -> int:
    """The base-p digits of v, read in base r."""
    out, place = 0, 1
    while v:
        v, d = divmod(v, p)
        out += d * place
        place *= r
    return out


def _narrowing(p: int, r: int, first: int, count: int) -> list[int]:
    """Entry w, for w < r^count with base-r digits w_i, is the packed value
    of sum_i (w_i mod p) x^(first + i).

    Entries with equal values share one int: the table holds p^count ints
    for its r^count entries, so it adds little to the peak memory."""

    def expand(values: list[int], k: int) -> list[int]:  # values in packed order
        if k == 0:
            return values
        size = len(values) // p
        parts = [expand(values[c * size:(c + 1) * size], k - 1) for c in range(p)]
        return [x for d in range(r) for x in parts[d % p]]  # top base-r digit d

    return expand([v * p**first for v in range(p**count)], count)


def _slices(a: array) -> Iterator[tuple[int, array]]:
    """(start, slice) for consecutive slices of about sqrt(len(a)) entries,
    covering a."""
    step = isqrt(len(a)) + 1
    return ((i, a[i:i + step]) for i in range(0, len(a), step))


def require_supported_degree(params: FieldParams, n: int) -> None:
    """Raise UnsupportedSize when F_{q^n} has order above MAX_ORDER.

    Compares e*n with the largest k such that p^k <= MAX_ORDER, so q**n is
    never computed (n may come straight from a flag).
    """
    p, k, order = params.p, 0, params.p
    while order <= MAX_ORDER:
        k += 1
        order *= p
    if params.e * n > k:
        raise UnsupportedSize(
            f"F_{p}^{params.e * n} exceeds the supported field order {MAX_ORDER} "
            f"(p^k <= {MAX_ORDER} needs k <= {k})"
        )


# ---------------------------------------------------------------------------
# the field proper
# ---------------------------------------------------------------------------


class ExtField:
    """F_{p^(e*n)}: degree-n extension of F_q, realized as F_p[x]/(modulus).

    All element-level methods take and return packed integers in
    [0, order).  They do not check the range, since they sit in every inner
    loop: a negative value reads the log table from its end and aliases a
    real element, and one at or above the order raises IndexError.  No
    element from outside the package reaches a field: configs give
    polynomial coefficients, which are reduced mod p, and every point is
    enumerated by the package itself.  Instances are immutable after
    construction, apart from the `trace_of_power` table built on first use
    (always to the same bytes), and safe to share between workers.
    """

    def __init__(self, params: FieldParams, n: int):
        if n < 1:
            raise ValueError("extension degree n must be >= 1")
        require_supported_degree(params, n)
        m = params.e * n
        self.params = params
        self.p = params.p
        self.n = n
        self.degree = m
        self.order = params.p**m
        self.modulus = tuple(_smallest_irreducible(m, params.p))
        self._q1 = self.order - 1
        self._half = self._q1 // 2  # log(-1) in odd characteristic
        self._split = params.p ** (m // 2)  # the low half of the digits: a % split
        self._exp, self._log, self._zech = self._build_tables()
        self._lin_lo, self._lin_hi = self._build_linear_tables()

    def __repr__(self):
        return f"ExtField(p={self.p}, e={self.params.e}, n={self.n}, order={self.order})"

    # -- packing helpers ----------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        p = self.p
        out = [0] * self.degree
        i = 0
        while a:
            out[i] = a % p
            a //= p
            i += 1
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        p = self.p
        v = 0
        for c in reversed(list(cs)):
            v = v * p + (c % p)
        return v

    # -- additive structure -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la = log[a]
        z = self._zech[(log[b] - la) % self._q1]
        return 0 if z < 0 else self._exp[(la + z) % self._q1]

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        return self._exp[(self._log[a] + self._half) % self._q1]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    # -- multiplicative structure -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._q1]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("inverting zero field element")
            return 1 if k == 0 else 0
        return self._exp[(self._log[a] * k) % self._q1]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero field element")
        return self._exp[-self._log[a] % self._q1]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius_base(self, a: int) -> int:
        """x -> x^q, the Frobenius over the constant field F_q."""
        return self.pow(a, self.params.q)

    def frobenius_orbits(self) -> Iterator[tuple[int, int]]:
        """(x, e) for each orbit of x -> x^q, ascending in x: x is the least
        packed element of its orbit and e the orbit size (the least k with
        x^(q^k) = x, a divisor of n).

        Orbits are walked in log space, k -> k*q mod (order - 1), and their
        members marked, so the next representative is the next unmarked
        element.
        """
        exp, log, q, q1 = self._exp, self._log, self.params.q, self._q1
        seen = bytearray(self.order)
        seen[0] = 1
        yield 0, 1
        x = seen.find(0)
        while x >= 0:
            e, k = 0, log[x]
            while not seen[exp[k]]:
                seen[exp[k]] = 1
                e += 1
                k = k * q % q1
            yield x, e
            x = seen.find(0, x + 1)

    # -- tables ---------------------------------------------------------------

    def _build_tables(self) -> tuple[array, array, array | None]:
        """exp (g^k for k < q - 1), log (log_g(a) for a != 0; entry 0 is 0)
        and, in odd characteristic, zech (log_g(1 + g^k), -1 where g^k = -1),
        each an array of the narrowest typecode that holds its entries.

        The generator g is the least packed element of full order: for each
        prime r of q - 1, g^((q-1)/r) != 1, tested by powering polynomials
        mod the modulus.  For r = 2 (odd p) that is Euler's criterion on the
        norm of g in F_p: g is a square in F_q iff its norm is one in F_p,
        and the norm is a Euclid over F_p, not a power.  zech is filled in place, a
        slice of exp at a time: no list of q entries, and no array grown
        (and over-allocated) entry by entry.
        """
        p, mod, q1 = self.p, self.modulus, self._q1
        if q1 == 1:
            g = 1
        else:
            factors, K = _prime_factors(q1), _IntsMod(p)

            def full_order(c: tuple[int, ...]) -> bool:
                return all(
                    pow(_norm(c, mod, p), (p - 1) // 2, p) != 1 if r == 2
                    else _poly_powmod(c, q1 // r, mod, K) != [1]
                    for r in factors
                )

            # every field has a multiplicative generator
            g = next(cand for cand in range(2, self.order) if full_order(self.coeffs(cand)))
        exp = self._powers_of(g)
        log = array(_typecode(q1 - 1), [0]) * self.order
        for k, v in enumerate(exp):
            log[v] = k
        if p == 2:
            return exp, log, None
        code = _typecode(q1 - 1, signed=True)
        zech = array(code, [0]) * q1
        for k, s in _slices(exp):  # 1 + v only changes the constant digit of v
            zech[k:k + len(s)] = array(
                code, [log[v + 1 if v % p != p - 1 else v - p + 1] for v in s]
            )
        zech[self._half] = -1  # 1 + g^half = 1 + (-1) = 0 has no log
        return exp, log, zech

    def _powers_of(self, g: int) -> array:
        """g^0, ..., g^(q-2), a block of B = ceil(sqrt(q - 1)) powers at a time.

        The first block steps by g; every later block is h times the one
        before, h = g^B.  Multiplying by a fixed c is F_p-linear, so `times(c)`
        maps a whole block by one comprehension:
          - in F_p, one modular product per element (tables over the digits
            would have p entries: 7 s and 220 MB for p near 2^20);
          - otherwise c*v is the sum of two reads, in tables of c*v over the
            low and over the high digits of v (about sqrt(q) entries each,
            spanned from the m images c*x^i).  Over F_2 the two add by XOR.
            For odd p the tables hold each digit in base r = 2p - 1, so the
            two add as integers without a carry, and two reads in tables over
            the low and high base-r digits of the sum reduce it mod p and
            pack it.
        The power after g^(q-2), one more step by g, must be 1.
        """
        p, m, q1 = self.p, self.degree, self._q1
        if m == 1:

            def times(c: int):
                return lambda vals: [v * c % p for v in vals]

        elif p == 2:
            shift, mask = m // 2, self._split - 1

            def times(c: int):
                lo, hi = self._halves(self._images(c))
                return lambda vals: [lo[v & mask] ^ hi[v >> shift] for v in vals]

        else:
            s, split, r = m // 2, self._split, 2 * p - 1
            wsplit = r**s
            narrow_lo, narrow_hi = _narrowing(p, r, 0, s), _narrowing(p, r, s, m - s)

            def times(c: int):
                lo, hi = self._halves(self._images(c))
                lo, hi = [_rebase(v, p, r) for v in lo], [_rebase(v, p, r) for v in hi]
                return lambda vals: [
                    narrow_lo[(t := lo[v % split] + hi[v // split]) % wsplit]
                    + narrow_hi[t // wsplit]
                    for v in vals
                ]

        step = isqrt(q1 - 1) + 1
        times_g, block = times(g), [1]
        while len(block) < step:
            block += times_g(block[-1:])
        times_h = times(times_g(block[-1:])[0])
        code = _typecode(q1)
        out = array(code, [0]) * q1
        for k in range(0, q1, step):
            out[k:k + step] = array(code, block[:q1 - k])
            block = times_h(block)
        if times_g([out[-1]])[0] != 1:
            raise RuntimeError("generator does not have full order")
        return out

    def _images(self, c: int) -> list[int]:
        """c * x^i for i < degree: the columns of the F_p-linear map v -> c*v."""
        K, mod = _IntsMod(self.p), list(self.modulus)
        out, img = [], _poly_trim(list(self.coeffs(c)))
        for _ in range(self.degree):
            out.append(self.from_coeffs(img))
            img = _poly_mod([0] + img, mod, K)
        return out

    def _halves(self, images: list[int]) -> tuple[list[int], list[int]]:
        """Tables of the F_p-linear map with columns `images`: on the low
        digits (entry v, v < split) and on the high digits (entry h, for
        h*split), so that the map at a is the sum of the entries at
        a % split and a // split."""
        s = self.degree // 2
        return _span(images[:s], self.p), _span(images[s:], self.p)

    # -- the trace and w^p - w = u: one linear map, two lookups ---------------

    def _build_linear_tables(self) -> tuple:
        """Tables of the F_p-linear map v -> L(v) + Tr(v): on the low digits
        (entry v, v < split) and on the high digits (entry h, for h*split).

        Tr is the absolute trace and sits in the constant digit.  L(u) solves
        w^p - w = u whenever Tr(u) = 0, with constant digit 0 (adding an
        element of F_p keeps a solution).  It is additive Hilbert 90: with
        theta of trace 1, w = -sum_{i=1}^{m-1} (u + u^p + ... + u^(p^(i-1))) theta^(p^i).
        """
        p, m = self.p, self.degree
        if m == 1:
            return range(1), range(p)  # L = 0 and Tr is the identity: no p-entry table
        add, mul = self.add, self.mul
        sums = []  # per basis digit u = x^k: u, u + u^p, ..., the last one Tr(u)
        for k in range(m):
            cur = acc = p**k
            row = [acc]
            for _ in range(m - 1):
                cur = self.pow(cur, p)
                acc = add(acc, cur)
                row.append(acc)
            sums.append(row)
        k, tr = next((k, row[-1]) for k, row in enumerate(sums) if row[-1])  # Tr is onto F_p
        theta = mul(p**k, pow(tr, -1, p))
        conj = [self.pow(theta, p**i) for i in range(m)]
        images = []
        for k, row in enumerate(sums):
            w = 0
            for i in range(1, m):
                w = add(w, mul(row[i - 1], conj[i]))
            w = self.neg(w)
            # w^p - w = u - Tr(u) theta for every u; by linearity this checks every solution
            if row[-1] >= p or self.sub(self.pow(w, p), w) != self.sub(p**k, mul(row[-1], theta)):
                raise RuntimeError("additive Hilbert 90 failed on a basis element")
            images.append(w - w % p + row[-1])
        return self._halves(images)

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = a + a^p + ... + a^(p^(degree - 1)) down to
        F_p, returned as an int in [0, p).  The two entries are added as
        integers: carries only move up, so the constant digit is Tr(a)."""
        return (self._lin_lo[a % self._split] + self._lin_hi[a // self._split]) % self.p

    @cached_property
    def trace_of_power(self) -> bytes | array:
        """Entry k is Tr(g^k), g the generator behind the exp/log tables.

        Tr is F_p-linear, so Tr(c * g^k) = c * Tr(g^k) for c in F_p: with
        the logs of its factors in hand, the trace of a monomial is one read
        here.  Built on first use, a slice of exp at a time, by the two reads
        of `trace`.  `bytes` while every trace fits in a byte (p < 256;
        indexing it is about 15% faster than an array("B") on CPython 3.11),
        an array of the narrowest typecode that holds p - 1 above.
        """
        lo, hi, split, p = self._lin_lo, self._lin_hi, self._split, self.p
        traces = chain.from_iterable(
            [(lo[v % split] + hi[v // split]) % p for v in s] for _, s in _slices(self._exp)
        )
        return bytes(traces) if p < 256 else array(_typecode(p - 1), traces)

    def solve_additive(self, u: int) -> list[int]:
        """All w with w^p - w = u, ascending (empty when the trace of u is nonzero).

        The field sum of the two entries is L(u) + Tr(u); when Tr(u) = 0 the
        solutions L(u) + c, c in F_p, differ only in the constant digit.
        """
        t = self.add(self._lin_lo[u % self._split], self._lin_hi[u // self._split])
        return [] if t % self.p else list(range(t, t + self.p))

    # -- roots ------------------------------------------------------------------

    def sqrt_list(self, a: int) -> list[int]:
        """All square roots of a; characteristic must be odd."""
        if self.p == 2:
            raise ValueError("sqrt_list needs odd characteristic")
        if a == 0:
            return [0]
        l = self._log[a]
        if l % 2:
            return []
        r = self._exp[l // 2]
        return sorted({r, self.neg(r)})


_FIELD_CACHE: dict[tuple[int, int, int], ExtField] = {}


def make_ext_field(params: FieldParams, n: int) -> ExtField:
    """Degree-n extension of F_q with the deterministic smallest modulus.

    Results are cached: fields are immutable, so sharing is safe.
    """
    key = (params.p, params.e, n)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = ExtField(params, n)
        _FIELD_CACHE[key] = field
    return field
