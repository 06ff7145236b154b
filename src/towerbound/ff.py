"""Arithmetic in small finite fields F_{p^(e*n)} with deterministic moduli.

An element sum(c_i * x^i) of F_p[x] / (modulus) is packed as the integer
sum(c_i * p^i).  Equality and hashing are therefore value-based, and since
the modulus is always the monic irreducible polynomial with the smallest
packed value, element encodings are reproducible bit for bit across runs.

Every supported field has order at most MAX_ORDER = 2^20 (F_2^20, F_3^12,
F_p for p <= 2^20, ...), and every field gets compact exp/log tables at
construction: multiplication, inversion and powering are table lookups,
and in odd characteristic a table of Zech logarithms log(1 + g^k) makes
addition, subtraction and negation lookups too.  `add` is the reference
form of that rule; the per-point kernels of `curve` (`eval_compiled` and
`_quadratic_roots`) inline it, reading the exp, log and Zech tables
themselves and keeping their sums as logs.  The absolute trace and
the solutions of w^p - w = u are two lookups in one pair of tables of
about sqrt(q) entries.  Polynomial arithmetic mod the modulus is used
only to find the modulus and to build the tables.

One table is built lazily, on first use: `trace_of_power`, the trace of
each power of the generator.  Fields used only for point counts never
build it.  The trace kernel of `cover` reads it together with the exp and
log tables, so that Tr(c x^i y^j / A^p) costs one read at an integer log.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
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
# dense polynomials over F_p, coefficient lists low degree -> high degree
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = list(a)
    m = len(f) - 1
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k] % p
        if c:
            a[k] = 0
            for j in range(m):
                if f[j]:
                    a[k - m + j] = (a[k - m + j] - c * f[j]) % p
        else:
            a[k] = 0
    return _poly_trim([v % p for v in a[:m]])


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    return _poly_mod(prod, f, p)


def _poly_powmod(a: list[int], k: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, f, p)
    while k:
        if k & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        k >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_mod(a, monic, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: x^(p^m) == x mod f, and gcd(x^(p^(m/r)) - x, f) = 1 for primes r | m."""
    m = len(f) - 1
    if m < 1:
        return False
    x = _poly_mod([0, 1], f, p)
    checkpoints = {m // r for r in _prime_factors(m)}
    cur = list(x)
    for k in range(1, m + 1):
        cur = _poly_powmod(cur, p, f, p)
        if k in checkpoints:
            diff = list(cur) + [0] * (len(x) - len(cur))
            for i, c in enumerate(x):
                diff[i] = (diff[i] - c) % p
            g = _poly_gcd(diff, f, p)
            if len(g) > 1:
                return False
    return cur == x


def _smallest_irreducible(m: int, p: int) -> list[int]:
    """Monic irreducible of degree m over F_p with the smallest packed value."""
    for packed in range(p**m, 2 * p**m):
        coeffs = []
        v = packed
        while v:
            coeffs.append(v % p)
            v //= p
        if _is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible of degree {m} over F_{p}")  # unreachable


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
    real element, and one at or above the order raises IndexError.  Code
    that takes elements from outside the package checks them first
    (`curve.eval_poly2`, `curve.make_affine_place`).  Instances
    are immutable after construction, apart from the `trace_of_power` table
    built on first use (always to the same bytes), and safe to share
    between workers.
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
        self._exp, self._log, self._zech = self._build_tables()
        self._split = params.p ** (m // 2)  # the low half of the digits: a % split
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
        and, in odd characteristic, zech (log_g(1 + g^k), -1 where g^k = -1).

        Until they exist, products are taken as polynomials mod the modulus.
        """
        p, mod, q1 = self.p, self.modulus, self._q1
        if q1 == 1:
            g = 1
        else:
            factors = _prime_factors(q1)
            g = next(
                cand
                for cand in range(2, self.order)  # every field has a multiplicative generator
                if all(_poly_powmod(self.coeffs(cand), q1 // r, mod, p) != [1] for r in factors)
            )
        exp = self._powers_of(g)
        log = array("l", [0]) * self.order
        for k, v in enumerate(exp):
            log[v] = k
        if p == 2:
            return exp, log, None
        # 1 + v only changes the constant digit of v
        zech = array("l", (log[v + 1 if v % p != p - 1 else v - p + 1] for v in exp))
        zech[self._half] = -1  # 1 + g^half = 1 + (-1) = 0 has no log
        return exp, log, zech

    def _powers_of(self, g: int) -> array:
        """g^0, ..., g^(q-2) by repeated multiplication by g.

        In F_p the packed value is the residue itself, so each step is one
        modular product (the lane tables below would have p entries: 7 s
        and 220 MB to build F_p for p near 2^20).  Otherwise, during
        the loop the current power is held with each base-p digit in its
        own lane of `width` bits, wide enough that two digits add without a
        carry into the next lane.  Multiplication by g is linear, so the
        product is (low digits)*g + (high digits)*g: two lookups in tables
        of about sqrt(q) entries, one integer addition and a lanewise
        reduction mod p.  The packed value of each power is the sum of two
        more lookups.
        """
        p, m, q1 = self.p, self.degree, self._q1
        out = array("l", [0]) * q1
        cur = 1
        if m == 1:
            for k in range(q1):
                out[k] = cur
                cur = cur * g % p
        else:
            width = (p - 1).bit_length() + 1  # 2^(width-1) >= p
            ones = sum(1 << (width * i) for i in range(m))
            bias = ((1 << (width - 1)) - p) * ones  # lane + bias has bit width-1 set iff lane >= p
            tops = (1 << (width - 1)) * ones

            def lanes(v: int) -> int:
                out, i = 0, 0
                while v:
                    out |= (v % p) << (width * i)
                    v //= p
                    i += 1
                return out

            gc, mod = _poly_trim(list(self.coeffs(g))), self.modulus  # g is small: few terms

            def times_g(v: int) -> int:
                return lanes(self.from_coeffs(_poly_mulmod(self.coeffs(v), gc, mod, p)))

            split = m // 2
            unit = p**split
            low = {lanes(v): (v, times_g(v)) for v in range(unit)}
            high = {lanes(h): (h * unit, times_g(h * unit)) for h in range(p ** (m - split))}
            shift = width * split
            low_mask = (1 << shift) - 1
            for k in range(q1):  # cur holds the lanes of g^k
                v_lo, gv_lo = low[cur & low_mask]
                v_hi, gv_hi = high[cur >> shift]
                out[k] = v_lo + v_hi
                s = gv_lo + gv_hi
                cur = s - (((s + bias) & tops) >> (width - 1)) * p
        if cur != 1:
            raise RuntimeError("generator does not have full order")
        return out

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
        s = m // 2
        return self._span(images[:s]), self._span(images[s:])

    def _span(self, images: list[int]) -> list[int]:
        """sum_k c_k * images[k] at every packed digit vector (c_0, c_1, ...).

        A list, not an array: it has about sqrt(q) entries, and list indexing
        returns a stored int instead of building one (F_2^16 trace, CPython 3.11:
        about 100 against 160 ns).
        """
        out = [0]
        for v in images:
            out = [self.add(r, self.mul(c, v)) for c in range(self.p) for r in out]
        return out

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
        here.  Built from `trace` on first use.  `bytes` while every trace
        fits in a byte (p < 256; indexing it is about 15% faster than an
        array("B") on CPython 3.11), an array("l") above.
        """
        traces = map(self.trace, self._exp)
        return bytes(traces) if self.p < 256 else array("l", traces)

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
