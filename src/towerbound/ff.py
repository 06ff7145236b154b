"""Arithmetic in small finite fields F_{p^(e*n)} with deterministic moduli.

An element sum(c_i * x^i) of F_p[x] / (modulus) is packed as the integer
sum(c_i * p^i).  Equality and hashing are therefore value-based, and since
the modulus is always the monic irreducible polynomial with the smallest
packed value, element encodings are reproducible bit for bit across runs.

Fields of order <= TABLE_LIMIT get full exp/log tables at construction
(multiplication, inversion and powering become table lookups); larger
fields fall back to generic polynomial arithmetic, with a bit-packed
carryless fast path for characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrime, OutOfRange, UnsupportedSize

MAX_TOTAL_DEGREE = 20  # cap on e*n; the largest fields the shipped data needs are 2^10 and 3^9
TABLE_LIMIT = 1 << 16


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
        if not _is_prime(self.p):
            raise NotPrime(f"characteristic {self.p} is not prime")
        if self.e < 1:
            raise OutOfRange("e must be a positive integer")

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


# ---------------------------------------------------------------------------
# the field proper
# ---------------------------------------------------------------------------


class ExtField:
    """F_{p^(e*n)}: degree-n extension of F_q, realized as F_p[x]/(modulus).

    All element-level methods take and return packed integers.  Instances
    are immutable after construction and safe to share between workers.
    """

    def __init__(self, params: FieldParams, n: int):
        if n < 1:
            raise ValueError("extension degree n must be >= 1")
        m = params.e * n
        if m > MAX_TOTAL_DEGREE:
            raise UnsupportedSize(
                f"total degree e*n = {m} exceeds the supported cap {MAX_TOTAL_DEGREE}"
            )
        self.params = params
        self.p = params.p
        self.n = n
        self.degree = m
        self.order = params.p**m
        self.modulus = tuple(_smallest_irreducible(m, params.p))
        self._modulus_list = list(self.modulus)
        self._modulus_int = sum(c << i for i, c in enumerate(self.modulus)) if params.p == 2 else None
        self._exp: list[int] | None = None
        self._log: list[int | None] | None = None
        if self.order <= TABLE_LIMIT:
            self._build_tables()
        self._trace_basis = self._build_trace_basis()
        if self.p == 2:
            self._trace_mask = sum(t << i for i, t in enumerate(self._trace_basis))
        self._as_rref = None  # lazy solver for w^p - w = u

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
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    # -- multiplicative structure -------------------------------------------

    def _mul2(self, a: int, b: int) -> int:
        if a < b:
            a, b = b, a
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        mi = self._modulus_int
        dm = self.degree
        top = r.bit_length() - 1
        while top >= dm:
            r ^= mi << (top - dm)
            top = r.bit_length() - 1
        return r

    def _mul_generic(self, a: int, b: int) -> int:
        p = self.p
        da, db = [], []
        while a:
            da.append(a % p)
            a //= p
        while b:
            db.append(b % p)
            b //= p
        prod = [0] * (len(da) + len(db) - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] += ca * cb
        reduced = _poly_mod(prod, self._modulus_list, p)
        return self.from_coeffs(reduced)

    def _raw_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.p == 2:
            return self._mul2(a, b)
        return self._mul_generic(a, b)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._raw_mul(a, b)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        if a == 0:
            return 1 if k == 0 else 0
        if self._log is not None:
            return self._exp[(self._log[a] * k) % (self.order - 1)]
        result = 1
        base = a
        while k:
            if k & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            k >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero field element")
        if self._log is not None:
            return self._exp[(-self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius_base(self, a: int) -> int:
        """x -> x^q, the Frobenius over the constant field F_q."""
        return self.pow(a, self.params.q)

    # -- tables ---------------------------------------------------------------

    def _build_tables(self):
        q1 = self.order - 1
        if q1 == 1:
            g = 1
        else:
            factors = _prime_factors(q1)
            g = None
            for cand in range(2, self.order):
                # _log is still None here, so pow multiplies untabled
                if all(self.pow(cand, q1 // r) != 1 for r in factors):
                    g = cand
                    break
            if g is None:  # every field has a multiplicative generator
                raise RuntimeError("generator search failed")
        exp = [0] * q1
        log: list[int | None] = [None] * self.order
        cur = 1
        for i in range(q1):
            exp[i] = cur
            log[cur] = i
            cur = self._raw_mul(cur, g)
        if cur != 1:
            raise RuntimeError("generator does not have full order")
        self._exp = exp
        self._log = log

    # -- traces ---------------------------------------------------------------

    def _build_trace_basis(self) -> tuple[int, ...]:
        out = []
        for i in range(self.degree):
            el = self.p**i  # the basis monomial x^i
            acc = el
            cur = el
            for _ in range(self.degree - 1):
                cur = self.pow(cur, self.p)
                acc = self.add(acc, cur)
            if acc >= self.p:
                raise RuntimeError("trace of basis element left the prime field")
            out.append(acc)
        return tuple(out)

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = a + a^p + ... + a^(p^(degree - 1)) down to
        F_p, returned as an int in [0, p)."""
        if self.p == 2:
            return bin(a & self._trace_mask).count("1") & 1
        p = self.p
        tot = 0
        i = 0
        while a:
            c = a % p
            if c:
                tot += c * self._trace_basis[i]
            a //= p
            i += 1
        return tot % p

    # -- roots ------------------------------------------------------------------

    def pth_root(self, a: int) -> int:
        """The unique b with b^p = a (Frobenius is bijective)."""
        return self.pow(a, self.p ** (self.degree - 1))

    def sqrt_list(self, a: int) -> list[int]:
        """All square roots of a; characteristic must be odd."""
        if self.p == 2:
            raise ValueError("use pth_root in characteristic 2")
        if a == 0:
            return [0]
        if self._log is not None:
            l = self._log[a]
            if l % 2:
                return []
            r = self._exp[l // 2]
            return sorted({r, self.neg(r)})
        return self._sqrt_generic(a)

    def _sqrt_generic(self, a: int) -> list[int]:
        # Tonelli-Shanks
        q = self.order
        if self.pow(a, (q - 1) // 2) != 1:
            return []
        s, m = q - 1, 0
        while s % 2 == 0:
            s //= 2
            m += 1
        z = None
        for cand in range(2, q):
            if self.pow(cand, (q - 1) // 2) != 1:
                z = cand
                break
        c = self.pow(z, s)
        t = self.pow(a, s)
        r = self.pow(a, (s + 1) // 2)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (m - i - 1))
            m = i
            c = self.mul(b, b)
            t = self.mul(t, c)
            r = self.mul(r, b)
        return sorted({r, self.neg(r)})

    def solve_additive(self, u: int) -> list[int]:
        """All w with w^p - w = u (empty when the trace of u is nonzero)."""
        if self._as_rref is None:
            self._as_rref = self._build_additive_solver()
        pivots, transform = self._as_rref
        p, m = self.p, self.degree
        ucol = list(self.coeffs(u))
        t = [sum(transform[i][k] * ucol[k] for k in range(m)) % p for i in range(m)]
        sol = [0] * m
        for row, col in enumerate(pivots):
            if col is None:
                if t[row] != 0:
                    return []
            else:
                sol[col] = t[row]
        w0 = self.from_coeffs(sol)
        return sorted(self.add(w0, c) for c in range(p))

    def _build_additive_solver(self):
        p, m = self.p, self.degree
        cols = []
        for j in range(m):
            el = p**j
            phi = self.sub(self.pow(el, p), el)
            cols.append(list(self.coeffs(phi)))
        mat = [[cols[j][i] for j in range(m)] for i in range(m)]
        transform = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        pivots: list[int | None] = [None] * m
        row = 0
        for col in range(m):
            piv = next((r for r in range(row, m) if mat[r][col] % p), None)
            if piv is None:
                continue
            mat[row], mat[piv] = mat[piv], mat[row]
            transform[row], transform[piv] = transform[piv], transform[row]
            inv = pow(mat[row][col], p - 2, p)
            mat[row] = [(v * inv) % p for v in mat[row]]
            transform[row] = [(v * inv) % p for v in transform[row]]
            for r in range(m):
                if r != row and mat[r][col] % p:
                    f = mat[r][col] % p
                    mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
                    transform[r] = [(a - f * b) % p for a, b in zip(transform[r], transform[row])]
            pivots[row] = col
            row += 1
        # kernel of w -> w^p - w is exactly the prime field
        if row != m - 1:
            raise RuntimeError("additive solver rank != m - 1")
        return pivots, transform


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
