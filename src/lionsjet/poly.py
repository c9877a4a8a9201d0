"""Exact polynomial arithmetic: multivariate polynomials, univariate path
polynomials, and small dense tensors.

Coefficients default to `fractions.Fraction` so that identities can be checked
for exact zero; every operation is generic in the scalar type, so the same
code paths run with floats (fast mode) or with `MPoly` coordinates (symbolic
evaluation). A contraction's result, for every number type, is a
`RationalTensor`: int numerators over one denominator for rational data,
the values as given over 1 otherwise, a path value as its list of
xi-coefficients.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text):
    """Parse "p/q", "p" or a decimal number, of any length, into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    num, slash, den = str(text).partition("/")
    try:  # Decimal reads digits without Python's int <-> str digit limit
        if slash and not (num.lstrip().lstrip("+-").isdecimal() and den.rstrip().isdecimal()):
            raise ValueError  # "p/q" takes ints, q unsigned
        value = Fraction(Decimal(num))
        return value / int(Decimal(den)) if slash else value
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {text}") from None
    except (ArithmeticError, ValueError):  # Decimal's InvalidOperation, nan, inf
        raise ValidationError(f"Invalid literal for Fraction: {text!r}") from None


def json_int(text):
    """A JSON int literal as an `int` of any length (`json.load`'s
    `parse_int`): Decimal reads digits without Python's int <-> str limit."""
    return int(Decimal(text))


def format_rational(value):
    """Render a Fraction as "p/q" (or "p" when the denominator is 1), of any length."""
    value = Fraction(value)
    num = str(Decimal(value.numerator))  # Decimal writes digits without the limit
    return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


class MPoly:
    """Sparse polynomial in a fixed number of scalar variables.

    Terms are stored as a dict {exponent tuple: coefficient}. Zero
    coefficients are never stored. Instances are immutable by convention.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, value):
        value = Fraction(value) if isinstance(value, int) else value
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars, index):
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction, float)):
            if not other:
                return not self.terms
            return self.terms == {(0,) * self.nvars: other}
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = out.get(exps, ZERO) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if not other:
                return MPoly(self.nvars)
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(exps, ZERO) + c1 * c2
                if new:
                    out[exps] = new
                else:
                    out.pop(exps, None)
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.nvars, ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, index):
        """Partial derivative with respect to variable `index`."""
        out = {}
        for exps, coeff in self.terms.items():
            k = exps[index]
            if k:
                new = list(exps)
                new[index] = k - 1
                key = tuple(new)
                val = out.get(key, ZERO) + coeff * k
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return MPoly(self.nvars, out)

    def eval(self, values):
        """Evaluate at a sequence of scalars (Fraction, float, MPoly, XiPoly)."""
        total = ZERO
        for exps, coeff in self.terms.items():
            factor = coeff
            for i, e in enumerate(exps):
                if e:
                    factor = factor * values[i] ** e
            total = total + factor
        return total

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=ZERO)

    def map_vars(self, nvars, mapping):
        """Reindex variables: old variable i becomes new variable mapping[i]."""
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * nvars
            for i, e in enumerate(exps):
                if e:
                    new[mapping[i]] += e
            key = tuple(new)
            out[key] = out[key] + coeff if key in out else coeff
        return MPoly(nvars, out)

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e
            )
            coeff = self.terms[exps]
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"


class XiPoly:
    """Univariate polynomial in the interpolation parameter xi.

    Used to carry exact dependence of an integrand on the position along the
    coupling interpolation; integration against (1-xi)^r weights is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, value):
        return cls((value,))

    @classmethod
    def affine(cls, base, slope):
        """base + slope*xi"""
        return cls((base, slope))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, XiPoly):
            return self.coeffs == other.coeffs
        return self.coeffs == XiPoly._coerce(other).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @staticmethod
    def _coerce(value):
        if isinstance(value, XiPoly):
            return value
        return XiPoly((value,)) if value else XiPoly()

    def __add__(self, other):
        other = XiPoly._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return XiPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-XiPoly._coerce(other))

    def __rsub__(self, other):
        return XiPoly._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, XiPoly):
            if not other:
                return XiPoly()
            return XiPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XiPoly()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return XiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = XiPoly.const(ONE)
        for _ in range(n):
            result = result * self
        return result

    def eval(self, xi):
        total = ZERO
        for c in reversed(self.coeffs):
            total = total * xi + c
        return total

    def integrate_weighted(self, r):
        """Exact value of the integral over [0,1] of self(xi) * (1-xi)^r.

        Uses the Beta integral: the integral of xi^k (1-xi)^r equals
        k! r! / (k+r+1)!.
        """
        total = ZERO
        for k, c in enumerate(self.coeffs):
            if c:
                total += c * Fraction(
                    math.factorial(k) * math.factorial(r), math.factorial(k + r + 1)
                )
        return total

    def __repr__(self):
        return f"XiPoly({list(self.coeffs)})"


class Tensor:
    """Small dense tensor of scalars, shape (d, e, e, ..., e)."""

    __slots__ = ("shape", "data")

    def __init__(self, shape, data=None):
        self.shape = tuple(shape)
        size = math.prod(self.shape)
        if data is None:
            self.data = [ZERO] * size
        else:
            data = list(data)
            if len(data) != size:
                raise ValueError("data does not match shape")
            self.data = data

    def _offset(self, idx):
        off = 0
        for n, i in zip(self.shape, idx):
            off = off * n + i
        return off

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return self.data[self._offset(idx)]

    def __setitem__(self, idx, value):
        if isinstance(idx, int):
            idx = (idx,)
        self.data[self._offset(idx)] = value

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Tensor(self.shape, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Tensor(self.shape, [a - b for a, b in zip(self.data, other.data)])

    def scale(self, factor):
        return Tensor(self.shape, [a * factor for a in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and self.data == other.data
        )

    def max_abs(self):
        return max((abs(v) for v in self.data), default=ZERO)

    def frobenius(self):
        return math.sqrt(sum(float(v) * float(v) for v in self.data))

    def map(self, fn):
        return Tensor(self.shape, [fn(v) for v in self.data])

    def to_nested(self):
        """Nested lists (for JSON), innermost axis last."""

        def build(shape, flat):
            if not shape:
                return flat[0]
            step = math.prod(shape[1:])
            return [
                build(shape[1:], flat[i * step : (i + 1) * step])
                for i in range(shape[0])
            ]

        return build(self.shape, self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, data={self.data})"




class RationalTensor:
    """What every contraction returns: entries that are scalars or, for a
    polynomial in the interpolation parameter xi, lists of xi-coefficients,
    over one positive denominator `den`.

    An `exact` tensor (rational data) holds int numerators: sums, rational
    scales, the remainder's path integral (`taylor_integral`) and values at
    a rational xi (`at`) stay in integers. Any other holds the values as
    given (float, symbolic or mixed data), over 1. An exact tensor that
    meets a float scale or xi, or a tensor that is not exact, is first
    divided into Fractions (`_values`): a lifted integer never meets a
    float. Immutable by convention: results may share `data`.
    """

    __slots__ = ("shape", "data", "den", "exact")

    def __init__(self, shape, data, den=1, exact=True):
        self.shape, self.data, self.den, self.exact = tuple(shape), data, den, exact

    def tensor(self):
        """A `Tensor` of the values, each exact entry divided once: a reduced
        Fraction, or an `XiPoly` of them for a polynomial in xi."""
        den, exact, data = self.den, self.exact, []
        for v in self.data:
            if type(v) is list:
                if any(v[1:]):
                    data.append(XiPoly([Fraction(t, den) for t in v] if exact else v))
                    continue
                v = v[0]
            data.append((Fraction(v, den) if v else ZERO) if exact else v)
        return Tensor(self.shape, data)

    def _values(self):
        """The tensor as values over 1: an exact one divided into Fractions."""
        if not self.exact:
            return self
        den = self.den
        data = [[Fraction(t, den) for t in v] if type(v) is list else Fraction(v, den) for v in self.data]
        return RationalTensor(self.shape, data, 1, False)

    def _combine(self, other, sign):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        exact = self.exact and other.exact
        x, y = (self, other) if exact else (self._values(), other._values())
        den = math.lcm(x.den, y.den)
        a, b = den // x.den, sign * (den // y.den)
        return RationalTensor(self.shape, [_lin(u, a, v, b) for u, v in zip(x.data, y.data)], den, exact)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, num, den=1):
        """The tensor times num/den, `den` a positive int: in integers for an
        exact tensor and an int or a Fraction `num`, so that a caller with
        an integer pair builds no Fraction."""
        if not (self.exact and type(num) in (int, Fraction)):
            factor = num / den if type(num) is float else Fraction(num, den)
            data = [
                [t * factor for t in v] if type(v) is list else v * factor
                for v in self._values().data
            ]
            return RationalTensor(self.shape, data, 1, False)
        if type(num) is Fraction:
            num, den = num.numerator, num.denominator * den
        data = self.data if num == 1 else [_lin(x, num, 0, 0) for x in self.data]
        return RationalTensor(self.shape, data, self.den * den)

    def taylor_integral(self, r):
        """Entry by entry, the integral over [0, 1] of v(xi) (1 - xi)^r / r!
        (the value at xi = 1 when r < 0).

        The Beta integral gives xi^k the weight k! / (k + r + 1)!, so over
        the denominator top! = (K + r)!, for entries of at most K
        coefficients, xi^k weighs `_beta_weights(top, r)[k]` in an exact
        tensor. Values that are not exact take those weights over top! times
        r!, that is k! r! / (k + r + 1)!, and then 1/r!, one Fraction each,
        as `XiPoly.integrate_weighted` does."""
        if r < 0:
            return self.at(1)
        data = self.data
        top = max([len(v) for v in data if type(v) is list] or [1]) + r
        weights = _beta_weights(top, r)
        full = weights[0] * math.factorial(r + 1)  # top!
        if not self.exact:
            fr = math.factorial(r)
            beta = [Fraction(w * fr, full) for w in weights]
            inverse = Fraction(1, fr)
            data = [sum(c * w for c, w in zip(v if type(v) is list else [v], beta) if c) * inverse for v in data]
            return RationalTensor(self.shape, data, 1, False)
        data = [v * weights[0] if type(v) is int else sum(c * w for c, w in zip(v, weights)) for v in data]
        return RationalTensor(self.shape, data, self.den * full)

    def at(self, xi):
        """Entry by entry the value at the interpolation parameter `xi`: in
        integers for an exact tensor and an int or a Fraction p/q, where over
        the denominator q^K, for entries of at most K + 1 coefficients, xi^k
        weighs p^k * q^(K - k). Otherwise by Horner's rule on the values."""
        if not (self.exact and type(xi) in (int, Fraction)):
            data = [XiPoly(v).eval(xi) if type(v) is list else v for v in self._values().data]
            return RationalTensor(self.shape, data, 1, False)
        p, q = xi.numerator, xi.denominator
        top = max([len(v) for v in self.data if type(v) is not int] or [1]) - 1
        weights = [p**k * q ** (top - k) for k in range(top + 1)]
        data = [v * weights[0] if type(v) is int else sum(c * w for c, w in zip(v, weights)) for v in self.data]
        return RationalTensor(self.shape, data, self.den * q**top)


def _beta_weights(top, r):
    """The integers k! * top! / (k + r + 1)! for k = 0..top - r - 1, each
    from the one before: w(0) = top! / (r + 1)! and w(k + 1) = w(k) *
    (k + 1) / (k + r + 2), a division without remainder since w(k + 1) is
    an integer."""
    w = math.prod(range(r + 2, top + 1))
    weights = [w]
    for k in range(top - r - 1):
        w = w * (k + 1) // (k + r + 2)
        weights.append(w)
    return weights


def _lin(x, a, y, b):
    """x * a + y * b for scalars a, b and entries x, y that are scalars or
    xi-coefficient lists."""
    if type(x) is not list and type(y) is not list:
        return x * a + y * b
    x = x if type(x) is list else [x]
    y = y if type(y) is list else [y]
    out = [t * a for t in x] + [0] * (len(y) - len(x))
    for k, t in enumerate(y):
        out[k] += t * b
    return out
