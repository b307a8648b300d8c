"""Batched second-order forward-mode differentiation.

A :class:`Jet` carries the value, gradient, and Hessian of a scalar quantity
with respect to the coordinates of a chart, for a whole batch of evaluation
points at once (``value`` has shape ``(n,)``, ``grad`` shape ``(n, d)``,
``hess`` shape ``(n, d, d)``).  Arithmetic propagates derivatives by the chain
rule, so any expression composed from the operations below carries exact first
and second derivatives up to roundoff, with no symbolic machinery and no step
size to tune.

Taking a coordinate partial of a jet (:meth:`Jet.partial`) produces a jet one
order lower: the result's gradient comes from the parent's Hessian, and its
own Hessian is unknown.  Missing orders are stored as ``None`` and raise
:class:`~hamflow.errors.JetOrderError` when consumed, rather than silently
reading zeros.

Plain numbers (``int``, ``float``, numpy scalars) and numpy arrays that
broadcast to the batch shape ``(n,)`` are constants, with zero derivatives of
every order.  They never become jets: ``x + c`` and ``x - c`` shift the value
and keep ``x``'s own derivative arrays, ``x * c`` scales value and
derivatives by ``c``, ``x / c`` is ``x * (1.0 / c)`` and ``c / x`` is the
reciprocal of ``x`` scaled by ``c``.  Values are bitwise those of lifting
``c`` to a zero-derivative jet and applying the sum, product and quotient
rules, and so are derivatives, with two deliberate differences:

* a -0.0 derivative entry keeps its sign (the lifted route added +0.0 * v
  and could turn it into +0.0);
* a non-finite value no longer turns the derivatives of a product with a
  constant into NaN (the lifted route added 0 * inf); the value itself stays
  non-finite.

Derivative arrays are shared between jets, so jets are immutable: no code
writes into a jet's ``value``, ``grad`` or ``hess`` in place.  Products,
:func:`_lift` and :func:`atan2` add their terms into the result array they
have just allocated, in the operation order of the written-out sum, so the
bits are the sum's; only such a fresh result is ever written in place.
NumPy defers ``ndarray op jet`` to the jet's reflected operators.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import JetOrderError

Array = np.ndarray

_SCALARS = (int, float, np.floating, np.integer)


class Jet:
    """Value plus first/second derivatives of a batch of scalars."""

    __slots__ = ("value", "grad", "hess")
    # numpy defers to the reflected operators below instead of building an
    # object array of jets from ``ndarray op jet``
    __array_ufunc__ = None

    def __init__(self, value: Array, grad: Array | None, hess: Array | None):
        self.value = value
        self.grad = grad
        self.hess = hess

    # ------------------------------------------------------------------
    # introspection

    @property
    def order(self) -> int:
        if self.grad is None:
            return 0
        if self.hess is None:
            return 1
        return 2

    @property
    def n(self) -> int:
        return self.value.shape[0]

    @property
    def dim(self) -> int:
        if self.grad is None:
            raise JetOrderError("order-0 jet has no coordinate dimension attached")
        return self.grad.shape[1]

    def require(self, order: int) -> None:
        if self.order < order:
            raise JetOrderError(f"jet carries order {self.order}, order {order} required")

    def partial(self, j: int) -> "Jet":
        """Coordinate partial d/dx_j, one derivative order lower."""
        self.require(1)
        g = None if self.hess is None else self.hess[:, j, :].copy()
        return Jet(self.grad[:, j].copy(), g, None)

    # ------------------------------------------------------------------
    # arithmetic

    def _scale(self, c) -> "Jet":
        """Product with a constant: a float, or an array broadcast to the batch."""
        gc = hc = c
        if isinstance(c, np.ndarray):
            gc, hc = c[:, None], c[:, None, None]
        g = None if self.grad is None else self.grad * gc
        h = None if self.hess is None else self.hess * hc
        return Jet(self.value * c, g, h)

    def __add__(self, other):
        if isinstance(other, Jet):
            g = None if (self.grad is None or other.grad is None) else self.grad + other.grad
            h = None if (self.hess is None or other.hess is None) else self.hess + other.hess
            return Jet(self.value + other.value, g, h)
        c = _constant(other, self.value.shape)
        if c is None:
            return NotImplemented
        return Jet(self.value + c, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        g = None if self.grad is None else -self.grad
        h = None if self.hess is None else -self.hess
        return Jet(-self.value, g, h)

    def __sub__(self, other):
        if isinstance(other, Jet):
            g = None if (self.grad is None or other.grad is None) else self.grad - other.grad
            h = None if (self.hess is None or other.hess is None) else self.hess - other.hess
            return Jet(self.value - other.value, g, h)
        c = _constant(other, self.value.shape)
        if c is None:
            return NotImplemented
        return Jet(self.value - c, self.grad, self.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = _constant(other, self.value.shape)
            return NotImplemented if c is None else self._scale(c)
        a, b = self, other
        val = a.value * b.value
        grad = None
        hess = None
        if a.grad is not None and b.grad is not None:
            grad = a.grad * b.value[:, None]
            grad += b.grad * a.value[:, None]
            if a.hess is not None and b.hess is not None:
                cross = a.grad[:, :, None] * b.grad[:, None, :]
                hess = a.hess * b.value[:, None, None]
                hess += b.hess * a.value[:, None, None]
                hess += cross
                hess += np.swapaxes(cross, 1, 2)
        return Jet(val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        c = _constant(other, self.value.shape)
        return NotImplemented if c is None else self._scale(np.divide(1.0, c))

    def __rtruediv__(self, other):
        c = _constant(other, self.value.shape)
        return NotImplemented if c is None else self._reciprocal()._scale(c)

    def _reciprocal(self) -> "Jet":
        v = self.value
        return _lift(self, 1.0 / v, lambda: (-1.0 / v**2, 2.0 / v**3))

    def __pow__(self, p):
        if not isinstance(p, _SCALARS):
            return NotImplemented
        p = float(p)
        v = self.value
        return _lift(self, v**p, lambda: (p * v ** (p - 1), p * (p - 1) * v ** (p - 2)))

    def sq(self) -> "Jet":
        """Square, cheaper and safer than the generic power chain rule."""
        return self * self


def _constant(other, shape: tuple):
    """A constant operand as a float or a float array broadcast to ``shape``; None otherwise."""
    if isinstance(other, _SCALARS):
        return float(other)
    if isinstance(other, np.ndarray):
        return np.broadcast_to(np.asarray(other, dtype=float), shape)
    return None


def _lift(x: Jet, f: Array, derivs: Callable[[], tuple[Array, Array]]) -> Jet:
    """Apply a scalar function with values ``f`` to a jet; ``derivs()`` gives its first
    and second derivatives, called only for a jet with a gradient (they blow up at
    points where an order-0 value is still finite, such as sqrt at 0)."""
    grad = None
    hess = None
    if x.grad is not None:
        fp, fpp = derivs()
        grad = fp[:, None] * x.grad
        if x.hess is not None:
            outer = x.grad[:, :, None] * x.grad[:, None, :]
            outer *= fpp[:, None, None]
            hess = fp[:, None, None] * x.hess
            hess += outer
    return Jet(f, grad, hess)


# ----------------------------------------------------------------------
# elementary functions


def sqrt(x: Jet) -> Jet:
    r = np.sqrt(x.value)
    return _lift(x, r, lambda: (0.5 / r, -0.25 / (r * x.value)))


def exp(x: Jet) -> Jet:
    e = np.exp(x.value)
    return _lift(x, e, lambda: (e, e))


def log(x: Jet) -> Jet:
    return _lift(x, np.log(x.value), lambda: (1.0 / x.value, -1.0 / x.value**2))


def sin(x: Jet) -> Jet:
    s = np.sin(x.value)
    return _lift(x, s, lambda: (np.cos(x.value), -s))


def cos(x: Jet) -> Jet:
    c = np.cos(x.value)
    return _lift(x, c, lambda: (-np.sin(x.value), -c))


def atan2(y: Jet, x: Jet) -> Jet:
    """Two-argument arctangent of a pair of jets."""
    xv, yv = x.value, y.value
    val = np.arctan2(yv, xv)
    grad = None
    hess = None
    if x.grad is not None and y.grad is not None:
        r2 = xv**2 + yv**2
        fx = -yv / r2
        fy = xv / r2
        grad = fx[:, None] * x.grad
        grad += fy[:, None] * y.grad
        if x.hess is not None and y.hess is not None:
            r4 = r2**2
            fxx = 2 * xv * yv / r4
            fxy = (yv**2 - xv**2) / r4
            fyy = -2 * xv * yv / r4
            gx, gy = x.grad, y.grad
            oxx = gx[:, :, None] * gx[:, None, :]
            oyy = gy[:, :, None] * gy[:, None, :]
            oxy = gx[:, :, None] * gy[:, None, :]
            sym = oxy + np.swapaxes(oxy, 1, 2)
            hess = fx[:, None, None] * x.hess
            hess += fy[:, None, None] * y.hess
            oxx *= fxx[:, None, None]
            hess += oxx
            sym *= fxy[:, None, None]
            hess += sym
            oyy *= fyy[:, None, None]
            hess += oyy
    return Jet(val, grad, hess)


def positive_cube(x: Jet) -> Jet:
    """max(x, 0)^3, its derivatives masked to zero where x <= 0: C^2 at the joint."""
    cube = x * x * x
    mask = x.value > 0.0
    grad = None if cube.grad is None else np.where(mask[:, None], cube.grad, 0.0)
    hess = None if cube.hess is None else np.where(mask[:, None, None], cube.hess, 0.0)
    return Jet(np.where(mask, cube.value, 0.0), grad, hess)


# ----------------------------------------------------------------------
# constructors


def seed(points: Array, order: int) -> list[Jet]:
    """Seed coordinate jets at a batch of points.

    ``points`` has shape ``(n, d)``.  Returns one jet per coordinate, each of
    the requested order, with unit gradients and zero Hessians: views of one
    value and one gradient array, and one Hessian shared, jets being immutable.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    values = pts.T.copy()
    grads = [None] * d
    if order >= 1:
        grads = np.zeros((d, n, d))
        grads[np.arange(d), :, np.arange(d)] = 1.0
    hess = np.zeros((n, d, d)) if order >= 2 else None
    return [Jet(values[j], grads[j], hess) for j in range(d)]


def values(comps) -> Array:
    """The values of evaluated components, one column each: shape ``(n, len(comps))``."""
    return np.stack([c.value for c in comps], axis=1)


def value_at(field: Callable[[list[Jet]], Jet], point: Array) -> float:
    """A scalar field's value at one point, from order-0 jets seeded there."""
    return float(field(seed(np.asarray(point, dtype=float)[None, :], order=0)).value[0])


def constant(value, like: Jet) -> Jet:
    """Constant jet broadcast to the batch of ``like`` (keeps full order)."""
    v = np.broadcast_to(np.asarray(value, dtype=float), like.value.shape).copy()
    grad = None if like.grad is None else np.zeros_like(like.grad)
    hess = None if like.hess is None else np.zeros_like(like.hess)
    return Jet(v, grad, hess)
