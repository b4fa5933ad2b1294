"""Integral quaternions a + bi + cj + dk and their trace-zero part."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Quaternion:
    """Hamilton quaternion with integer coefficients, identified with Z^4."""

    x0: int
    x1: int
    x2: int
    x3: int

    @classmethod
    def from_vec4(cls, v) -> "Quaternion":
        return cls(int(v[0]), int(v[1]), int(v[2]), int(v[3]))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if isinstance(other, int):
            return Quaternion(self.x0 * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        a0, a1, a2, a3 = self.x0, self.x1, self.x2, self.x3
        b0, b1, b2, b3 = other.x0, other.x1, other.x2, other.x3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def nr(self) -> int:
        """Reduced norm, the squared Euclidean length of the coefficient vector."""
        return self.x0 ** 2 + self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2


@dataclass(frozen=True)
class TracelessQuaternion:
    """Element of the trace-zero lattice, identified with a vector in Z^3."""

    x1: int
    x2: int
    x3: int

    def vec3(self) -> tuple[int, int, int]:
        return (self.x1, self.x2, self.x3)

    def __neg__(self) -> "TracelessQuaternion":
        return TracelessQuaternion(-self.x1, -self.x2, -self.x3)

    def nr(self) -> int:
        return self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2
