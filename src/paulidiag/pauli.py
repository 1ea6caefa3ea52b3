"""Pauli strings in symplectic bit-mask form.

A Pauli string on n qubits is stored as a pair of integer masks: bit q of
``x_mask`` / ``z_mask`` says whether the factor on qubit q contains X / Z.
The four single-qubit cases are I=(0,0), X=(1,0), Y=(1,1), Z=(0,1), with the
convention Y = i X Z. Qubit 0 is the leftmost character of the text form and
the lowest mask bit.

Strings compose as c = a*b with c.x = a.x ^ b.x, c.z = a.z ^ b.z and a global
phase i^k, k mod 4. Phases are tracked separately so the string type itself
stays phase-free and hashable. ``multiply_masks`` applies the same rule to
whole arrays of masks at once, for table builds that would otherwise call
``multiply`` per entry.

``pack_keys`` packs masks into int64 keys x << MAX_QUBITS | z, which sort in
PauliString order for a fixed n; diagonal strings are the keys below
1 << MAX_QUBITS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}
_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
PHASES = np.array(_PHASE_VALUES, dtype=complex)


class PauliParseError(ValueError):
    """Raised for malformed Pauli words; carries the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        super().__init__(f"bad Pauli word {text!r} at position {pos}: {reason}")


@functools.total_ordering
@dataclass(frozen=True)
class PauliString:
    """Phase-free tensor product of single-qubit Paulis on n qubits."""

    n: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside [1, {MAX_QUBITS}]")
        full = (1 << self.n) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError(
                f"masks ({self.x_mask:#x}, {self.z_mask:#x}) out of range for n={self.n}"
            )

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_word(cls, word: str) -> "PauliString":
        return parse(word)

    @classmethod
    def from_ops(cls, n: int, ops: dict[int, str]) -> "PauliString":
        """Build from a sparse map {qubit: 'X'|'Y'|'Z'}; other qubits are I."""
        x = z = 0
        for q, ch in ops.items():
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} outside [0, {n})")
            try:
                xb, zb = _CHAR_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {ch!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    @property
    def word(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(self.x_mask >> q) & 1, (self.z_mask >> q) & 1]
            for q in range(self.n)
        )

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def is_diagonal(self) -> bool:
        """Diagonal in the computational basis, i.e. no X content."""
        return self.x_mask == 0

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def __lt__(self, other: "PauliString") -> bool:
        # the order of pack_keys, by which the support tables sort strings
        return (self.n, self.x_mask, self.z_mask) < (other.n, other.x_mask, other.z_mask)

    def __repr__(self) -> str:
        return f"PauliString({self.word!r})"


def parse(text: str, n: int | None = None) -> PauliString:
    """Parse a Pauli word like "XIZY". Qubit 0 is the leftmost letter.

    If n is given the word length must match it exactly.
    """
    if n is not None and len(text) != n:
        raise PauliParseError(text, len(text), f"expected {n} letters, got {len(text)}")
    if not text:
        raise PauliParseError(text, 0, "empty word")
    if len(text) > MAX_QUBITS:
        raise PauliParseError(text, MAX_QUBITS, f"more than {MAX_QUBITS} qubits")
    x = z = 0
    for q, ch in enumerate(text):
        bits = _CHAR_TO_BITS.get(ch)
        if bits is None:
            raise PauliParseError(text, q, f"unknown letter {ch!r}")
        x |= bits[0] << q
        z |= bits[1] << q
    return PauliString(len(text), x, z)


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b = i^k * c, returned as (i^k, c), i^k one of the exact
    complex values 1, 1j, -1, -1j (PHASES[k & 3]).

    Writing each factor as i^{x.z} X^x Z^z and moving every Z of a past every
    X of b gives k = w(ax&az) + w(bx&bz) - w(cx&cz) + 2 w(az&bx), w the bit count.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    cx = a.x_mask ^ b.x_mask
    cz = a.z_mask ^ b.z_mask
    k = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (cx & cz).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    )
    return _PHASE_VALUES[k & 3], PauliString(a.n, cx, cz)


def multiply_masks(ax, az, bx, bz) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of ``multiply``: a*b = i^k c elementwise, returned as (k, cx, cz).

    The four mask arrays (int32 or int64) broadcast against each other, so
    ``multiply_masks(ax[:, None], az[:, None], bx, bz)`` forms every product
    a_i * b_j at once. k is reduced to 0..3 (uint8), the phase rule is that
    of ``multiply`` with w = np.bitwise_count: its uint8 sums wrap mod 256,
    which leaves k mod 4 unchanged.
    """
    cx = ax ^ bx
    cz = az ^ bz
    w = np.bitwise_count
    k = w(ax & az) + w(bx & bz) - w(cx & cz) + 2 * w(az & bx)
    return k & 3, cx, cz


def string_masks(strings, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """The x and z masks of a sequence of strings, as two arrays."""
    x = np.array([p.x_mask for p in strings], dtype=dtype)
    z = np.array([p.z_mask for p in strings], dtype=dtype)
    return x, z


def pack_keys(x, z) -> np.ndarray:
    """Packed int64 keys x << MAX_QUBITS | z of int32 or int64 masks or ints."""
    return (np.asarray(x, dtype=np.int64) << MAX_QUBITS) | z


def unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) masks of packed keys; PauliString(n, x, z) rebuilds a string."""
    return keys >> MAX_QUBITS, keys & ((1 << MAX_QUBITS) - 1)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff [a, b] = 0; strings either commute or anticommute."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    sym = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return sym % 2 == 0
