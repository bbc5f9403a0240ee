"""Square-free monomials and monomial ideals with exact bit-set arithmetic.

A monomial is the set of variables dividing it, stored as a Python int
bitmask (bit ``i-1`` set means ``x_i`` is present); the empty mask is the
unit monomial.  An ideal is an ambient variable count ``n`` together with
its minimal generating antichain.  Ambient ``n`` may exceed the support.

Bulk kernels read a list of monomials packed as 64-bit words
(``_packed``), eight little-endian bytes each whatever the machine: byte
k of a word holds x_{8k+1}..x_{8k+8}, lowest bit first.  A byte table
then acts on every word at once: ``_DIGITS`` turns bytes into the '0'/'1'
digits of one bit, which ``matroids._holders`` parses into a variable's
column, and ``_REVERSED`` reverses bits, which gives ``_canonical`` its
sort key.

All values are immutable and every operation is a pure function, so
instances are safe to share across concurrent workers.  Two things are set
on an ``Ideal`` after construction, its exchange walk and verdict
(``matroids._walk``, ``matroids._record``), each a function of its fields:
two workers that race to record one record equal values.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable

# The documented input limit on variables, enforced by ``mono`` and
# ``minimal_generators``.  Monomials are Python ints; the bulk kernels
# pack them into 64-bit words and refuse a wider one (``_packed``), and the
# oracle packs its own fields.
MAX_VARS = 64

Monomial = int
UNIT: Monomial = 0


class InvariantViolation(RuntimeError):
    """A fact the underlying theory guarantees failed to hold at runtime."""


class SupportOverlapError(ValueError):
    """Star-product factors must have pairwise disjoint supports."""


class NonSquareFreeProductError(ValueError):
    """A plain ideal product left non-square-free minimal generators.

    The offending exponent vectors are kept on ``offenders`` so callers can
    inspect the honest (non-square-free) product.
    """

    def __init__(self, offenders: tuple[tuple[int, ...], ...]):
        self.offenders = offenders
        shown = ", ".join(_vec_str(v) for v in offenders[:4])
        if len(offenders) > 4:
            shown += ", ..."
        super().__init__(
            f"non-square-free result in square-free context: {shown}"
        )


def _check_ambient(n: int) -> None:
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"ambient variable count must be in 1..{MAX_VARS}, got {n}")


def _check_range(m: Monomial, n: int) -> None:
    if m < 0 or m >> n:
        raise ValueError(f"variable index out of range for n={n}")


def _check_var(x: int, n: int) -> None:
    if not 1 <= x <= n:
        raise ValueError(f"variable x{x} out of range for n={n}")


def _read_index(digits: str, what: str) -> int:
    """A decimal field of the text formats: a variable index or a count.

    A field with more significant digits than ``MAX_VARS`` is refused by
    the range rule before ``int`` reads it, so no length of input reaches
    Python's limit on integer string conversion.
    """
    if len(digits.lstrip("0")) > len(str(MAX_VARS)):
        raise ValueError(f"{what} must be in 1..{MAX_VARS}")
    return int(digits)


def _read_int(digits: str, what: str) -> int:
    """A decimal field with no range of its own: an exponent or a coefficient.

    A field past Python's limit on integer string conversion is refused by
    name, not with the interpreter's advice to raise that limit.
    """
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} has {len(digits)} digits, too many to read") from None


def mono(variables: Iterable[int]) -> Monomial:
    """Bitmask of a square-free monomial from its variable indices."""
    m = 0
    for v in variables:
        if not 1 <= v <= MAX_VARS:
            raise ValueError(f"variable index must be in 1..{MAX_VARS}, got {v}")
        m |= 1 << (v - 1)
    return m


def _packed(monomials: Iterable[Monomial]) -> bytes:
    """Monomials as 64-bit words, eight little-endian bytes each.

    The layout does not depend on the machine's byte order.  A mask of 2^64
    or more is refused with the ``MAX_VARS`` message, never an
    ``OverflowError``.
    """
    try:
        words = array("Q", monomials)
    except OverflowError:
        raise ValueError(f"variable index must be in 1..{MAX_VARS}") from None
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


def _unpacked(data: bytes) -> list[Monomial]:
    """The monomials of ``_packed`` bytes."""
    words = array("Q", data)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


# ``_DIGITS[j]`` maps a byte to b"1" where its bit j is set, else to b"0".
_DIGITS = tuple((b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8))


def _reversal_table() -> bytes:
    """The byte table that reverses the bits of every byte.

    Interleaving the digit tables gives each byte's bits from bit 0 up,
    which read as one binary number are its reversed bits, byte by byte.
    """
    digits = bytearray(8 * 256)
    for j, table in enumerate(_DIGITS):
        digits[j::8] = table
    return int(digits, 2).to_bytes(256, "big")


_REVERSED = _reversal_table()


def _canonical(antichain: Iterable[Monomial]) -> list[Monomial]:
    """An antichain in canonical order: ascending by ``mono_vars`` tuple.

    Needs an antichain.  Of two members, the one holding the lowest
    variable where they differ has the smaller tuple, since no member's
    tuple is a prefix of another's.  With each word's bits reversed, that
    variable is the highest bit where they differ, so the canonical order
    is the descending order of the reversed words.  Reversing packed bytes
    end to end and reversing each byte's bits reverses each word's bits
    and the order of the words, so sorting the reversed words ascending
    and reversing again gives the canonical order.  Fewer than two members
    are already in order.
    """
    antichain = list(antichain)
    if len(antichain) < 2:
        return antichain
    flipped = sorted(_unpacked(_packed(antichain).translate(_REVERSED)[::-1]))
    return _unpacked(_packed(flipped).translate(_REVERSED)[::-1])


def mono_vars(m: Monomial) -> tuple[int, ...]:
    """Ascending variable indices of a monomial."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length())
        m ^= low
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return m.bit_count()


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return a & b == a


def mono_str(m: Monomial) -> str:
    """Render as ``x1*x3``; the unit monomial prints as ``1``."""
    if m == UNIT:
        return "1"
    return "*".join(f"x{v}" for v in mono_vars(m))


def witness_text(failure: str | None, witness: object) -> str:
    """A check's witness with its monomials written as ``x1*x2``.

    Covers the bitmask witnesses of ``check_matroidal`` and ``verify_sv``
    for messages; the others (an exchange triple, a layer index or size)
    print as they are.  The check results keep their ints.
    """
    if failure == "mixed_degrees":
        return ", ".join(mono_str(g) for g in witness)
    if failure == "overlap":
        i, g = witness
        return f"layer {i}, {mono_str(g)}"
    if failure == "pair":
        i, a, b = witness
        return f"layer {i}, {mono_str(a)}, {mono_str(b)}"
    if failure == "union_mismatch":
        missing, extra = witness
        return "; ".join(
            f"{name} [{', '.join(mono_str(g) for g in gens)}]"
            for name, gens in (("missing", missing), ("extra", extra))
        )
    return str(witness)


_MONO_FACTOR = re.compile(r"^x(\d+)$")


def _square_free(variables: list[int]) -> Monomial:
    """``mono`` of parsed variables; a repeated one would be a square."""
    m = mono(variables)
    if m.bit_count() < len(variables):
        repeated = next(v for i, v in enumerate(variables) if v in variables[:i])
        raise ValueError(f"repeated variable x{repeated}: not square-free")
    return m


def parse_mono(text: str) -> Monomial:
    """Parse ``x1*x3`` (or ``1`` for the unit monomial)."""
    text = text.strip()
    if text == "1":
        return UNIT
    variables = []
    for factor in text.split("*"):
        match = _MONO_FACTOR.match(factor.strip())
        if match is None:
            raise ValueError(f"malformed monomial factor {factor!r}")
        variables.append(_read_index(match.group(1), "variable index"))
    return _square_free(variables)


@dataclass(frozen=True)
class Ideal:
    """A square-free monomial ideal: ambient ``n`` plus its generator antichain.

    ``gens`` is assumed divisibility-minimal and canonically sorted (by
    variable tuple); build instances through :func:`minimal_generators`.
    ``check_matroidal``, so also ``MatroidalIdeal``, refuses any other order.
    The whole ring is ``gens == (UNIT,)``; the zero ideal is ``gens == ()``.

    The exchange walk and verdict have their one home here, set the first
    time each is read (``matroids._walk``, ``matroids._record``) outside
    the fields: ``==``, ``hash`` and ``repr`` read only ``n`` and ``gens``.
    """

    n: int
    gens: tuple[Monomial, ...]


def minimal_generators(monomials: Iterable[Monomial], n: int) -> Ideal:
    """Canonicalize an arbitrary generating set to its minimal antichain.

    A distinct square-free monomial of the same degree never divides
    another, so input of a single degree is already an antichain and goes
    straight to the canonical sort: no pairwise work.  Otherwise monomials
    are taken by ascending degree, so any proper divisor is seen before its
    multiples, and each one is compared only against the kept generators
    of strictly lower degree.  The range is checked first either way.
    """
    _check_ambient(n)
    ms = set(monomials)
    if ms and (min(ms) < 0 or max(ms) >> n):
        raise ValueError(f"variable index out of range for n={n}")
    if len(set(map(int.bit_count, ms))) < 2:
        return Ideal(n, tuple(_canonical(ms)))
    lower: list[Monomial] = []  # kept, of lower degree than the current one
    current: list[Monomial] = []  # kept, of the current degree
    degree = -1
    for m in sorted(ms, key=int.bit_count):
        if m.bit_count() != degree:
            degree = m.bit_count()
            lower += current
            current = []
        if not any(g & m == g for g in lower):
            current.append(m)
    return Ideal(n, tuple(_canonical(lower + current)))


def is_zero_ideal(ideal: Ideal) -> bool:
    return not ideal.gens


def is_unit_ideal(ideal: Ideal) -> bool:
    return ideal.gens == (UNIT,)


def support_mask(ideal: Ideal) -> int:
    m = 0
    for g in ideal.gens:
        m |= g
    return m


def support(ideal: Ideal) -> frozenset[int]:
    """Union of the generator supports."""
    return frozenset(mono_vars(support_mask(ideal)))


def has_full_support(ideal: Ideal) -> bool:
    return support_mask(ideal) == (1 << ideal.n) - 1


def _require_full_support(ideal: Ideal) -> None:
    """The one refusal of an ideal whose support misses a variable."""
    if not has_full_support(ideal):
        raise ValueError("support must be all of x1..xn")


def contains(ideal: Ideal, m: Monomial) -> bool:
    """Monomial membership: some generator divides ``m``."""
    _check_range(m, ideal.n)
    return any(g & m == g for g in ideal.gens)


def _vec_str(vec: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(vec, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def product(left: Ideal, right: Ideal) -> Ideal:
    """Minimal generators of the plain ideal product.

    With disjoint supports every pairwise product is square-free and the
    result stays in this representation.  With overlapping supports the
    honest product is computed over exponent vectors; if non-square-free
    generators survive minimalization the product cannot be represented
    here and :class:`NonSquareFreeProductError` is raised, carrying them.
    """
    if left.n != right.n:
        raise ValueError("ambient variable counts differ")
    n = left.n
    if not left.gens or not right.gens:
        return Ideal(n, ())
    if support_mask(left) & support_mask(right) == 0:
        return minimal_generators(
            {a | b for a in left.gens for b in right.gens}, n
        )
    vecs = {
        tuple(((a >> i) & 1) + ((b >> i) & 1) for i in range(n))
        for a in left.gens
        for b in right.gens
    }
    minimal: list[tuple[int, ...]] = []
    for v in sorted(vecs, key=lambda v: (sum(v), v)):
        if not any(all(x <= y for x, y in zip(g, v)) for g in minimal):
            minimal.append(v)
    bad = tuple(v for v in minimal if any(e > 1 for e in v))
    if bad:
        raise NonSquareFreeProductError(bad)
    return minimal_generators(
        {mono(i + 1 for i, e in enumerate(v) if e) for v in minimal}, n
    )


def star_product(factors: Iterable[Ideal]) -> Ideal:
    """Product of ideals with pairwise disjoint supports."""
    factors = list(factors)
    if not factors:
        raise ValueError("star product needs at least one factor")
    n = factors[0].n
    seen = 0
    for f in factors:
        if f.n != n:
            raise ValueError("ambient variable counts differ")
        sm = support_mask(f)
        overlap = sm & seen
        if overlap:
            raise SupportOverlapError(
                f"supports overlap on {{{', '.join(f'x{v}' for v in mono_vars(overlap))}}}"
            )
        seen |= sm
    out = factors[0]
    for f in factors[1:]:
        out = product(out, f)
    return out


def colon_by_var(ideal: Ideal, x: int) -> Ideal:
    """Minimal generators of ``I : <x>``."""
    _check_var(x, ideal.n)
    bit = 1 << (x - 1)
    return minimal_generators(
        {g & ~bit if g & bit else g for g in ideal.gens}, ideal.n
    )


def format_ideal(ideal: Ideal) -> str:
    """Ideal text format: ``n=<int>`` then one generator per line.

    The whole ring has no generator line representation and is rejected;
    the zero ideal round-trips as a bare header.
    """
    if is_unit_ideal(ideal):
        raise ValueError("the whole ring is not representable in the text format")
    lines = [f"n={ideal.n}"]
    for g in ideal.gens:
        lines.append(" ".join(f"x{v}" for v in mono_vars(g)))
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"^n\s*=\s*(\d+)$")


def parse_ideal(text: str) -> Ideal:
    """Parse the ideal text format and minimalize the generator set."""
    n: int | None = None
    monomials: list[Monomial] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            match = _HEADER.match(line)
            if match is None:
                raise ValueError("first line must be 'n=<int>'")
            n = _read_index(match.group(1), "ambient variable count")
            continue
        variables = []
        for token in line.split():
            match = _MONO_FACTOR.match(token)
            if match is None:
                raise ValueError(f"malformed variable token {token!r}")
            variables.append(_read_index(match.group(1), "variable index"))
        monomials.append(_square_free(variables))
    if n is None:
        raise ValueError("missing 'n=<int>' header")
    return minimal_generators(monomials, n)
