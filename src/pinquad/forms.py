"""Surface intersection forms and their Z/4-valued quadratic enhancements.

An enhancement q refines a symmetric mod-2 bilinear form via

    q(x + y) = q(x) + q(y) + 2*(x.y)   in Z/4,

and is determined by its values on a basis, which must match the diagonal
of the form mod 2 (set y = x in the law).  Enhancements of closed-surface
forms correspond bijectively to Pin^- structures, so this module stores a
Pin^- structure as nothing but its enhancement.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import index

from .errors import DegenerateFormError, DimensionMismatchError, LimitError, SurgeryObstructionError

MAX_ENHANCEMENT_ENUMERATION_DIM = 12
MAX_ENTRY_BITS = 64  # a Gram entry read from JSON; unimodular forms of the library need 2
_MAX_PACKED_STRIDE = 160  # _split's rows are packed up to this width; the costs cross near 150
_SHAPES: dict[tuple[int, int], tuple[int, ...]] = {}  # _split's (row, ones, fan) by (n, w), packed

# byte 0 -> "0", byte 1 -> "1"; every other byte is not a binary digit
_BIT_DIGITS = b"01" + b"x" * 254
_BITS = bytes.maketrans(b"01", b"\0\1")  # the inverse: a binary digit to its byte
_PARITY = bytes([0, 1, 0, 1]) + b"\xff" * 252  # a value of Z/4 to its parity; 255 past 3
_BIT0, _BIT1 = b"01" * 128, b"0011" * 64  # a value of Z/4 to its bit 0, its bit 1, as a digit


def _json_int(x: object) -> int:
    """A JSON integer; floats, booleans and strings are refused, not coerced."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _check_enumeration_guard(dim: int) -> None:
    if dim > MAX_ENHANCEMENT_ENUMERATION_DIM:
        raise LimitError(
            f"dim {dim} exceeds enhancement enumeration guard {MAX_ENHANCEMENT_ENUMERATION_DIM}"
        )


class Value:
    """An immutable value, equal only to an object of exactly its class with equal fields.

    A subclass names its fields in ``_fields``, in constructor order, and sets its slots in a
    validating ``__init__``, which copies and pickles run again; other slots do not compare.
    ``BilinearForm`` compares by its packed rows, and pickles through its mask constructor unchecked.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class _Gram(Value):
    """A square Gram matrix as JSON {"dim": n, "gram": rows}; a subclass validates and stores it."""

    __slots__ = ()
    _fields = ("dim", "gram")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "_Gram":
        return cls(len(rows), rows)

    def to_json(self) -> dict:
        return {"dim": self.dim, "gram": [list(row) for row in self.gram]}

    @classmethod
    def from_json(cls, data: dict) -> "_Gram":
        dim = _json_int(data["dim"])
        rows = tuple(tuple(map(_json_int, row)) for row in data["gram"])
        if any(x.bit_length() > MAX_ENTRY_BITS for row in rows for x in row):  # before arithmetic
            raise LimitError(f"a Gram entry exceeds entry cap {MAX_ENTRY_BITS} bits")
        return cls(dim, rows)


class BilinearForm(_Gram):
    """Symmetric bilinear form on F2^dim, packed into one integer: row i of the Gram matrix is
    bits i*(dim + 1) to i*(dim + 1) + dim - 1 of ``_bits`` (its bit j is gram[i][j]), and bit
    dim of every row is clear.  That integer alone compares and hashes; ``row_masks`` and
    ``gram`` are views built from it when read, and a pickle carries the row masks."""

    __slots__ = ("dim", "_bits", "_diag")  # _diag: the diagonal, bytes of e_i.e_i

    def __init__(self, dim: int, gram: Sequence[Sequence[int]]):
        try:  # one parse of the joined columns: bytearray() takes only 0-255, int() only bits
            cols = tuple(zip(*gram))  # tuples whatever the rows are; gram if it is symmetric
            joined = b"\0".join(map(bytearray, cols))  # bytearray reads a tuple faster than bytes
            bits = int(joined[::-1].translate(_BIT_DIGITS) or b"0", 2)
            # True only for a square symmetric tuple of tuples: an array compares elementwise
            valid = len(gram) == dim and cols == gram
        except (TypeError, ValueError):
            valid = False
        if valid is not True:  # name the first fault, shape before entries; other row types pass
            if len(gram) != dim or any(len(r) != dim for r in gram):
                raise ValueError(f"Gram matrix is not {dim}x{dim}")
            for i in range(dim):
                for j in range(dim):
                    if index(gram[i][j]) not in (0, 1):  # floats and strings raise TypeError
                        raise ValueError(f"Gram entry ({i},{j}) is {gram[i][j]}, expected a bit")
                    if gram[i][j] != gram[j][i]:
                        raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
            # numpy ints and bools as ints, rows as tuples: the parse above then holds
            return BilinearForm.__init__(self, dim, tuple(tuple(map(index, row)) for row in gram))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_bits", bits)  # a zero byte joins two columns: bit dim of a row
        object.__setattr__(self, "_diag", joined[:: dim + 2])

    @classmethod
    def _from_masks(cls, row_masks: tuple[int, ...]) -> "BilinearForm":
        """The form of trusted row masks, symmetric and within len(row_masks) bits: no checks."""
        form, n = object.__new__(cls), len(row_masks)
        object.__setattr__(form, "dim", n)
        object.__setattr__(form, "_bits", _pack(row_masks, n + 1))
        object.__setattr__(form, "_diag", bytes(r >> i & 1 for i, r in enumerate(row_masks)))
        return form

    def _key(self) -> tuple:
        return self.dim, self._bits

    def __reduce__(self) -> tuple:
        return self._from_masks, (self.row_masks,)

    @property
    def row_masks(self) -> tuple[int, ...]:
        """Row i of the Gram matrix as a bitmask: bit j is gram[i][j]."""
        return tuple(_unpack(self._bits, self.dim, self.dim + 1))

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        n, w = self.dim, self.dim + 1  # one format of the whole integer, read backwards
        bits = f"{self._bits:0{n * w}b}"[::-1].encode().translate(_BITS)
        return tuple([tuple(bits[i * w : i * w + n]) for i in range(n)])


def _pack(rows: Sequence[int], w: int) -> int:
    """Rows into one integer, row i at bit i*w; halved down to 32 rows, so no shift is long."""
    if len(rows) > 32:
        h = len(rows) // 2
        return _pack(rows[:h], w) | _pack(rows[h:], w) << h * w
    return sum(r << i * w for i, r in enumerate(rows))


def _unpack(bits: int, n: int, w: int) -> list[int]:
    """The n rows of w bits that ``_pack`` packed, cut apart by halves the same way."""
    if n > 32:
        h = n // 2
        return _unpack(bits & (1 << h * w) - 1, h, w) + _unpack(bits >> h * w, n - h, w)
    row = (1 << w) - 1
    return [bits >> i * w & row for i in range(n)]


def _functional(rows: Sequence[int], x_bits: int) -> int:
    acc = 0
    m = x_bits
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        acc ^= rows[i]
    return acc


def hyperbolic_form(genus: int) -> BilinearForm:
    """Orthogonal sum of ``genus`` hyperbolic planes [[0,1],[1,0]]."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return BilinearForm._from_masks(tuple(1 << (i ^ 1) for i in range(2 * genus)))


def crosscap_form(crosscaps: int) -> BilinearForm:
    """Identity form of rank ``crosscaps`` (one crosscap class per generator)."""
    if crosscaps < 1:
        raise ValueError("need at least one crosscap")
    return BilinearForm._from_masks(tuple(1 << i for i in range(crosscaps)))


class F2Vector(Value):
    """A vector in F2^dim, coordinates indexed 0..dim-1 (bit i of ``bits``)."""

    __slots__ = _fields = ("dim", "bits")

    def __init__(self, dim: int, bits: int):
        if not 0 <= bits < (1 << dim):
            raise ValueError(f"bit mask {bits:#x} does not fit in dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)


class Covector(F2Vector):
    """A linear functional on F2^dim; <y, x> is the parity of y.bits & x.bits."""

    __slots__ = ()


class Enhancement(Value):
    """A quadratic enhancement, stored by its Z/4 values on the basis."""

    __slots__ = _fields = ("form", "values")

    def __init__(self, form: BilinearForm, values: Sequence[int]):
        values = tuple(values)  # iterated: bytes() would read an array's buffer, not its values
        if len(values) != form.dim:
            raise DimensionMismatchError(f"form has dim {form.dim}, got {len(values)} basis values")
        try:  # one comparison of each value's parity, 255 past 3, with the form's diagonal
            raw = bytes(values)
        except (TypeError, ValueError):  # not all ints in 0-255; "?" has no parity
            raw = b"?"
        if raw.translate(_PARITY) != form._diag:  # the loop names it; bytes() reads index() too
            for i, v in enumerate(values):
                if not 0 <= index(v) <= 3:  # floats, strings and numpy bools raise TypeError
                    raise ValueError(f"basis value {v} at index {i} is not in Z/4")
                if (v & 1) != form._diag[i]:
                    raise ValueError(
                        f"parity constraint violated at index {i}: "
                        f"q(e{i}) = {v} but e{i}.e{i} = {form._diag[i]}"
                    )
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "values", tuple(raw))

    def to_json(self) -> dict:
        return {"form": self.form.to_json(), "values": list(self.values)}

    @classmethod
    def from_json(cls, data: dict) -> "Enhancement":
        return cls(
            BilinearForm.from_json(data["form"]), tuple(_json_int(v) % 4 for v in data["values"])
        )


def eval_q(q: Enhancement, x: F2Vector) -> int:
    """Value of the enhancement on a class, by the closed formula.

    For x with support S this is sum(values[i], i in S) plus twice the number
    of Gram pairs i < j in S, reduced mod 4; it is the unique extension of the
    basis values satisfying the enhancement law.
    """
    if x.dim != q.form.dim:
        raise DimensionMismatchError(f"enhancement dim {q.form.dim}, class dim {x.dim}")
    return _eval_bits(q.form.row_masks, q.values, x.bits)


def _eval_bits(rows: Sequence[int], values: Sequence[int], bits: int) -> int:
    total = 0
    pairs = 0
    m = bits
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        total += values[i]
        pairs += (rows[i] & m).bit_count()  # partners j > i within the support
    return (total + 2 * pairs) & 3


def _split(packed: int, values: Sequence[int], stride: int = 0) -> tuple:
    """(beta, r, null_radical, odd, planes): the form's one orthogonal split, q on its pieces.

    A symmetric form over F2 is an orthogonal sum of classes u with u.u = 1, planes (u, w)
    with u.w = 1 and u.u = w.w = 0, and its radical (Milnor-Husemoller 1973; Kirby-Taylor
    1990).  One loop takes the pieces off one at a time, the rest of the basis moving into
    their complement: the lowest odd class while any is left, else the lowest class, which
    leaves with its lowest partner as a plane, or alone as a radical class if it has none.
    The radical has dimension r, null_radical is whether q is 0 there, and beta is the Brown
    invariant of q on the pieces, which adds up over them (Brown 1972): 2 - q(u) for an odd
    class, 4 for a plane with q = 2 on both classes, else 0.  The pieces depend on the order
    they come off in, but what callers read from them does not: beta, r, null_radical, how
    many odd classes and planes there are, and the Poincare duals they give.  q is ``values``
    on the basis, but only its parities steer, so the Gram diagonal gives the same pieces.

    The work is done on ``packed``, the Gram rows packed into one integer, row i at bits
    i*w to i*w + w - 1 (bit j of it is e_i.e_j), w = ``stride`` or else n + 1 as a
    ``BilinearForm`` packs them; q is two bitmasks, its bits 0 and 1.  Moving the vectors that
    pair with a piece changes no other vector's pairings, so a step adds whole rows to theirs
    alone: what a caller puts at bits n to w - 1 of a row rides along.  Only when the rows
    have such bits, w > n + 1, are ``odd`` and ``planes`` filled, with each piece's row above
    bit n, its class when row i has bit n + i; otherwise both are empty.  Only pairings with
    ``alive`` vectors are read.  A step adds row g to each row v of a set s by one multiply,
    g * (s * fan & ones), where s * fan is a copy of s every w - 1 bits, whose copy v has bit
    v at bit v*w, and neither product carries, as the copies of s lie w - 1 >= n bits apart
    and those of g w apart; a step whose piece pairs with no live vector moves nothing, and
    is skipped.  ``row``, ``ones`` and ``fan`` depend on n and w alone, so each shape's are
    worked out once and kept in ``_SHAPES``.  That multiply reads every digit of g once per
    digit of the rows, so past rows of ``_MAX_PACKED_STRIDE`` bits a step adds row g to each
    row of s by itself, on the rows unpacked into a list, and no shape is kept.
    """
    n = len(values)
    w = stride or n + 1
    rows = None
    if w > _MAX_PACKED_STRIDE:  # one multiply would cost more than adding the rows one by one
        rows = _unpack(packed, n, w)
    else:
        try:
            row, ones, fan = _SHAPES[n, w]
        except KeyError:  # the first split of this shape; fan is 0 at n = 0
            row = (1 << w) - 1
            ones = ((1 << n * w) - 1) // row  # bit v*w for each v < n
            fan = ((1 << n * (w - 1)) - 1) // ((1 << w - 1) - 1 or 1)  # bit k*(w - 1), k < n
            _SHAPES[n, w] = row, ones, fan
    raw = bytes(values)[::-1]  # bits 0 and 1 of q(v_i) are bit i of q0 and of q1, one parse
    q = int(raw.translate(_BIT1) + raw.translate(_BIT0) or b"0", 2)  # q1 << n | q0
    alive = (1 << n) - 1
    q0, q1 = q & alive, q >> n
    carry = w > n + 1  # the rows carry bits above n, so the pieces are collected
    beta, r, null_radical, odd, planes = 0, 0, True, [], []
    while alive:
        pick = q0 & alive or alive  # u.u = q(u) mod 2; once no live class is odd, none becomes so
        bu = pick & -pick
        alive ^= bu
        gu = rows[bu.bit_length() - 1] if rows else packed >> (bu.bit_length() - 1) * w & row
        s = gu & alive
        if q0 & bu:
            if carry:
                odd.append(gu >> n)
            if q1 & bu:  # q(u) = 3
                beta -= 1
            else:  # q(u) = 1
                beta += 1
            if s:  # v + u for each v in s: (v + u).(x + u) = v.x + 1 for v, x in s, the
                # diagonal too, and q(v + u) = q(v) + q(u) + 2: add 1 on s if q(u) = 3, else 3
                q1 ^= q0 & s if q1 & bu else s & ~q0
                q0 ^= s
                if rows:
                    _add_rows(rows, gu, s)
                else:
                    packed ^= gu * (s * fan & ones)
        elif s:  # every live class is even: q is q1 twice
            bw = s & -s
            alive ^= bw
            gw = rows[bw.bit_length() - 1] if rows else packed >> (bw.bit_length() - 1) * w & row
            su, sw = s ^ bw, gw & alive
            qu, qw = q1 & bu, q1 & bw
            if carry:
                planes.append((gu >> n, gw >> n))
            if qu and qw:
                beta += 4
            # two reflections make v orthogonal to u and w: v + (v.w)u + (v.u)w, which pairs
            # with x + (x.w)u + (x.u)w to v.x + (v.u)(x.w) + (v.w)(x.u); q moves by q(u) on sw,
            # by q(w) on su, and by 2 more on both.  Row u goes to sw, row w to su.
            if su | sw:
                q1 ^= su & sw
                if qu:
                    q1 ^= sw
                if qw:
                    q1 ^= su
                if rows:
                    _add_rows(rows, gu, sw)
                    _add_rows(rows, gw, su)
                else:
                    packed ^= gu * (sw * fan & ones) ^ gw * (su * fan & ones)
        else:  # a radical class: q(u) is 0 or 2
            r += 1
            null_radical = null_radical and not q1 & bu
    return beta & 7, r, null_radical, odd, planes


def _add_rows(rows: list[int], g: int, s: int) -> None:
    while s:  # row g added to each row of the set s
        b = s & -s
        rows[b.bit_length() - 1] ^= g
        s ^= b


def value_table(q: Enhancement) -> list[int]:
    """All 2^dim values of the enhancement, indexed by class bitmask.

    Built by doubling: adding basis vector i to every class x supported on
    earlier indices changes q by values[i] + 2*(x.e_i).
    """
    table = [0]
    for vi, row in zip(q.values, q.form.row_masks):  # each x so far lies below row's index
        table += [(t + vi + 2 * ((x & row).bit_count() & 1)) & 3 for x, t in enumerate(table)]
    return table


def enumerate_enhancements(form: BilinearForm) -> Iterator[Enhancement]:
    """All 2^dim enhancements of the form, in binary-counter order.

    Choice bit i toggles values[i] between gram[i][i] and gram[i][i] + 2.  The guard is
    checked at the call, before the first enhancement is asked for.
    """
    _check_enumeration_guard(form.dim)
    return (
        Enhancement(form, tuple(d + 2 * (choice >> i & 1) for i, d in enumerate(form._diag)))
        for choice in range(1 << form.dim)
    )


def torsor_act(q: Enhancement, y: Covector) -> Enhancement:
    """Act on the enhancement by a cohomology class: q'(x) = q(x) + 2*<y, x>."""
    if y.dim != q.form.dim:
        raise DimensionMismatchError(f"enhancement dim {q.form.dim}, covector dim {y.dim}")
    values = tuple((v + 2 * ((y.bits >> i) & 1)) % 4 for i, v in enumerate(q.values))
    return Enhancement(q.form, values)


def poincare_dual(form: BilinearForm, y: Covector) -> F2Vector:
    """The Poincare dual of Theorem 2.1: the class y_hat with <y, x> = y_hat.x for all x."""
    n = form.dim
    if y.dim != n:
        raise DimensionMismatchError(f"form dim {n}, covector dim {y.dim}")
    w = 2 * n + 1  # split, row i carrying e_i at bit n + i
    packed = _pack([g | 1 << n + i for i, g in enumerate(form.row_masks)], w)
    _beta, r, _null, odd, planes = _split(packed, form._diag, w)
    if r:
        raise DegenerateFormError("Poincare dual undefined: degenerate form")
    dual, yb = 0, y.bits
    for u in odd:  # u.u = 1
        dual ^= u * ((yb & u).bit_count() & 1)
    for u, w in planes:  # u.w = 1, u.u = w.w = 0
        dual ^= u * ((yb & w).bit_count() & 1) ^ w * ((yb & u).bit_count() & 1)
    return F2Vector(form.dim, dual)


def isotropic_reduction(q: Enhancement, c: F2Vector) -> Enhancement:
    """Algebraic surgery on a class with q(c) = 0: the enhancement on c-perp/c.

    Checked in order: c nonzero, c.c = 0, q(c) = 0 (each failure raises
    SurgeryObstructionError naming it), then c off the radical; no check splits the form,
    so a degenerate form reduces too.  Because q(x + c) = q(x) for x in c-perp, the
    enhancement descends to cosets; the coset representatives are fixed by zeroing the
    pivot coordinate p of c.  They are e_j + perp_j e_h for j other than p and h, so the
    reduced Gram rows and values are written down from the parent's, one row at a time.
    """
    if c.dim != q.form.dim:
        raise DimensionMismatchError(f"enhancement dim {q.form.dim}, class dim {c.dim}")
    if c.bits == 0:
        raise SurgeryObstructionError("zero class")
    rows, values = q.form.row_masks, q.values
    perp = _functional(rows, c.bits)  # c-perp is the kernel of this functional
    if (perp & c.bits).bit_count() & 1:
        raise SurgeryObstructionError("c.c != 0")
    if _eval_bits(rows, values, c.bits):
        raise SurgeryObstructionError("q(c) != 0")
    if not perp:
        raise DegenerateFormError("surgery class lies in the radical of the form")
    n, p = q.form.dim, (c.bits & -c.bits).bit_length() - 1
    # On the representatives x_p = 0, and x.c = 0 fixes x_h, h the top bit of perp: perp is
    # nonzero (c is off the radical), and h > p if perp has bit p (c.c = 0 needs a second bit).
    h = perp.bit_length() - 1
    gh, qh = rows[h], values[h]
    lo, hi = min(p, h), max(p, h)
    # dropping coordinates lo < hi: bits below lo stay, those between move down 1, above 2
    below, between, above = (1 << lo) - 1, (1 << hi - 1) - (1 << lo), -(1 << hi - 1)
    reduced, reduced_values = [], []
    for j in range(n):
        if j == p or j == h:
            continue
        f, v = rows[j], values[j]
        if perp >> j & 1:  # the representative e_j + e_h
            f ^= gh
            v += qh + 2 * (gh >> j & 1)
        if f >> h & 1:  # its pairing with e_i + perp_i e_h is f_i + perp_i f_h
            f ^= perp
        reduced.append(f & below | f >> 1 & between | f >> 2 & above)
        reduced_values.append(v & 3)
    return Enhancement(BilinearForm._from_masks(tuple(reduced)), reduced_values)
