"""Input document format and report serialization.

The normative on-disk format is JSON with a fixed key set:

.. code-block:: json

    {
      "label": "sl2_mod_normalizer",
      "p": 1,
      "root_datum": {
        "standard": {
          "type": "A", "rank": 1,
          "isogeny": "simply-connected",
          "central_torus_rank": 0
        }
      },
      "lattice": [[4]],
      "colors": [[2]]
    }

Each object gives each of its keys once: ``parse`` refuses a repeated
key, naming it and its object, where the decoder alone would keep the
last value.  ``root_datum`` is either ``standard`` as above or
``explicit: {rank, simple_roots, simple_coroots}``.  ``lattice`` lists
the r weight-basis generators as integer vectors of length d (character
lattice coordinates); ``colors`` lists the m color functionals as integer
vectors of length r (values on the weight basis).

Documents and structured reports are written in one canonical format:
sorted keys, two-space indent, one list entry per line, ASCII with
``\\uXXXX`` escapes, and a trailing newline, so they round-trip
bit-exactly and diff cleanly.  These are the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.  The writer here
writes them: before CPython 3.13 that call runs in pure Python under an
indent, and from 3.13 its C encoder is no faster on a group case.  The
writer's cost follows the support of the data.  A row of ints that is
mostly zeros, as the matrices of a group case are, costs its nonzero
entries: each run of zeros is a slice of one run of zero text.  A
denser row is one join, and a matrix is one call.  A report echoes its
input, whose ``root_datum``, ``lattice`` and ``colors`` are the same at
every p: a datum renders them on its first structured report and holds
them the way it holds its core, so its ``with_char_exponent`` copies
share them and each report splices them in.
"""

from __future__ import annotations

import json
import sys
from itertools import compress
from typing import Any

from .intmat import _INT_ONLY, IntMatrix
from .lattices import FinGenAbQuotient
from .root_data import ADJOINT, SIMPLY_CONNECTED, RootDatum, build_standard
from .spherical import PiResult, Report, SphericalDatum

# largest total rank a document may declare: a few bytes of text would
# otherwise make parse build rank-sized matrices
MAX_RANK = 512
# largest number of colors and largest entry size in bits: the cost of a
# report grows with both, so a long document cannot make it unbounded
MAX_COLORS = 2 * MAX_RANK
MAX_ENTRY_BITS = 256

# the keys of each object, in the order of the documentation
_TOP_KEYS = ("label", "p", "root_datum", "lattice", "colors")
_STANDARD_KEYS = ("type", "rank", "isogeny", "central_torus_rank")
_EXPLICIT_KEYS = ("rank", "simple_roots", "simple_coroots")


class ParseError(ValueError):
    """Malformed input document; the message names the offending key."""


class _Repeats(dict):
    """An object of the document that gives ``key`` more than once."""

    key: str


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """The ``object_pairs_hook`` of :func:`parse`: a dict, marked as a
    :class:`_Repeats` when a key repeats, which :func:`_expect_object`
    rejects with the name of the object."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _Repeats(obj)
        seen = set()
        for key, _ in pairs:
            if key in seen:
                obj.key = key
                break
            seen.add(key)
    return obj


def _expect_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"'{where}' must be an object")
    if isinstance(value, _Repeats):
        raise ParseError(f"key '{value.key}' is repeated in '{where}'")
    return value


def _expect_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    """Exactly ``keys``; an error names the first offender in order."""
    for k in obj:
        if k not in keys:
            raise ParseError(f"unknown key '{k}' in {where}")
    for k in keys:
        if k not in obj:
            raise ParseError(f"missing required key '{k}' in {where}")


def _expect_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"'{where}' must be an integer")
    return value


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"'{where}' must be a string")
    return value


def _expect_vector(value: Any, where: str, length: int) -> tuple[int, ...]:
    """The entries as a tuple of ints of at most ``MAX_ENTRY_BITS`` bits."""
    if not isinstance(value, list):
        raise ParseError(f"'{where}' must be a list of integers")
    if len(value) != length:
        raise ParseError(f"'{where}' has length {len(value)}, expected {length}")
    # JSON numbers decode to exact ints, so only a vector holding an
    # offender pays for the per-entry check and its message
    if not _INT_ONLY.issuperset(map(type, value)):
        for j, x in enumerate(value):
            _expect_int(x, f"{where}[{j}]")
    if value and max(max(value), -min(value)).bit_length() > MAX_ENTRY_BITS:
        bits = [abs(x).bit_length() for x in value]
        j = next(j for j, b in enumerate(bits) if b > MAX_ENTRY_BITS)
        raise ParseError(
            f"'{where}[{j}]' has {bits[j]} bits, above the cap of {MAX_ENTRY_BITS}"
        )
    return tuple(value)


def _expect_vector_list(
    value: Any, where: str, length: int, cap: int
) -> list[tuple[int, ...]]:
    if not isinstance(value, list):
        raise ParseError(f"'{where}' must be a list of integer vectors")
    if len(value) > cap:
        raise ParseError(f"'{where}' has {len(value)} rows, above the cap of {cap}")
    return [_expect_vector(v, f"{where}[{i}]", length) for i, v in enumerate(value)]


def _check_rank_cap(rank: int, what: str) -> None:
    if rank > MAX_RANK:
        raise ParseError(f"{what} is {rank}, above the cap of {MAX_RANK}")


def _parse_root_datum(raw: Any) -> RootDatum:
    obj = _expect_object(raw, "root_datum")
    if set(obj) == {"standard"}:
        std = _expect_object(obj["standard"], "root_datum.standard")
        _expect_keys(std, _STANDARD_KEYS, "'root_datum.standard'")
        series = _expect_str(std["type"], "root_datum.standard.type")
        rank = _expect_int(std["rank"], "root_datum.standard.rank")
        isogeny = _expect_str(std["isogeny"], "root_datum.standard.isogeny")
        if isogeny not in (SIMPLY_CONNECTED, ADJOINT):
            raise ParseError(
                f"'root_datum.standard.isogeny' must be '{SIMPLY_CONNECTED}' "
                f"or '{ADJOINT}', got '{isogeny}'"
            )
        ctr = _expect_int(
            std["central_torus_rank"], "root_datum.standard.central_torus_rank"
        )
        _check_rank_cap(rank + ctr, "'root_datum.standard' rank + central_torus_rank")
        try:
            return build_standard(series, rank, isogeny, ctr)
        except ValueError as exc:
            raise ParseError(f"'root_datum.standard': {exc}") from exc
    if set(obj) == {"explicit"}:
        exp = _expect_object(obj["explicit"], "root_datum.explicit")
        _expect_keys(exp, _EXPLICIT_KEYS, "'root_datum.explicit'")
        where = "root_datum.explicit.rank"
        rank = _expect_int(exp["rank"], where)
        if rank < 0:
            raise ParseError(f"'{where}' must be nonnegative, got {rank}")
        _check_rank_cap(rank, f"'{where}'")
        # at most rank vectors of Z^rank are independent
        roots = _expect_vector_list(
            exp["simple_roots"], "root_datum.explicit.simple_roots", rank, rank
        )
        coroots = _expect_vector_list(
            exp["simple_coroots"], "root_datum.explicit.simple_coroots", rank, rank
        )
        try:
            # _expect_vector checked every entry already
            return RootDatum._trusted(rank, tuple(roots), tuple(coroots))
        except ValueError as exc:
            raise ParseError(f"'root_datum.explicit': {exc}") from exc
    raise ParseError(
        "'root_datum' must contain exactly one of the keys 'standard' or 'explicit'"
    )


def parse(text: str) -> SphericalDatum:
    """Parse a document into a structurally validated datum."""
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"syntax error: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except ValueError as exc:
        # the decoder refuses integer literals above the interpreter's limit
        raise ParseError(
            "an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ParseError("the document nests too deeply to read") from exc
    obj = _expect_object(raw, "document")
    _expect_keys(obj, _TOP_KEYS, "the document")
    label = _expect_str(obj["label"], "label")
    p = _expect_int(obj["p"], "p")
    rd = _parse_root_datum(obj["root_datum"])
    # a full-column-rank embedding has at most rd.rank generators
    generators = _expect_vector_list(obj["lattice"], "lattice", rd.rank, rd.rank)
    r = len(generators)
    color_rows = _expect_vector_list(obj["colors"], "colors", r, MAX_COLORS)
    # _expect_vector checked every entry and length already
    embedding = IntMatrix._trusted(r, rd.rank, tuple(generators)).transpose()
    colors = IntMatrix._trusted(len(color_rows), r, tuple(color_rows))
    try:
        return SphericalDatum(rd, embedding, colors, p, label=label)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def document_dict(sd: SphericalDatum) -> dict:
    """Document form of a datum; the root datum is always written explicitly."""
    rd = sd.root_datum
    return {
        "label": sd.label,
        "p": sd.char_exponent,
        "root_datum": {
            "explicit": {
                "rank": rd.rank,
                "simple_roots": [list(v) for v in rd.simple_roots],
                "simple_coroots": [list(v) for v in rd.simple_coroots],
            }
        },
        "lattice": [list(col) for col in sd.lattice_embedding.transpose().entries],
        "colors": [list(row) for row in sd.colors.entries],
    }


_encode_str = json.encoder.encode_basestring_ascii
# ``_STR_ONLY.issuperset(map(type, d))``: every key of d is an exact str
_STR_ONLY = frozenset((str,))


class _Text(str):
    """Canonical text of a value at its place in a document, which
    :func:`_write_canonical` writes as it stands."""


def _join_ints(row: Any, sep: str) -> str:
    """``sep.join(map(int.__repr__, row))``: a row of ints, never bools,
    as ``json.dumps`` writes them, an int subclass as an int.

    A row that is mostly zeros costs its nonzero entries: each run of
    zeros between them is a slice of one run of ``"0" + sep`` text.  A
    denser row keeps the one join, which is faster there.
    """
    n = len(row)
    if 4 * (n - row.count(0)) >= n:
        return sep.join(map(int.__repr__, row))
    width = len(sep) + 1
    zeros = ("0" + sep) * n
    pieces = []
    start = 0
    for j in compress(range(n), row):
        if j > start:
            pieces.append(zeros[: (j - start) * width - len(sep)])
        pieces.append(int.__repr__(row[j]))
        start = j + 1
    if start < n:
        pieces.append(zeros[: (n - start) * width - len(sep)])
    return sep.join(pieces)


def _int_row(row: Any, pad: str) -> str:
    """The text of a nonempty row of ints, never bools, indented by ``pad``."""
    inner = pad + "  "
    sep = ",\n" + inner
    return f"[\n{inner}{_join_ints(row, sep)}\n{pad}]"


def _int_rows(rows: Any, pad: str) -> _Text:
    """The text of a datum's matrix, indented by ``pad``.

    ``IntMatrix`` and ``RootDatum`` refuse bools, so its entries are ints
    and no entry's type is checked.
    """
    if not rows:
        return _Text("[]")
    inner = pad + "  "
    body = (",\n" + inner).join(_int_row(row, inner) if row else "[]" for row in rows)
    return _Text(f"[\n{inner}{body}\n{pad}]")


def _write_canonical(value: Any, pad: str, out: list[str]) -> None:
    """Append ``json.dumps(value, indent=2, sort_keys=True)``, indented by ``pad``.

    A list of exact ints, which is most of a report, is written by
    :func:`_int_row`, and so is each such row of a list, in the call
    that writes the list: a matrix is one call.  A :class:`_Text` is
    written as it stands.  Bools, None, int subclasses and dicts with a
    key that is not an exact str are left to ``json.dumps``, its lines
    shifted by ``pad``.
    """
    if isinstance(value, str):
        out.append(value if type(value) is _Text else _encode_str(value))
    elif type(value) is int:
        out.append(str(value))
    elif isinstance(value, (list, tuple, dict)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        if _INT_ONLY.issuperset(map(type, value)):
            out.append(_int_row(value, pad))
            return
        inner = pad + "  "
        lead = "[\n" + inner
        for x in value:
            out.append(lead)
            lead = ",\n" + inner
            if x and isinstance(x, (list, tuple)) and _INT_ONLY.issuperset(map(type, x)):
                out.append(_int_row(x, inner))
            else:
                _write_canonical(x, inner, out)
        out.append(f"\n{pad}]")
    elif isinstance(value, dict) and _STR_ONLY.issuperset(map(type, value)):
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in sorted(value.items()):
            out.append(f"{sep}{_encode_str(k)}: ")
            # most values of a report are these leaves, written here
            if type(v) is str:
                out.append(_encode_str(v))
            elif type(v) is int:
                out.append(str(v))
            else:
                _write_canonical(v, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{pad}}}")
    else:
        text = json.dumps(value, indent=2, sort_keys=True)
        out.append(text.replace("\n", "\n" + pad))


def dumps_document(doc: dict) -> str:
    """Canonical JSON text of a document or report; see the module docstring."""
    out: list[str] = []
    _write_canonical(doc, "", out)
    return "".join(out) + "\n"


def serialize_datum(sd: SphericalDatum) -> str:
    return dumps_document(document_dict(sd))


def _format_group(free: str, free_rank: int, factors: tuple[int, ...]) -> str:
    """``free^free_rank x Z/d_1 x ...``, with ``1`` for the trivial group."""
    parts = []
    if free_rank:
        parts.append(free if free_rank == 1 else f"{free}^{free_rank}")
    parts.extend(f"Z/{d}" for d in factors)
    return " x ".join(parts) if parts else "1"


def format_quotient(q: FinGenAbQuotient) -> str:
    return _format_group("(Q/Z)", q.divisible_rank, q.invariant_factors)


def format_pi(pi: PiResult) -> str:
    return _format_group("Zhat_{p'}", pi.zhat_rank, pi.invariant_factors)


def _quotient_dict(q: FinGenAbQuotient) -> dict:
    return {
        "divisible_rank": q.divisible_rank,
        "invariant_factors": list(q.invariant_factors),
    }


def _pi_dict(pi: PiResult) -> dict:
    return {
        "zhat_rank": pi.zhat_rank,
        "invariant_factors": list(pi.invariant_factors),
        "p": pi.p,
    }


def _input_block(sd: SphericalDatum) -> dict:
    """The input block of a structured report of ``sd``.

    Its p-free parts are rendered on first use and held like the core of
    :func:`~spherical_pi.spherical.full_report`: ``sd`` and its
    ``with_char_exponent`` copies share them, and every report splices
    them in with its own label and p.
    """
    held = sd._input_block  # type: ignore[attr-defined]
    if not held:
        # the parts of document_dict(sd), each at its place in a report
        rd = sd.root_datum
        explicit = {
            "rank": rd.rank,
            "simple_roots": _int_rows(rd.simple_roots, " " * 8),
            "simple_coroots": _int_rows(rd.simple_coroots, " " * 8),
        }
        out: list[str] = []
        _write_canonical({"explicit": explicit}, "    ", out)
        held.append(
            {
                "root_datum": _Text("".join(out)),
                "lattice": _int_rows(sd.lattice_embedding.transpose().entries, "    "),
                "colors": _int_rows(sd.colors.entries, "    "),
            }
        )
    return {**held[0], "label": sd.label, "p": sd.char_exponent}


def report_dict(report: Report) -> dict:
    return _report_dict(report, document_dict(report.datum))


def _report_dict(report: Report, input_block: dict) -> dict:
    return {
        "label": report.datum.label,
        "p": report.datum.char_exponent,
        "input": input_block,
        "saturation_quotient": _quotient_dict(report.saturation_quotient),
        "ambient_saturation_quotient": _quotient_dict(
            report.ambient_saturation_quotient
        ),
        "pi0": _pi_dict(report.pi0),
        "pi1": _pi_dict(report.pi1),
        "validation": [
            {"check": o.check, "level": o.level, "message": o.message}
            for o in report.validation
        ],
    }


def serialize_report(report: Report, format: str = "text") -> str:
    """Render a report; ``text`` for humans, ``structured`` for machines.

    Structured output is canonical JSON with all invariant factors as
    integer lists and no timestamps, so it is safe to diff and to pin in
    golden files.
    """
    if format == "structured":
        return dumps_document(_report_dict(report, _input_block(report.datum)))
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    p = report.datum.char_exponent
    lines = [
        f"label: {report.datum.label}",
        f"characteristic exponent: {p}",
        "validation:",
    ]
    for o in report.validation:
        lines.append(f"  [{o.level}] {o.check}: {o.message}")
    lines.append(f"saturation quotient: {format_quotient(report.saturation_quotient)}")
    lines.append(
        "ambient saturation quotient: "
        f"{format_quotient(report.ambient_saturation_quotient)}"
    )
    lines.append(f"pi0 p'-part: {format_pi(report.pi0)}")
    lines.append(f"pi1 p'-part: {format_pi(report.pi1)}")
    if p > 1:
        lines.append(
            "note: only prime-to-p parts are computed; "
            "the p-parts of pi0 and pi1 are not determined"
        )
    return "\n".join(lines) + "\n"
