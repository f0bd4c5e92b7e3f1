"""JSON command-line interface.

Input documents are JSON files of the form

    {"generators": [[1,0],[0,1],[1,1]],
     "mode": "standard",
     "box_table": {"[1,2]": "3"}}

with mode optional (default "standard") and box_table optional; its keys are
JSON-encoded 1-based index lists and its values integers or "p/q" strings.
Supplied entries override the default lattice-count table entry by entry;
a set named twice, in any order of its indices, is bad input, and so is
a key repeated in any object of the document.
An optional "dim", required for an empty generator list, must be a
nonnegative integer equal to the length of every generator; the echo of the
input in each result keeps it.

Results go to stdout as JSON with a stable key order; errors go to stderr as
JSON with a machine-readable "code", which `main` alone maps to the exit
code: 0 ok; 1 "bad-input" (malformed input or arguments) or
"math-precondition" (an out-of-range `eulerian --index` among them); 2
"resource-limit" (a result integer too long for Python's int-to-str
conversion among them); 3 "disagreement" between two computation paths.
Integers beyond 2^53 in magnitude are serialized as decimal strings.
`main` may be called repeatedly in one process; its argument parser is
built on the first call.  One slot keeps the configuration the last
document built, with its enumeration and one map from the mask of each of its
independent sets to the set spelled "[1,2]", from which `matroid` and the
diagnostics write their set lists; a document whose generators and dimension
equal its own reuses them.  Box-table keys are read by `_index_mask`, never
through the map.  The slot also keeps the text of the last document that
loaded on that configuration and what it parsed to: a file read again with
the same text is not parsed or checked again, its table keeps the double
sum's histogram, and its echo keeps the text it was first laid out as, which
every later command on it writes.  A failed load keeps no text, and a
document on other generators empties the slot.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import eulerian, oracle, polycore, zonotope
from .errors import EnumerationLimitError, InternalDisagreementError, LatticeMathError, _integers
from .matroid import VectorConfiguration, _by_prefix
from .polycore import HStarVector, Poly

_BIG = 2**53
_quote = json.encoder.encode_basestring_ascii  # json.dumps' spelling of a string


class _CliError(Exception):
    """Malformed input or arguments: `main` exits 1 with code bad-input."""


class _Sets(tuple):
    """Index sets as the CLI spells them, "[1,2]": a list `_dumps` lays out in bulk."""
    __slots__ = ()


class _Echo(dict):
    """A loaded document's input echo: `_dumps` keeps its layout with the indent it was laid
    out at, so every command on the document shares it."""
    __slots__ = ("laid_out",)


def _dumps(value, newline="\n") -> str:
    """The value as `json.dumps(..., indent=2)` lays it out, in one pass that
    also applies the CLI's rule: integers beyond 2^53 in magnitude become
    decimal strings, Fractions their integer or a "p/q" string, a Poly or
    HStarVector its coefficient list, _Sets the lists its spellings name, and an
    _Echo the layout it keeps.  `newline` carries the current indent."""
    kind = type(value)
    if kind is int:
        return str(value) if -_BIG <= value <= _BIG else f'"{value}"'
    if kind is list or kind is tuple:  # an integer leaf is written in place, without a call
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([
            str(v) if type(v) is int and -_BIG <= v <= _BIG else _dumps(v, inner)
            for v in value]) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([_quote(k) + ": " + (
            str(v) if type(v) is int and -_BIG <= v <= _BIG else _dumps(v, inner))
            for k, v in value.items()]) + newline + "}"
    if kind is _Echo:  # laid out again only at another indent
        kept = getattr(value, "laid_out", None)
        if kept is None or kept[0] != newline:
            kept = value.laid_out = newline, _dumps(dict(value), newline)
        return kept[1]
    if kind is _Sets:  # spellings hold only digits, "," "[" and "]": a "|" parts them
        if not value:
            return "[]"
        inner = newline + "  "
        deeper = inner + "  "
        return "[" + inner + "|".join(value).replace("[", "[" + deeper).replace(
            ",", "," + deeper).replace("]", inner + "]").replace(
            "[" + deeper + inner + "]", "[]").replace("|", "," + inner) + newline + "]"
    if kind is str:
        return _quote(value)
    if value is None or kind is bool:
        return json.dumps(value)
    if kind is Fraction:
        return _dumps(value.numerator) if value.denominator == 1 else f'"{value}"'
    if kind is Poly:
        return _dumps(value.coeffs, newline)
    if kind is HStarVector:
        return _dumps(value.h, newline)
    raise TypeError(f"cannot serialize {kind.__name__}")


def _parse_rational(raw):
    if isinstance(raw, bool):
        raise _CliError("booleans are not valid table values")
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise _CliError(f"cannot parse rational {raw!r}: {exc}")
    raise _CliError(f"table values must be integers or 'p/q' strings, got {raw!r} "
                    "(floats are rejected to keep arithmetic exact)")


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key it repeats: json.load alone
    keeps the last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):  # find the first key seen twice
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _CliError(f"a JSON object names the key {key!r} twice")
            seen.add(key)
    return doc


def _index_mask(key, spelled):
    """The set a box_table key lists, keyed as `zonotope._key_mask` keys it: a key spelled
    as the CLI spells sets, "[1,2]", read through `spelled` (str(i) -> i), any other as JSON."""
    if key[:1] == "[" and key[-1:] == "]":
        mask = 0
        for part in key[1:-1].split(",") if len(key) > 2 else ():
            i = spelled.get(part)
            if i is None or mask >> i & 1:
                break
            mask |= 1 << i
        else:
            return mask
    try:
        indices = json.loads(key)
    except json.JSONDecodeError:
        raise _CliError(f"box_table key {key!r} is not a JSON index list")
    except ValueError as exc:  # an index past the int-string conversion limit
        raise _CliError(f"box_table key {key!r} cannot be read: {exc}")
    if (not isinstance(indices, list)
            or any(not isinstance(i, int) or isinstance(i, bool) for i in indices)):
        raise _CliError(f"box_table key {key!r} is not a list of integers")
    return zonotope._key_mask(indices, len(spelled))


class _Slot:
    """The configuration the last document built, with its spellings, each independent set's
    mask mapped to the set as the CLI spells it, "[1,2]", in independent_sets() order, built
    on the first call that needs them; and the text of the last document loaded on that
    configuration, with the (spec, table, echo) it parsed to."""
    __slots__ = ("config", "names", "text", "loaded")

    def __init__(self):
        self.reset()

    def reset(self, config=None):
        """Hold the configuration, or none, and nothing else."""
        self.config, self.names, self.text, self.loaded = config, None, None, None

    def spellings(self) -> dict:
        """The configuration's spellings.  Building them enumerates, so they are
        asked for only once a command has enumerated."""
        if self.names is None:
            # Sets as json.dumps spells a list compactly, each from its parent's ",1,2"-style spelling.
            spelled = _by_prefix(self.config._minor_gcds, "", lambda parent, i: f"{parent},{i}")
            self.names = {m: f"[{spelled[m][1:]}]" for m in sorted(spelled, key=int.bit_count)}
        return self.names

    def named_pieces(self) -> tuple:
        """Each basis and its IP(B), spelled, lexicographically by basis."""
        name, passive = self.spellings().__getitem__, self.config._passive_sets
        return _Sets(map(name, passive)), _Sets(map(name, passive.values()))


_slot = _Slot()


def _load_input(path):
    """The document's ZonotopeSpec, its box table (None without one) and the
    echo of its input: those of the slot's document if the text is the same."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # a ValueError: not UTF-8
        raise _CliError(f"cannot read {path}: {exc}")
    if text == _slot.text:
        return _slot.loaded
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise _CliError(f"invalid JSON in {path}: {exc}")
    except ValueError as exc:  # an integer past the int-string conversion limit
        raise _CliError(f"cannot read {path}: {exc}")
    if not isinstance(doc, dict) or "generators" not in doc:
        raise _CliError("input document must be an object with a 'generators' key")
    generators = doc["generators"]
    if (not isinstance(generators, list)
            or any(not isinstance(v, list) for v in generators)
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for v in generators for x in v)):
        raise _CliError("'generators' must be a list of integer vectors")
    mode, dim = doc.get("mode", "standard"), doc.get("dim")
    try:
        config = VectorConfiguration(generators, dim)
        if config != _slot.config:  # the matroid reads only the generators and dim
            _slot.reset(config)
        spec = zonotope.ZonotopeSpec(_slot.config, mode)
    except LatticeMathError as exc:
        raise _CliError(str(exc)) from None
    config, table = spec.config, None
    if "box_table" in doc:
        raw_table = doc["box_table"]
        if not isinstance(raw_table, dict):
            raise _CliError("'box_table' must be an object keyed by index lists")
        overrides, spelled = {}, {str(i): i for i in range(1, config.n + 1)}
        for key, raw in raw_table.items():
            mask = _index_mask(key, spelled)
            if mask in overrides:
                raise _CliError(f"box table names the set {zonotope._named(mask)!r} twice")
            overrides[mask] = raw if type(raw) is int else _parse_rational(raw)
        table = zonotope.BoxValuationTable._trusted(  # the counts fill the sets left out
            config, zonotope._checked(config, overrides, None))
        _slot.spellings()  # the table passed, so the configuration is enumerated
    echo = _Echo(generators=config.vectors, **({} if dim is None else {"dim": dim}), mode=mode)
    if "box_table" in doc:
        echo["box_table"] = doc["box_table"]
    _slot.text, _slot.loaded = text, (spec, table, echo)
    return _slot.loaded


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_ehrhart(args):
    spec, table, echo = _load_input(args.input)
    doc = {"command": "ehrhart", "input": echo, "method": args.method}
    formula = oracle_poly = None
    if args.method in ("formula", "both"):
        formula = zonotope.ehrhart(spec, table)
    if args.method in ("oracle", "both"):
        if table is not None:
            raise _CliError("the oracle counts lattice points and cannot honor a "
                            "custom box_table")
        oracle_poly = oracle.ehrhart_via_oracle(spec)
        doc["counts"] = [oracle_poly(n) for n in range(oracle_poly.degree + 2)]
    doc["coefficients"] = formula if formula is not None else oracle_poly
    if args.method == "both":
        agree = formula == oracle_poly
        doc["agree"] = agree
        if not agree:
            raise InternalDisagreementError(
                f"formula gives {formula.coeffs}, oracle gives {oracle_poly.coeffs}")
    return doc


def _cmd_hstar(args):
    spec, table, echo = _load_input(args.input)
    # One double sum: h* is assembled from the histogram the diagnostics show.
    c = zonotope._histogram(spec.config, table)
    h = zonotope._assemble(c, spec.mode)
    doc = {"command": "hstar", "input": echo, "hstar": h, "degree": h.d}
    if args.diagnostics:
        values = spec.config._box_counts if table is None else table._values
        bases, passive = _slot.named_pieces()
        names = _slot.spellings()
        doc["diagnostics"] = {
            "bases": bases,
            "internally_passive": passive,
            "box_table": dict(zip(names.values(), map(values.__getitem__, names))),
            "eulerian_multiplicities": c,
        }
    return doc


_PROPERTIES = ("real-rooted", "unimodal", "alt-inc", "palindromic", "reflexive", "cone")


def _cmd_check(args):
    doc = {"command": "check"}
    if args.hvector is not None:
        try:
            entries = [int(x) for x in args.hvector.split(",")]
        except ValueError:
            raise _CliError(f"cannot parse h-vector {args.hvector!r}")
        h = HStarVector(entries, args.degree)
        doc["source"] = "literal"
    else:
        if args.input is None:
            raise _CliError("check needs an input file or --hvector")
        spec, table, echo = _load_input(args.input)
        h = zonotope.hstar(spec, table)
        doc["source"] = "input"
        doc["input"] = echo
    doc["hstar"] = h
    doc["degree"] = h.d
    wanted = _PROPERTIES if args.properties is None else tuple(args.properties.split(","))
    for name in wanted:
        if name not in _PROPERTIES:
            raise _CliError(f"unknown property {name!r}; choose from {', '.join(_PROPERTIES)}")
    # `reflexive` and `cone` read the same coordinates: those of the counting
    # polynomial in the n^j (1+n)^(d-j) basis, which are h*'s Eulerian ones.
    coords = None
    if "reflexive" in wanted or "cone" in wanted:
        coords = zonotope.express_in_eulerian_basis(h)
    doc["results"] = {name: _check_property(name, h, coords) for name in wanted}
    return doc


def _check_property(name, h, coords):
    if name == "real-rooted":
        p = h.poly()
        if not p:
            return {"value": False, "note": "zero polynomial"}
        return {"value": polycore.is_real_rooted(p)}
    if name == "unimodal":
        ok, peaks = polycore.is_unimodal(h)
        out = {"value": ok}
        if ok:
            out["peaks"] = sorted(peaks)
        else:
            out["witness_index"] = polycore.unimodality_violation(h)
        return out
    if name == "alt-inc":
        ok = polycore.is_alternatingly_increasing(h)
        out = {"value": ok}
        if not ok:
            i, j = polycore.alternating_increase_violation(h)
            out["violated"] = {"lhs_index": i, "rhs_index": j}
        return out
    if name == "palindromic":
        return {"value": polycore.is_palindromic(h)}
    if name == "reflexive":
        return {"value": zonotope.coordinates_symmetric(coords),
                "shifted_power_coordinates": coords}
    if name == "cone":
        return {"value": zonotope.coordinates_in_cone(coords),
                "eulerian_coordinates": coords}
    raise AssertionError(name)


def _cmd_eulerian(args):
    family, d = args.family, args.d
    if d < 1:
        raise _CliError("--d must be at least 1")
    method = args.method or ("recurrence" if family == "A" else "identity")
    if family == "A" and method == "identity":
        raise _CliError("--method identity applies to family B only")
    if family == "B" and method == "recurrence":
        raise _CliError("--method recurrence applies to family A only")
    if args.index is not None:
        if family == "A":
            p = (eulerian.a_j_polynomial_enumerate(d, args.index) if method == "enumerate"
                 else eulerian.a_j_polynomial(d, args.index))
        else:
            if method == "enumerate":
                p = eulerian.b_l_polynomial_enumerate(d, args.index)
            else:
                _integers("l", (args.index,), 1, d)
                p = eulerian.b_l_polynomial_via_a(d - 1, args.index - 1)
    else:
        if family == "A":
            p = (eulerian.eulerian_a_enumerate(d) if method == "enumerate"
                 else eulerian.eulerian_a(d))
        else:
            p = (eulerian.eulerian_b(d) if method == "enumerate"
                 else eulerian.eulerian_b_via_a(d))
    doc = {"command": "eulerian", "family": family, "d": d}
    if args.index is not None:
        doc["index"] = args.index
    doc["method"] = method
    doc["coefficients"] = p
    return doc


def _cmd_matroid(args):
    spec, _, echo = _load_input(args.input)
    config = spec.config
    bases, passive = _slot.named_pieces()  # enumerates
    return {
        "command": "matroid",
        "input": echo,
        "n": config.n,
        "dim": config.dim,
        "rank": config.full_rank,
        "independent_sets": _Sets(_slot.spellings().values()),
        "bases": bases,
        "internally_passive": passive,
        "coloop_free": config.is_coloop_free(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


@cache
def _parser():
    """The argument parser, built on the first call and shared by every later
    one: parsing leaves it as it was."""
    parser = _Parser(prog="zonoehrhart",
                     description="Exact Ehrhart/h* computations for lattice zonotopes")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ehrhart", help="Ehrhart polynomial of a zonotope")
    p.add_argument("input", help="JSON input document")
    p.add_argument("--method", choices=("formula", "oracle", "both"), default="formula")
    p.set_defaults(fn=_cmd_ehrhart)

    p = sub.add_parser("hstar", help="h*-vector of a zonotope")
    p.add_argument("input")
    p.add_argument("--diagnostics", action="store_true")
    p.set_defaults(fn=_cmd_hstar)

    p = sub.add_parser("check", help="coefficient-shape predicates")
    p.add_argument("input", nargs="?")
    p.add_argument("--hvector", help="literal h-vector, e.g. 1,4,1")
    p.add_argument("--degree", type=int, default=None, help="ambient degree for --hvector")
    p.add_argument("--properties", help=f"comma list from: {','.join(_PROPERTIES)}")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("eulerian", help="refined Eulerian polynomials")
    p.add_argument("--family", choices=("A", "B"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--method", choices=("enumerate", "recurrence", "identity"), default=None)
    p.set_defaults(fn=_cmd_eulerian)

    p = sub.add_parser("matroid", help="independent sets, bases, internally passive sets")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_matroid)
    return parser


def _emit_error(message, code, exit_code):
    sys.stderr.write(json.dumps({"error": str(message), "code": code}) + "\n")
    return exit_code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        doc = args.fn(args)
    except _CliError as exc:
        return _emit_error(exc, "bad-input", 1)
    except LatticeMathError as exc:
        return _emit_error(exc, "math-precondition", 1)
    except EnumerationLimitError as exc:
        return _emit_error(exc, "resource-limit", 2)
    except InternalDisagreementError as exc:
        return _emit_error(exc, "disagreement", 3)
    try:
        out = _dumps(doc)
    except ValueError as exc:  # a result integer past the int-string conversion limit
        return _emit_error(f"the result cannot be written: {exc}", "resource-limit", 2)
    sys.stdout.write(out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
