"""Command-line surface: betti, ring, compare, census, verify, classify-file.

Exit codes: 0 success, 1 input error (an unreadable --file among them),
2 mathematically empty result (empty space), 3 internal limits (caps,
solver, memory, a failed write to the output) and failed certificates; a
failed certificate is a fault in this package and is printed as "fault:",
every other exit-3 error as "limit:".
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Sequence, TextIO

from . import __version__
from .errors import CertificateFailure, DimensionMismatch, InputError, PolygonSpacesError
from .lengths import LengthVector, exact_str, indices_of_mask, parse_length_vector
from .lengths import _past_digit_limit, _shown

if TYPE_CHECKING:  # each handler imports the layers it runs when it runs
    from .chambers import ChamberSignature
    from .cohomology import PairVerdict

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EMPTY = 2
EXIT_LIMIT = 3

#: every other typed error (see errors.py), allocations no machine can
#: serve, such as a huge --d in verify, and an output stream that fails,
#: such as a pipe whose reader has gone
_LIMIT_ERRORS = (PolygonSpacesError, MemoryError, OSError)
#: the surrogates that errors="surrogateescape" decodes bad bytes to
_UNDECODED = re.compile("[\udc80-\udcff]")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep exit codes ours
        raise _UsageError(message)


def _fmt_subset(indices: Sequence[int]) -> str:
    return "{" + ",".join(map(str, indices)) + "}"


def _subset_json(mask: int | None) -> list[int] | None:
    return None if mask is None else list(indices_of_mask(mask))


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them
#: how json renders each leaf type; the keys of a dict are str leaves
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda value: _NONFINITE.get(repr(value), repr(value)),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _render(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for a value whose lines
    start with ``indent``, each container one join over its rendered items."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(k)}: {_render(obj[k], inner)}" for k in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [leaf(v) if (leaf := _LEAVES.get(type(v))) else _render(v, inner) for v in obj]
        brackets = "[]"
    else:  # a record, rendered through to_json_obj() as it is written
        return _render(obj.to_json_obj(), indent)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + (",\n" + inner).join(items) + f"\n{indent}{brackets[1]}"


def _emit_json(doc: dict, out: TextIO) -> None:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, with the
    values of a top-level list rendered and written 2^10 at a time: a large
    ``verify`` document joined whole held most of its peak.  Records are
    rendered as they are written, so a document holds them and no copy."""
    for i, (key, value) in enumerate(sorted(doc.items())):
        out.write(("," if i else "{") + f"\n  {encode_basestring_ascii(key)}: ")
        if type(value) is not list or not value:
            out.write(_render(value, "  "))
            continue
        for start in range(0, len(value), 1 << 10):
            items = [_render(v, "    ") for v in value[start : start + (1 << 10)]]
            out.write(("[" if start == 0 else ",") + "\n    " + ",\n    ".join(items))
        out.write("\n  ]")
    out.write("\n}\n" if doc else "{}\n")


def _int_flag(tok: str) -> int:
    """An integer flag, read as ``int`` reads it.  A bad token is refused as a
    vector token is: a limit past the int-from-str digit limit, otherwise a
    usage error that quotes it in part."""
    try:
        return int(tok)
    except ValueError:
        raise _past_digit_limit(tok, int) or argparse.ArgumentTypeError(
            f"invalid int value: {_shown(tok)}"
        ) from None


def _require_d(args: argparse.Namespace) -> int:
    if args.d < 3:
        raise _UsageError(f"--d must be at least 3, got {args.d}")
    return args.d


def _read_records(
    path: str,
) -> tuple[list[LengthVector], list[ChamberSignature], list[str]]:
    """The vector as read and the chamber signature of its sorted form for
    every accepted line, one subset scan each, and an error line for every
    rejected one: not UTF-8 before its comment, unparsable, nongeneric, or
    with an n other than the first accepted line's."""
    from .chambers import chamber_signature

    vectors, signatures, rejected = [], [], []
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            for number, line in enumerate(handle, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if undecoded := _UNDECODED.search(line):
                    byte = ord(undecoded[0]) - 0xDC00
                    rejected.append(f"error: line {number}: byte {byte:#04x} is not utf-8\n")
                    continue
                try:
                    lv = parse_length_vector(line)
                    if signatures and lv.n != signatures[0].n:
                        raise DimensionMismatch(
                            f"n={lv.n} vs n={signatures[0].n} of the first accepted line"
                        )
                    signatures.append(chamber_signature(lv.ordered()))
                    vectors.append(lv)
                except InputError as exc:
                    rejected.append(f"error: line {number}: {exc}\n")
    except OSError as exc:  # opening or reading --file, not writing output
        raise InputError(str(exc)) from exc
    return vectors, signatures, rejected


# ---------------------------------------------------------------------------
# subcommands


def _cmd_betti(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .cohomology import betti_table, special_tag

    if args.json:
        return _cmd_ring(args, out, err)
    d = _require_d(args)
    lv = parse_length_vector(args.l).ordered()
    table = betti_table(lv, d)
    # the degrees before the header: a degree too long to print is named in
    # the limit line, the lowest first, as under --json
    betti = [f"betti[{exact_str(deg)}] = {dim}\n" for deg, dim in sorted(table.dims.items())]
    out.write(f"vector {lv}  n={lv.n} d={d}  manifold dim {exact_str(table.manifold_dim)}\n")
    out.write(f"a = {list(table.a)}\n")
    out.write(f"b = {list(table.b)}\n")
    if not betti:
        out.write("all Betti numbers vanish: the space is empty\n")
    out.writelines(betti)
    out.write(f"euler = {table.euler}\n")
    if table.note:  # set exactly when a median subset exists
        out.write(f"note: {table.note}\n")
    elif tag := special_tag(table.a):
        out.write(f"special chamber: {tag}\n")
    return EXIT_OK if betti else EXIT_EMPTY


def _cmd_ring(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .cohomology import betti_table, ring_presentation

    d = _require_d(args)
    lv = parse_length_vector(args.l).ordered()
    table = betti_table(lv, d)
    ring = ring_presentation(lv, d)
    empty = not table.dims
    if args.json:  # text prints no degree, so only JSON formats them
        doc = table.to_json_obj()
        doc["ring"] = ring.to_json_obj()
        exact_str(doc["manifold_dim"])  # the top degree, printed even when empty
        _emit_json(doc, out)
    else:
        out.write(f"vector {lv}  n={lv.n} d={d}\n")
        out.write(f"generator degree {d - 1}, variables Z1..Z{lv.n}\n")
        pruned = ", ".join(f"Z{j}" for j in ring.pruned) or "none"
        out.write(f"pruned variables: {pruned}\n")
        if empty:
            out.write("minimal generators: 1 (the quotient is the zero ring)\n")
        else:
            gens = ", ".join(
                "".join(f"Z{j}" for j in indices_of_mask(m)) for m in ring.minimal_generators
            )
            out.write(f"minimal generators: {gens or 'none'}\n")
        if table.note:
            out.write(f"note: {table.note}\n")
    return EXIT_EMPTY if empty else EXIT_OK


def _verdict_line(verdict: PairVerdict) -> str:
    if verdict.diffeomorphic:
        return "Diffeomorphic (same chamber up to permutation); Betti numbers identical"
    betti = "identical" if verdict.betti_equal else "differ"
    return (
        f"NOT diffeomorphic; Betti numbers {betti}; "
        f"witness subset {_fmt_subset(indices_of_mask(verdict.witness))}"
    )


def _cmd_compare(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .cohomology import classify_pair

    d = _require_d(args)
    first = parse_length_vector(args.l)
    second = parse_length_vector(args.l2)
    verdict = classify_pair(first, second, d)
    if args.json:
        _emit_json(
            {
                "n": first.n,
                "d": d,
                "diffeomorphic": verdict.diffeomorphic,
                "betti_equal": verdict.betti_equal,
                "witness": _subset_json(verdict.witness),
                "notes": verdict.notes,
            },
            out,
        )
    else:
        out.write(_verdict_line(verdict) + "\n")
    return EXIT_OK


def _cmd_census(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .chambers import enumerate_chambers

    census = enumerate_chambers(args.n)
    if args.json:
        _emit_json(census.to_json_obj(), out)
    else:
        out.write(f"n={census.n}: {census.count} chambers\n")
        for i, (sig, rep) in enumerate(census.chambers, 1):
            fam = (
                " ".join(map(_fmt_subset, sig.family_indices()))
                or "(empty space)"
            )
            out.write(f"[{i}] representative {rep}  short family: {fam}\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .morse import EmptySpaceCertificate, _lacunary, critical_data, find_polygon, jacobian_rank

    d = _require_d(args)
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    lv = parse_length_vector(args.l).ordered()
    records = critical_data(lv, d)
    solved = find_polygon(lv, d, seed=args.seed)
    # checked before any output, so a limit leaves stdout bare: the largest
    # index, the entries, then the first record's value, the largest |value|
    exact_str(max(r.index for r in records))
    doc = {"n": lv.n, "d": d, "vector": [exact_str(e) for e in lv.entries]}
    exact_str(records[0].critical_value)
    if not _lacunary(records, d):
        raise CertificateFailure("a Morse index disagrees with its exact Hessian inertia")
    doc["critical"] = records
    doc["lacunary_consistent"] = True
    empty = isinstance(solved, EmptySpaceCertificate)
    if empty:
        doc["realization"] = {
            "empty": True,
            "witness": list(indices_of_mask(solved.witness)),
            "min_residual": exact_str(solved.min_residual),
        }
        doc["jacobian_rank"] = None
    else:
        doc["realization"] = {
            "empty": False,
            "residual": solved.residual,
            "sweeps": solved.sweeps,
            "restarts": solved.restarts,
        }
        doc["jacobian_rank"] = jacobian_rank(lv, solved)
    if args.json:
        _emit_json(doc, out)
    else:
        out.write(f"vector {lv}  n={lv.n} d={d}\n")
        out.write(f"critical records ({len(records)}):\n")
        for r in records:
            out.write(
                f"  J={_fmt_subset(indices_of_mask(r.subset))} "
                f"value={exact_str(r.critical_value)} "
                f"index={r.index} signature={r.hessian_signature}\n"
            )
        if empty:
            out.write(
                f"empty space: witness {_fmt_subset(doc['realization']['witness'])}, "
                f"exact min residual {doc['realization']['min_residual']}\n"
            )
        else:
            out.write(
                f"realization: residual {solved.residual:.3e} after "
                f"{solved.sweeps} sweeps ({solved.restarts} restarts)\n"
            )
            out.write(f"jacobian rank: {doc['jacobian_rank']} (full rank is {lv.n})\n")
        out.write("lacunary consistency: ok\n")
    return EXIT_EMPTY if empty else EXIT_OK


def _cmd_classify_file(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .cohomology import signature_verdict

    d = _require_d(args)
    vectors, signatures, rejected = _read_records(args.file)
    if not vectors and not rejected:
        raise _UsageError(f"no vectors found in {args.file}")
    # formatted before any output, so a limit leaves both streams bare
    entries = [[exact_str(e) for e in v.entries] for v in vectors]
    err.writelines(rejected)
    if not vectors:
        return EXIT_INPUT
    k = len(vectors)
    diffeo = [[True] * k for _ in range(k)]
    betti_eq = [[True] * k for _ in range(k)]
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            verdict = signature_verdict(signatures[i], signatures[j])
            diffeo[i][j] = diffeo[j][i] = verdict.diffeomorphic
            betti_eq[i][j] = betti_eq[j][i] = verdict.betti_equal
            pairs.append((i, j, verdict))
    if args.json:
        _emit_json(
            {
                "d": d,
                "n": vectors[0].n,
                "vectors": entries,
                "diffeomorphic": diffeo,
                "betti_equal": betti_eq,
                "witnesses": [
                    {
                        "i": i,
                        "j": j,
                        "witness": _subset_json(v.witness),
                    }
                    for i, j, v in pairs
                ],
            },
            out,
        )
    else:
        for i, v in enumerate(vectors):
            out.write(f"{i}: {v}\n")
        for i, j, verdict in pairs:
            out.write(f"{i} vs {j}: {_verdict_line(verdict)}\n")
    return EXIT_INPUT if rejected else EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


#: every flag a subcommand may read; its row in build_parser names which
_FLAGS = {
    "--l": dict(required=True, help="comma/space separated side lengths"),
    "--l2": dict(required=True, help="second vector, as --l"),
    "--n": dict(type=_int_flag, required=True, help="number of sides, 3..8"),
    "--file": dict(required=True, help="one vector per line, # comments"),
    "--d": dict(type=_int_flag, required=True, help="ambient dimension, >= 3"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--seed": dict(type=_int_flag, default=0, help="PRNG seed for realization"),
}


def build_parser() -> _Parser:
    # a flag must be spelled in full: argparse would read a prefix as the flag
    parser = _Parser(prog="polygonspaces", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    # the rows name the handlers as they are bound at this call
    for name, handler, flags, summary in (
        ("betti", _cmd_betti, "--l --d --json", "Z2 Betti table of one vector"),
        ("ring", _cmd_ring, "--l --d --json", "cohomology ring presentation"),
        ("compare", _cmd_compare, "--l --l2 --d --json", "diffeomorphism verdict for a pair"),
        ("census", _cmd_census, "--n --json", "all chambers for small n"),
        ("verify", _cmd_verify, "--l --d --json --seed", "critical data, realization, rank test"),
        (
            "classify-file",
            _cmd_classify_file,
            "--file --d --json",
            "pairwise verdicts for a vector file",
        ),
    ):
        sub = subs.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags.split():
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def run(
    argv: Sequence[str] | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = build_parser().parse_args(list(argv) if argv is not None else None)
        code = args.handler(args, out, err)
        out.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_INPUT
    except InputError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CertificateFailure as exc:  # a fault in this package, not a limit
        err.write(f"fault: {exc}\n")
        return EXIT_LIMIT
    except _LIMIT_ERRORS as exc:
        err.write(f"limit: {str(exc) or type(exc).__name__}\n")
        return EXIT_LIMIT


def main() -> None:
    code = run()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # run() has reported a failed write of the output
            pass
    if sys.gettrace() or sys.getprofile():  # coverage, pdb, trace, cProfile
        sys.exit(code)  # report at the normal exit
    os._exit(code)  # every byte is written: skip the interpreter's teardown


if __name__ == "__main__":
    main()
