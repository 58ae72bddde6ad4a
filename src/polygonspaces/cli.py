"""Command-line surface: betti, ring, compare, census, verify, classify-file.

Exit codes: 0 success, 1 input error (an unreadable --file among them),
2 mathematically empty result (empty space), 3 internal limits (caps,
solver, memory, a failed write to the output) and failed certificates; a
failed certificate is a fault in this package and is printed as "fault:",
every other exit-3 error as "limit:".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import islice
from typing import Sequence, TextIO

from . import __version__
from .chambers import ChamberSignature, chamber_signature, enumerate_chambers
from .cohomology import (
    PairVerdict,
    betti_table,
    classify_pair,
    ring_presentation,
    signature_verdict,
    special_tag,
)
from .errors import CertificateFailure, DimensionMismatch, InputError, PolygonSpacesError
from .lengths import LengthVector, exact_str, indices_of_mask, parse_length_vector
from .lengths import _past_digit_limit, _shown
from .morse import EmptySpaceCertificate, _lacunary, critical_data, find_polygon, jacobian_rank

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


def _emit_json(doc: dict, out: TextIO) -> None:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, written
    2^16 tokens at a time: joining every token at once held most of a large
    ``verify`` document's peak, and a write per token is slow."""
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while text := "".join(islice(tokens, 1 << 16)):
        out.write(text)
    out.write("\n")


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
    if args.json:
        return _cmd_ring(args, out, err)
    d = _require_d(args)
    lv = parse_length_vector(args.l).ordered()
    table = betti_table(lv, d)
    doc = table.to_json_obj()
    empty = not doc["betti"]
    out.write(f"vector {lv}  n={lv.n} d={d}  manifold dim {exact_str(table.manifold_dim)}\n")
    out.write(f"a = {doc['a']}\n")
    out.write(f"b = {doc['b']}\n")
    if empty:
        out.write("all Betti numbers vanish: the space is empty\n")
    for deg, dim in sorted(doc["betti"].items(), key=lambda kv: int(kv[0])):
        out.write(f"betti[{deg}] = {dim}\n")
    out.write(f"euler = {doc['euler']}\n")
    if doc["note"]:  # set exactly when a median subset exists
        out.write(f"note: {doc['note']}\n")
    elif tag := special_tag(table.a):
        out.write(f"special chamber: {tag}\n")
    return EXIT_EMPTY if empty else EXIT_OK


def _cmd_ring(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
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
    d = _require_d(args)
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    lv = parse_length_vector(args.l).ordered()
    records = critical_data(lv, d)
    solved = find_polygon(lv, d, seed=args.seed)
    exact_str(max(r.index for r in records))  # printed below
    doc = {
        "n": lv.n,
        "d": d,
        "vector": [exact_str(e) for e in lv.entries],
        "critical": [
            {
                "subset": list(indices_of_mask(r.subset)),
                "value": exact_str(r.critical_value),
                "index": r.index,
                "signature": list(r.hessian_signature),
            }
            for r in records
        ],
        "lacunary_consistent": _lacunary(records, d),
    }
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
        for r, c in zip(records, doc["critical"]):
            out.write(
                f"  J={_fmt_subset(c['subset'])} value={c['value']} "
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
        out.write(
            "lacunary consistency: "
            + ("ok" if doc["lacunary_consistent"] else "FAILED")
            + "\n"
        )
    return EXIT_EMPTY if empty else EXIT_OK


def _cmd_classify_file(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
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


_FLAGS = {
    "--d": dict(type=_int_flag, required=True, help="ambient dimension, >= 3"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--seed": dict(type=_int_flag, default=0, help="PRNG seed for realization"),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared flags a subcommand reads, and no others."""
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="polygonspaces", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("betti", help="Z2 Betti table of one vector")
    p.add_argument("--l", required=True, help="comma/space separated side lengths")
    _add_flags(p, "--d", "--json")
    p.set_defaults(handler=_cmd_betti)

    p = subs.add_parser("ring", help="cohomology ring presentation")
    p.add_argument("--l", required=True)
    _add_flags(p, "--d", "--json")
    p.set_defaults(handler=_cmd_ring)

    p = subs.add_parser("compare", help="diffeomorphism verdict for a pair")
    p.add_argument("--l", required=True)
    p.add_argument("--l2", required=True)
    _add_flags(p, "--d", "--json")
    p.set_defaults(handler=_cmd_compare)

    p = subs.add_parser("census", help="all chambers for small n")
    p.add_argument("--n", type=_int_flag, required=True)
    _add_flags(p, "--json")
    p.set_defaults(handler=_cmd_census)

    p = subs.add_parser("verify", help="critical data, realization, rank test")
    p.add_argument("--l", required=True)
    _add_flags(p, "--d", "--json", "--seed")
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("classify-file", help="pairwise verdicts for a vector file")
    p.add_argument("--file", required=True, help="one vector per line, # comments")
    _add_flags(p, "--d", "--json")
    p.set_defaults(handler=_cmd_classify_file)

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
    try:
        sys.stdout.flush()
    except OSError:
        # run() has reported the failed write; as the signal module's docs
        # advise for SIGPIPE, point stdout at devnull, so the interpreter's
        # final flush neither prints nor changes the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
