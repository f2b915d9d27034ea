"""Command-line surface: check, factor, toughness, verify, gen, convert.

Exit codes are a stable contract: 0 = condition holds / factor found / run
clean, 1 = violated / no factor / disagreement / engine error, 2 = usage or
parse error.  A closed standard output (a reader such as `head` that stops
early) ends a command quietly with 1.
Every command reads graphs through `read_graphs`, which detects the format
from the first line that is not blank or a "#" comment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from factorsmith import corpus
from factorsmith.conditions import (
    TOUGHNESS_MAX_N,
    check_iso_condition,
    iso_after_removal,
    isolated_toughness,
    parse_ratio,
)
from factorsmith.factors import verify_fractional
from factorsmith.graphs import (
    Graph,
    GraphFormatError,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    to_dot,
)
from factorsmith.reducer import (
    FixpointUnclassified,
    ReducerError,
    extract_component_factor_detailed,
    verify_certificate,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _starts_edge_list(line: str) -> bool:
    """A header "n" with more tokens, or a leading integer.  Neither can
    start a graph6 line, whose bytes are 63-126: no space, digit or sign."""
    tok = line.split()
    if tok[0] == "n" and len(tok) >= 2:
        return True
    try:
        int(tok[0])
    except ValueError:
        return False
    return True


def read_graphs(lines: Iterable[str]) -> Iterator[tuple[str, Graph]]:
    """(label, graph) pairs from the lines of a text file, read one line at
    a time; blank lines and "#" lines are skipped.  The first other line
    fixes the format: an edge list is the whole input and one graph,
    labelled "edges:0"; graph6 is one graph per line, labelled by the line."""
    lines = iter(lines)
    head = []
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            break
        head.append(raw)
    else:
        raise GraphFormatError("no graphs found in input")
    if _starts_edge_list(line):
        yield "edges:0", parse_edge_list("".join(chain(head, [raw], lines)))
        return
    for raw in chain([raw], lines):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line, parse_graph6(line)


def _graphs_in(path: str) -> Iterator[tuple[str, Graph]]:
    """`read_graphs` over a file, or over standard input for "-"."""
    if path == "-":
        yield from read_graphs(sys.stdin)
        return
    with open(path, "r", encoding="ascii") as fh:
        yield from read_graphs(fh)


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _witness_error(g: Graph, c: Fraction, witness) -> str | None:
    """Why a violating set S fails its re-evaluation, or None."""
    iso = iso_after_removal(g, witness.removed)
    if iso != witness.isolated:
        return "witness isolates a different vertex set"
    if len(iso) <= c * len(witness.removed):
        return "witness does not violate the condition"
    return None


def _factor_error(g: Graph, k: int, cert, h, trace) -> str | None:
    """Why an extracted factor fails its re-validation, or None."""
    if not verify_fractional(g, k, h):
        return "assignment failed re-validation"
    if not verify_certificate(g, cert):
        return "certificate failed re-validation"
    if len(trace.steps) > g.num_edges:
        return "rewrite count exceeded edge budget"
    return None


# --- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    try:
        c = parse_ratio(args.c)
    except ValueError as exc:
        return _error(exc)
    if c <= 0:
        return _error(f"condition ratio must be positive, got {args.c}")
    violated = False
    for label, g in args.graphs:
        witness = check_iso_condition(g, c)
        if witness is None:
            print(f"{label}: holds (iso(G-S) <= {c} |S| for all S)")
            continue
        violated = True
        error = _witness_error(g, c, witness)
        if error is not None:
            print(f"error: {label}: {error}", file=sys.stderr)
            continue
        s = "{" + ",".join(map(str, sorted(witness.removed))) + "}"
        iso = "{" + ",".join(map(str, sorted(witness.isolated))) + "}"
        print(f"{label}: violated S={s} isolates {iso}")
    return EXIT_NEGATIVE if violated else EXIT_OK


def _certificate_json(cert) -> dict:
    return {
        "family": {"kind": "F1" if cert.k == 1 else "F2", "k": cert.k},
        "components": [
            {
                "vertices": list(e.vertices),
                "edges": [list(ed) for ed in e.edges],
                "class": e.cls.label,
            }
            for e in cert.components
        ],
    }


def cmd_factor(args) -> int:
    k = args.k
    if k < 1:
        return _error(f"k must be >= 1, got {k}")
    negative = False
    for label, g in args.graphs:
        try:
            cert, h, trace = extract_component_factor_detailed(g, k)
            error = None if cert is None else _factor_error(g, k, cert, h, trace)
        except ReducerError as exc:
            error = exc
        if error is not None:
            negative = True
            print(f"error: {label}: {error}", file=sys.stderr)
            continue
        if cert is None:
            negative = True
            print(f"{label}: no factor (condition fails)")
            continue
        if args.emit == "json":
            print(json.dumps({"graph": label, "certificate": _certificate_json(cert)}))
        elif args.emit == "dot":
            factor_edges = {e for entry in cert.components for e in entry.edges}
            sys.stdout.write(to_dot(g, highlight=factor_edges))
        else:  # trace
            print(f"# {label}: {len(trace.steps)} rewrite(s)")
            sys.stdout.write(trace.to_text())
            classes = ", ".join(e.cls.label for e in cert.components)
            print(f"# components: {classes}")
    return EXIT_NEGATIVE if negative else EXIT_OK


def cmd_toughness(args) -> int:
    # A graph past the size guard is a usage error for the whole input, so
    # it is refused before any graph is answered.
    for label, g in args.graphs:
        if g.n > TOUGHNESS_MAX_N:
            return _error(f"{label}: isolated toughness supports n <= {TOUGHNESS_MAX_N}, got n = {g.n}")
    for label, g in args.graphs:
        value = isolated_toughness(g)
        if value is None:
            print(f"{label}: infinity")
        else:
            print(f"{label}: {value.numerator}/{value.denominator}")
    return EXIT_OK


def _verify_one(payload) -> dict:
    """Verify records for one payload (label, Graph, ks), one record per k.
    Every answer is re-checked: the witness is re-evaluated, the assignment
    and the certificate are re-validated; a failed re-check or an engine
    error is the record's error."""
    label, g, ks = payload
    records = []
    for k in ks:
        t0 = time.perf_counter()
        c = Fraction(2 * k + 1, 2)
        witness = check_iso_condition(g, c)
        error = None if witness is None else _witness_error(g, c, witness)
        cert = trace_len = None
        try:
            cert_obj, h, trace = extract_component_factor_detailed(g, k)
            if cert_obj is not None:
                trace_len = len(trace.steps)
                error = _factor_error(g, k, cert_obj, h, trace) or error
                cert = _certificate_json(cert_obj)
        except FixpointUnclassified as exc:
            error = f"FIXPOINT_UNCLASSIFIED: {exc}"
        except ReducerError as exc:
            error = f"REDUCER_ERROR: {exc}"
        records.append(
            {
                "graph_id": label,
                "n": g.n,
                "k": k,
                "condition_holds": witness is None,
                "witness": sorted(witness.removed) if witness is not None else None,
                "has_factor": cert is not None,
                "certificate": cert,
                "trace_length": trace_len,
                "agree": error is None and (witness is None) == (cert is not None),
                "error": error,
                "ms": round((time.perf_counter() - t0) * 1000.0, 3),
            }
        )
    return {"graph": label, "records": records}


def _corpus_from_args(args) -> tuple[str, Iterator[Graph]]:
    """The chosen corpus source's name and its (lazy) graph stream."""
    chosen = [
        name
        for name in ("exhaustive", "gnp", "trees", "paths_cycles", "file", "all_trees", "expansion_base")
        if getattr(args, name, None) is not None
    ]
    if len(chosen) != 1:
        raise ValueError("choose exactly one corpus source")
    name = chosen[0]
    if name == "exhaustive":
        return name, corpus.enumerate_exhaustive(args.exhaustive)
    if name == "paths_cycles":
        return name, corpus.paths_and_cycles(args.paths_cycles)
    if name == "file":
        return name, (g for _label, g in _graphs_in(args.file))
    if name == "all_trees":
        return name, corpus.free_trees_upto(args.all_trees)
    spec = getattr(args, name)
    form = {"gnp": "n,p,count", "trees": "n,count", "expansion_base": "k,size,seed"}[name]
    parts = [part.strip() for part in spec.split(",")]
    if len(parts) != form.count(",") + 1:
        raise ValueError(f"{name.replace('_', '-')} spec is {form}, got {spec!r}")
    if name == "expansion_base":
        k, size, seed = map(int, parts)
        return name, iter([corpus.random_expansion_base(k, size, seed)])
    count = int(parts[-1])
    if count < 0:
        raise ValueError(f"{name} count must be >= 0, got {count}")
    seeds = range(args.seed, args.seed + count)
    if name == "gnp":
        n, p = int(parts[0]), parse_ratio(parts[1])
        return name, (corpus.random_gnp(n, p, seed) for seed in seeds)
    return name, (corpus.random_tree(int(parts[0]), seed) for seed in seeds)


def cmd_verify(args) -> int:
    try:
        kind, stream = _corpus_from_args(args)
        ks = [int(x) for x in args.k.split(",")]
        if any(k < 1 for k in ks):
            raise ValueError("k values must be >= 1")
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        payloads = [(f"{kind}:{idx}", g, ks) for idx, g in enumerate(stream)]
    except (ValueError, OSError) as exc:
        return _error(exc)
    t0 = time.perf_counter()
    # The pool starts all its workers on the first submit, so never ask for
    # more than there are graphs or CPUs.
    jobs = min(args.jobs, len(payloads), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_verify_one, payloads, chunksize=16))
    else:
        results = [_verify_one(p) for p in payloads]
    records = [rec for res in results for rec in res["records"]]
    disagreements = sum(1 for r in records if not r["agree"])
    failures = sum(1 for r in records if r["error"])
    report = {
        "graphs": records,
        "summary": {
            "graphs": len(payloads),
            "checked": len(records),
            "agreements": len(records) - disagreements,
            "disagreements": disagreements,
            "failures": failures,
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        },
    }
    if args.emit == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"{len(payloads)} graphs, {len(records)} checks, "
              f"{disagreements} disagreements, {failures} failures")
        for r in records:
            if not r["agree"]:
                print(f"  DISAGREE {r['graph_id']} k={r['k']}: {r['error'] or 'condition vs factor'}")
    return EXIT_OK if disagreements == 0 and failures == 0 else EXIT_NEGATIVE


def cmd_gen(args) -> int:
    try:
        _kind, graphs = _corpus_from_args(args)
        # The generators are lazy, so a bad range surfaces while encoding.
        for g in graphs:
            print(encode_graph6(g))
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as exc:
        return _error(exc)
    return EXIT_OK


def cmd_convert(args) -> int:
    for _label, g in args.graphs:
        if args.to == "g6":
            print(encode_graph6(g))
        elif args.to == "edges":
            sys.stdout.write(format_edge_list(g))
        else:
            sys.stdout.write(to_dot(g))
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-", help="graph6 lines or one edge list; - for stdin")


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exhaustive", type=int, default=None, metavar="N")
    p.add_argument("--gnp", default=None, metavar="n,p,count")
    p.add_argument("--trees", default=None, metavar="n,count")
    p.add_argument("--paths-cycles", dest="paths_cycles", type=int, default=None, metavar="N")
    p.add_argument("--file", default=None, metavar="PATH", help="graph6 lines or one edge list")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="factorsmith", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test iso(G-S) <= c|S| for all S")
    _add_input_args(p)
    p.add_argument("--c", required=True, help="ratio p/q, e.g. 3/2")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factor", help="extract a certified component factor")
    _add_input_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit", choices=["json", "dot", "trace"], default="json")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("toughness", help="exact isolated toughness")
    _add_input_args(p)
    p.set_defaults(func=cmd_toughness)

    p = sub.add_parser("verify", help="batch equivalence run over a corpus")
    _add_corpus_args(p)
    p.add_argument("--k", default="1", help="comma list, e.g. 1,2,3")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--emit", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit corpus graphs as graph6")
    _add_corpus_args(p)
    p.add_argument("--all-trees", type=int, metavar="N", help="all free trees with <= N vertices")
    p.add_argument("--expansion-base", metavar="k,size,seed", help="random base of T(2k+1), k >= 1")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("convert", help="convert between graph formats")
    _add_input_args(p)
    p.add_argument("--to", choices=["g6", "edges", "dot"], required=True)
    p.set_defaults(func=cmd_convert)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    if "input" in args:
        # check, factor, toughness and convert read every graph before they
        # answer, so a bad input exits 2 with nothing printed; the engine runs
        # only after this, so an engine error never exits 2.
        try:
            args.graphs = list(_graphs_in(args.input))
        except (ValueError, OSError) as exc:
            return _error(exc)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output.  Point fd 1 at devnull, so the
        # flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return EXIT_NEGATIVE
    return code


if __name__ == "__main__":
    sys.exit(main())
