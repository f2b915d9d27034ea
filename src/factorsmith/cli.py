"""Command-line surface: check, factor, toughness, verify, gen, convert.

Exit codes are a stable contract: 0 = condition holds / factor found / run
clean, 1 = violated / no factor / disagreement / engine error, 2 = usage or
parse error.  A closed standard output (a reader such as `head` that stops
early) ends a command quietly with 1.
Every command reads graphs through `read_graphs`, which detects the format
from the first line that is not blank or a "#" comment.  A corpus source of
gen and verify is one `_SOURCES` row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Iterable

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


def read_graphs(lines: Iterable[str]) -> list[tuple[str, Graph]]:
    """(label, graph) pairs from the lines of a text file; blank lines and
    "#" lines are skipped.  The first other line fixes the format: an edge
    list is the whole input and one graph, labelled "edges:0"; graph6 is one
    graph per line, labelled by the line."""
    lines = lines if isinstance(lines, list) else list(lines)
    content = (line for line in map(str.strip, lines) if line and not line.startswith("#"))
    first = next(content, None)
    if first is None:
        raise GraphFormatError("no graphs found in input")
    if _starts_edge_list(first):
        return [("edges:0", parse_edge_list("".join(lines)))]
    graphs = [(first, parse_graph6(first))]
    graphs += ((line, parse_graph6(line)) for line in content)
    return graphs


def _read_lines(path: str) -> list[str]:
    """The lines of a file, or of standard input for "-", read once."""
    if path == "-":
        return sys.stdin.readlines()
    with open(path, "r", encoding="ascii") as fh:
        return fh.readlines()


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


# An answer comes with an error, or None if every re-check passed: (message,)
# when a re-check failed, or (TAG, message) and no answer when the engine
# failed.  check and factor print the message; verify prints ": ".join(error).


def _condition(g: Graph, c: Fraction):
    """(witness, error): the violating S, or None if the condition holds."""
    try:
        witness = check_iso_condition(g, c)
        iso = None if witness is None else iso_after_removal(g, witness.removed)
    except Exception as exc:  # an engine self-check failed
        return None, ("ENGINE_ERROR", f"{type(exc).__name__}: {exc}")
    if iso is None:
        return None, None
    if iso != witness.isolated:
        return witness, ("witness isolates a different vertex set",)
    if len(iso) <= c * len(witness.removed):
        return witness, ("witness does not violate the condition",)
    return witness, None


def _factor(g: Graph, k: int):
    """(certificate, trace, error): the extracted factor, or None if none
    exists; the assignment, the certificate and the trace length are
    re-validated."""
    try:
        cert, h, trace = extract_component_factor_detailed(g, k)
        if cert is None:
            return None, None, None
        if not verify_fractional(g, k, h):
            return cert, trace, ("assignment failed re-validation",)
        if not verify_certificate(g, cert):
            return cert, trace, ("certificate failed re-validation",)
    except FixpointUnclassified as exc:
        return None, None, ("FIXPOINT_UNCLASSIFIED", str(exc))
    except ReducerError as exc:
        return None, None, ("REDUCER_ERROR", str(exc))
    except Exception as exc:  # an engine self-check failed
        return None, None, ("ENGINE_ERROR", f"{type(exc).__name__}: {exc}")
    if len(trace.steps) > g.num_edges:
        return cert, trace, ("rewrite count exceeded edge budget",)
    return cert, trace, None


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
        witness, error = _condition(g, c)
        if error is None and witness is None:
            print(f"{label}: holds (iso(G-S) <= {c} |S| for all S)")
            continue
        violated = True
        if error is not None:
            print(f"error: {label}: {error[-1]}", file=sys.stderr)
            continue
        s = "{" + ",".join(map(str, sorted(witness.removed))) + "}"
        iso = "{" + ",".join(map(str, sorted(witness.isolated))) + "}"
        print(f"{label}: violated S={s} isolates {iso}")
    return EXIT_NEGATIVE if violated else EXIT_OK


def _certificate_json(cert) -> dict:
    return {
        "k": cert.k,
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
        cert, trace, error = _factor(g, k)
        if error is not None:
            negative = True
            print(f"error: {label}: {error[-1]}", file=sys.stderr)
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
    for label, g in args.graphs:
        value = isolated_toughness(g)
        if value is None:
            print(f"{label}: infinity")
        else:
            print(f"{label}: {value.numerator}/{value.denominator}")
    return EXIT_OK


def _verify_one(payload) -> list[dict]:
    """Verify records for one payload (label, Graph, ks), one record per k.
    Every answer is re-checked (`_condition`, `_factor`); a failed re-check
    or an engine error is the record's error, the factor's first."""
    label, g, ks = payload
    records = []
    for k in ks:
        t0 = time.perf_counter()
        witness, cond_error = _condition(g, Fraction(2 * k + 1, 2))
        cert, trace, error = _factor(g, k)
        error = error or cond_error
        records.append(
            {
                "graph_id": label,
                "n": g.n,
                "k": k,
                "condition_holds": None if witness is None and cond_error else witness is None,
                "witness": sorted(witness.removed) if witness is not None else None,
                "has_factor": cert is not None,
                "certificate": None if cert is None else _certificate_json(cert),
                "trace_length": None if cert is None else len(trace.steps),
                "agree": error is None and (witness is None) == (cert is not None),
                "error": None if error is None else ": ".join(error),
                "ms": round((time.perf_counter() - t0) * 1000.0, 3),
            }
        )
    return records


# The corpus sources by option name: (metavar, help, make, guard).  make takes
# the value (an int for N; a file is read whole, so a bad line fails first), or
# for a seeded source the metavar's fields but the count (p a ratio) and a seed.
_SOURCES = {
    "exhaustive": ("N", "every labelled graph with exactly N vertices", corpus.enumerate_exhaustive, None),
    "gnp": ("n,p,count", "count random G(n, p) graphs, p written as a/b", corpus.random_gnp, corpus.check_gnp),
    "trees": ("n,count", "count random trees with n vertices", corpus.random_tree, corpus.check_tree),
    "paths-cycles": ("N", "the paths P2..PN, then the cycles C3..CN", corpus.paths_and_cycles, None),
    "file": ("PATH", "graph6 lines or one edge list", lambda path: [g for _, g in read_graphs(_read_lines(path))], None),
    "all-trees": ("N", "all free trees with <= N vertices", corpus.free_trees_upto, None),
    "tree-expansion": ("k,size,count", "random members of T(2k+1), k >= 1", corpus.random_tree_expansion,
                       corpus.check_tree_expansion),
}


def _corpus_from_args(args) -> tuple[str, Iterable[Graph]]:
    """The chosen source's name in graph ids and its stream; a guard refuses a bad spec before any draw."""
    chosen = [name for name in _SOURCES if getattr(args, name.replace("-", "_")) is not None]
    if len(chosen) != 1:
        raise ValueError("choose exactly one corpus source")
    name, kind = chosen[0], chosen[0].replace("-", "_")
    (form, _help, make, guard), spec = _SOURCES[name], getattr(args, kind)
    if guard is None:
        return kind, make(spec)
    parts = [part.strip() for part in spec.split(",")]
    if len(parts) != form.count(",") + 1:
        raise ValueError(f"{name} spec is {form}, got {spec!r}")
    count = int(parts[-1])
    if count < 0:
        raise ValueError(f"{name} count must be >= 0, got {count}")
    fields = [parse_ratio(part) if field == "p" else int(part) for field, part in zip(form.split(","), parts[:-1])]
    guard(*fields)
    return kind, (make(*fields, seed) for seed in range(args.seed, args.seed + count))


def _process_pool(max_workers: int):
    """A process pool, imported here so that runs without --jobs > 1 never
    load concurrent.futures and multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


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
        with _process_pool(jobs) as pool:
            results = list(pool.map(_verify_one, payloads, chunksize=16))
    else:
        results = [_verify_one(p) for p in payloads]
    records = [rec for res in results for rec in res]
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


# The writers of convert --to, each giving the text of one graph.
_WRITERS = {"g6": lambda g: encode_graph6(g) + "\n", "edges": format_edge_list, "dot": to_dot}


def cmd_convert(args) -> int:
    for _label, g in args.graphs:
        sys.stdout.write(_WRITERS[args.to](g))
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-", help="graph6 lines or one edge list; - for stdin")


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    for name, (metavar, help_text, _make, _guard) in _SOURCES.items():
        p.add_argument(f"--{name}", type=int if metavar == "N" else None, metavar=metavar, help=help_text)
    p.add_argument("--seed", type=int, default=0, help="seed of the first random graph, counting up from there")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="factorsmith",
        description="Test the isolated-vertex condition iso(G-S) <= c|S|, extract certified "
        "component factors, and check the two against each other over graph corpora.  Exit "
        "codes: 0 = condition holds, factor found or run clean; 1 = violated, no factor, "
        "disagreement or engine error; 2 = usage or parse error.",
    )
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

    p = sub.add_parser(
        "verify",
        help="batch equivalence run over a corpus",
        description="Every record is held until the end: about 1.7 KB a check in text and 6 KB "
        "in JSON, so --exhaustive 7 needs gigabytes.",
    )
    _add_corpus_args(p)
    p.add_argument("--k", default="1", help="comma list, e.g. 1,2,3")
    p.add_argument("--jobs", type=int, default=1, help="workers, capped at the number of graphs and of CPUs")
    p.add_argument("--emit", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit corpus graphs as graph6")
    _add_corpus_args(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("convert", help="convert between graph formats")
    _add_input_args(p)
    p.add_argument("--to", choices=list(_WRITERS), required=True)
    p.set_defaults(func=cmd_convert)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    if "input" in args:
        # check, factor, toughness and convert parse every graph once,
        # before they answer, so a bad input exits 2 with nothing printed
        # and an engine error never does.  A graph past toughness's size
        # guard is a usage error for the whole input too.
        try:
            args.graphs = read_graphs(_read_lines(args.input))
            for label, g in args.graphs:
                if args.command == "toughness" and g.n > TOUGHNESS_MAX_N:
                    return _error(f"{label}: isolated toughness supports n <= {TOUGHNESS_MAX_N}, got n = {g.n}")
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
