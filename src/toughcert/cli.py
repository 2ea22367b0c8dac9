"""Command line front end.

Exit codes: 0 success, 1 verification failures, 2 malformed graph6
input (message carries the line and byte offset), 3 domain or hypothesis
violations (disconnected input, order too small, size guards) and files
that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from .errors import DomainError, Graph6ParseError, SizeLimitError
from .graphs import Graph, _graph6_records, parse_graph6, to_graph6
from .spectral import spectral_radius
from .thresholds import build_extremal, threshold, threshold_cubic
from .toughness import EXHAUSTIVE_LIMIT, toughness_exact
from .verify import (
    certify,
    verify_join_maximizer,
    verify_quotient_embedding,
    verify_subgraph_monotonicity,
    verify_theorem,
    verify_threshold_identities,
    write_report,
)

__all__ = ["run", "main"]


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _input_lines(args) -> Iterator[str]:
    """Lines from a file, stdin when the positional is '-', or the
    positional graph6 string itself."""
    if getattr(args, "file", None):
        # latin-1 maps each byte to one character, so a stray byte is
        # reported as a graph6 byte error with its offset
        with open(args.file, "r", encoding="latin-1") as fh:
            yield from fh
    elif args.graph6 == "-":
        yield from sys.stdin
    elif args.graph6 is not None:
        yield args.graph6
    else:
        raise DomainError("no graph given: pass a graph6 string, '-', or --file")


def _read_graphs(args) -> Iterator[tuple[str, Graph]]:
    """Yield (graph6, Graph) pairs one line at a time, so each result is
    printed before later lines are read."""
    found = False
    for lineno, s in _graph6_records(_input_lines(args)):
        try:
            g = parse_graph6(s)
        except Graph6ParseError as exc:
            raise Graph6ParseError(f"line {lineno}: {exc}", exc.offset) from exc
        found = True
        yield s, g
    if not found:
        raise DomainError("no graphs in input")


def _out_stream(path: str | None):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="ascii"), True


def _cmd_threshold(args) -> int:
    res = threshold(args.t, args.n)
    coeffs = threshold_cubic(args.t, args.n).coefficients()
    if args.format == "json":
        print(json.dumps({
            "t": res.t,
            "n": res.n,
            "threshold": float(_fmt(res.value)),
            "bracket": [float(_fmt(res.bracket[0])), float(_fmt(res.bracket[1]))],
            "coefficients": list(coeffs),
        }, sort_keys=True))
    else:
        print(f"threshold(t={res.t}, n={res.n}) = {_fmt(res.value)}")
        print(
            "cubic: x^3 + ({:g})*x^2 + ({:g})*x + ({:g})".format(*coeffs[1:])
        )
    return 0


def _cmd_extremal(args) -> int:
    g = build_extremal(args.t, args.n)
    lam = spectral_radius(g)
    row = {
        "graph6": to_graph6(g),
        "n": g.n,
        "t": args.t,
        "lambda1": float(_fmt(lam)),
        "threshold": float(_fmt(threshold(args.t, args.n).value)),
    }
    if g.n <= EXHAUSTIVE_LIMIT:
        row["toughness"] = str(toughness_exact(g))
    else:
        row["toughness"] = f"not computed (order exceeds exhaustive limit {EXHAUSTIVE_LIMIT})"
    if args.format == "json":
        print(json.dumps(row, sort_keys=True))
    else:
        for key in ("graph6", "n", "t", "lambda1", "threshold", "toughness"):
            print(f"{key}: {row[key]}")
    return 0


def _cmd_spectral_radius(args) -> int:
    for g6, g in _read_graphs(args):
        print(f"{g6}\t{_fmt(spectral_radius(g))}")
    return 0


def _cmd_toughness(args) -> int:
    for g6, g in _read_graphs(args):
        res = toughness_exact(g)
        if args.format == "json":
            print(json.dumps({
                "graph6": g6,
                "infinite": res.infinite,
                "numerator": res.numerator,
                "denominator": res.denominator,
                "witness": list(res.witness) if res.witness else None,
            }, sort_keys=True))
        elif res.infinite:
            print(f"{g6}\tinfinite")
        else:
            witness = ",".join(map(str, res.witness))
            print(f"{g6}\t{res}\twitness={{{witness}}}")
    return 0


def _cmd_certify(args) -> int:
    for _, g in _read_graphs(args):
        rep = certify(g, args.t, epsilon=args.epsilon, cross_check=args.cross_check)
        print(json.dumps(rep.to_dict(), sort_keys=True))
    return 0


def _cmd_verify_theorem(args) -> int:
    n_hi = args.n_max if args.n_max is not None else args.n
    if n_hi < args.n:
        raise DomainError("--n-max below --n")
    stream, close = _out_stream(args.output)
    failed = False
    try:
        for n in range(args.n, n_hi + 1):
            summary = verify_theorem(
                n,
                args.t,
                workers=args.workers,
                eps_eq=args.eps_eq,
                eps_strict=args.eps_strict,
                log_curiosities=args.curiosities,
                allow_order_8=args.allow_order_8,
            )
            write_report(summary, stream)
            failed = failed or not summary.ok
            print(
                f"n={n} t={args.t}: connected={summary.counts['connected']} "
                f"tough={summary.counts['tough']} "
                f"exceptional={summary.counts['exceptional']} "
                f"failures={len(summary.failures)} "
                f"({summary.elapsed:.2f}s)",
                file=sys.stderr,
            )
    finally:
        if close:
            stream.close()
    return 1 if failed else 0


def _cmd_verify_lemmas(args) -> int:
    stream, close = _out_stream(args.output)
    failed = False
    try:
        suites = []
        if args.suite in ("all", "maximizer"):
            for n in range(args.s_max + args.c_max, args.n_max + 1):
                for s in range(1, args.s_max + 1):
                    for c in range(1, args.c_max + 1):
                        if n >= s + c:
                            suites.append(verify_join_maximizer(n, s, c))
        if args.suite in ("all", "quotient"):
            suites.append(
                verify_quotient_embedding(
                    s_max=args.q_s_max, t_max=args.q_t_max, n_max=args.q_n_max
                )
            )
        if args.suite in ("all", "monotonicity"):
            suites.append(
                verify_subgraph_monotonicity(trials=args.trials, seed=args.seed)
            )
        if args.suite in ("all", "identities"):
            suites.append(
                verify_threshold_identities(
                    s_max=args.i_s_max, t_max=args.i_t_max, n_max=args.i_n_max
                )
            )
        for summary in suites:
            write_report(summary, stream)
            failed = failed or not summary.ok
            print(
                f"{summary.check}: counts={summary.counts} "
                f"failures={len(summary.failures)} ({summary.elapsed:.2f}s)",
                file=sys.stderr,
            )
    finally:
        if close:
            stream.close()
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toughcert",
        description="Spectral certification of graph toughness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p):
        p.add_argument("graph6", nargs="?", help="graph6 string, or '-' for stdin")
        p.add_argument("--file", help="file with one graph6 string per line")

    p = sub.add_parser("threshold", help="certification threshold for (t, n)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("extremal", help="the sharpness example for (t, n)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("spectral-radius", help="largest adjacency eigenvalue")
    add_graph_input(p)
    p.set_defaults(func=_cmd_spectral_radius)

    p = sub.add_parser("toughness", help="exact toughness by exhaustive cuts")
    add_graph_input(p)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_toughness)

    p = sub.add_parser("certify", help="apply the spectral test to graphs")
    add_graph_input(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1e-9)
    cross = p.add_mutually_exclusive_group()
    cross.add_argument("--cross-check", action="store_const", const=True,
                       help="force the exhaustive toughness oracle")
    cross.add_argument("--no-cross-check", action="store_const", const=False,
                       dest="cross_check", help="skip the exhaustive toughness oracle")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "verify-theorem",
        help="exhaustively check the condition on all connected graphs of order n",
    )
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None,
                   help="also run every order up to this one")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--eps-eq", type=float, default=1e-9)
    p.add_argument("--eps-strict", type=float, default=1e-9)
    p.add_argument("--curiosities", action="store_true",
                   help="log tough graphs whose eigenvalue sits at the threshold")
    p.add_argument("--allow-order-8", action="store_true", dest="allow_order_8")
    p.add_argument("--output", default=None, help="report path ('-' = stdout)")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("verify-lemmas", help="run the supporting-fact suites")
    p.add_argument("--suite", default="all",
                   choices=("all", "maximizer", "quotient", "monotonicity", "identities"))
    p.add_argument("--n-max", type=int, default=12, help="maximizer sweep order cap")
    p.add_argument("--s-max", type=int, default=3, help="maximizer sweep s cap")
    p.add_argument("--c-max", type=int, default=4, help="maximizer sweep part cap")
    p.add_argument("--q-s-max", type=int, default=4)
    p.add_argument("--q-t-max", type=int, default=4)
    p.add_argument("--q-n-max", type=int, default=24)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--i-s-max", type=int, default=6)
    p.add_argument("--i-t-max", type=int, default=5)
    p.add_argument("--i-n-max", type=int, default=40)
    p.add_argument("--output", default=None, help="report path ('-' = stdout)")
    p.set_defaults(func=_cmd_verify_lemmas)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Graph6ParseError as exc:
        print(f"graph6 parse error at byte {exc.offset}: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SizeLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
