"""Command-line interface.

Braid words are passed in the text format ``'n: l1 l2 ... lk'`` (quote
them, they contain spaces). Exit codes: 0 all consistent / pass, 1
property violation, 2 usage or format error, 3 resource limit (a single
computation over the cap, or a suite past its skip-rate threshold).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from ._kernel import backend_name
from .curves import classify, round_span
from .embedding import embed_general, embed_standard
from .garside import (
    DEFAULT_SSS_LIMIT,
    ResourceLimitError,
    are_conjugate,
    equal_words,
    normal_form,
)
from .harness import EmbeddingMergeError, SuiteConfig
from .words import format_word, parse_word

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidkit",
        description="Garside normal forms, conjugacy, embeddings and "
        "Nielsen-Thurston classification for braid groups.",
    )
    parser.add_argument(
        "--backend-info",
        action="store_true",
        help="print the active kernel backend and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("nf", help="left normal form of a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("eq", help="decide equality of two words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_eq)

    p = sub.add_parser("conj", help="decide conjugacy; print a certificate")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-sss", type=int, default=DEFAULT_SSS_LIMIT)
    p.set_defaults(handler=_cmd_conj)

    p = sub.add_parser("embed", help="embed a word into a larger braid group")
    p.add_argument("word")
    p.add_argument("n", type=int)
    p.add_argument("--conjugator", help="conjugating word in the target group")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("classify", help="periodic / reducible / pseudo-anosov")
    p.add_argument("word")
    p.add_argument("--max-sss", type=int, default=DEFAULT_SSS_LIMIT)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify-nonmerging", help="conjugacy verdicts must agree across embedding")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    # Flags left out keep SuiteConfig's defaults.
    p.add_argument("--general-conj-len", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-sss", type=int, default=argparse.SUPPRESS)
    p.add_argument("--conjugate-fraction", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-skip-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--format", choices=("text", "records", "json"), default="text")
    p.add_argument(
        "--times",
        action="store_true",
        help="include wall-clock times in records/json output (breaks byte reproducibility)",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("boundary-suite", help="boundary curve and torsion checks for embeddings")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--maxlen", type=int, default=10)
    p.add_argument("--format", choices=("text", "records", "json"), default="text")
    p.set_defaults(handler=_cmd_boundary)

    return parser


def _cmd_nf(args) -> int:
    print(normal_form(parse_word(args.word)))
    return 0


def _cmd_eq(args) -> int:
    print("true" if equal_words(parse_word(args.left), parse_word(args.right)) else "false")
    return 0


def _cmd_conj(args) -> int:
    cert = are_conjugate(parse_word(args.left), parse_word(args.right), max_sss=args.max_sss)
    if cert is None:
        print("non-conjugate")
    else:
        print("conjugate")
        print(format_word(cert.conjugator))
    return 0


def _cmd_embed(args) -> int:
    word = parse_word(args.word)
    if args.conjugator is None:
        print(format_word(embed_standard(word, args.n)))
    else:
        print(format_word(embed_general(word, args.n, parse_word(args.conjugator))))
    return 0


def _cmd_classify(args) -> int:
    result = classify(parse_word(args.word), max_sss=args.max_sss)
    if result.kind == "periodic":
        print("periodic")
    elif result.kind == "pseudo_anosov":
        print("pseudo-anosov")
    else:
        span = round_span(result.curve)
        assert span is not None
        print(
            f"reducible curve={span[0]}..{span[1]} power={result.power} "
            f"conjugator={format_word(result.conjugator)}"
        )
    return 0


def _cmd_verify(args) -> int:
    given = vars(args)
    names = [field.name for field in dataclasses.fields(SuiteConfig)]
    summary = harness.verify_nonmerging(
        SuiteConfig(**{name: given[name] for name in names if name in given})
    )
    if args.format == "text":
        # The text format always shows the decision times.
        sys.stdout.write(harness.render_text(summary))
    else:
        render = harness.render_records if args.format == "records" else harness.render_json
        sys.stdout.write(render(summary, include_times=args.times))
    return summary.exit_code


def _cmd_boundary(args) -> int:
    summary = harness.boundary_suite(args.m, args.n, args.trials, args.seed, maxlen=args.maxlen)
    render = {
        "text": harness.render_boundary_text,
        "records": harness.render_boundary_records,
        "json": harness.render_boundary_json,
    }[args.format]
    sys.stdout.write(render(summary))
    return summary.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.backend_info:
        print(backend_name())
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except EmbeddingMergeError as exc:
        print(f"FATAL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
