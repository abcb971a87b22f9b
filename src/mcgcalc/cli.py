"""Batch verification and one-off evaluation from the command line.

Subcommands:

* ``verify``        run certification checks over a genus range;
* ``act``           apply a twist word, a pillar switching, or a braid
                    image to a word and print the reduced result;
* ``braid-trivial`` decide the braid word problem;
* ``export``        print a mapping class as generator images.

Exit status: 0 on success (for braid-trivial: trivial), 1 when a check
fails or the braid is nontrivial, 2 on usage or input errors and when
memory runs out.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

from ._wordops import kernel_backend
from .braids import (
    is_trivial_braid,
    parse_braid_word,
    psi_action,
    verify_artin_restriction,
    verify_psi_relations,
)
from .endos import DEFAULT_IMAGE_BUDGET, FreeEndomorphism
from .errors import ImageBudgetError
from .pillars import (
    pillar_switching_action,
    replay_proof_chains,
    verify_relator_invariance,
    verify_theorem_2_2,
    verify_yz_roundtrip,
)
from .reports import VerificationReport
from .twists import evaluate_twist_word, parse_twist_word
from .words import Basis, parse_word

def _parse_genus_range(text: str) -> range:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad genus range {text!r} (expected e.g. 3 or 2..6)"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty genus range {text!r}")
    return range(lo, hi + 1)


def _check_runners(
    seed: int, budget: int
) -> dict[str, Callable[[int], VerificationReport]]:
    return {
        "thm22": partial(verify_theorem_2_2, budget=budget),
        "chains": partial(replay_proof_chains, budget=budget),
        "relations": partial(verify_psi_relations, budget=budget),
        "relator": partial(verify_relator_invariance, budget=budget),
        "artin-restriction": partial(verify_artin_restriction, budget=budget),
        "yz-roundtrip": partial(verify_yz_roundtrip, seed=seed),
    }


CHECK_NAMES = tuple(_check_runners(0, DEFAULT_IMAGE_BUDGET))


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all or not args.which:
        selected = list(CHECK_NAMES)
    else:
        selected = []
        for chunk in args.which:
            for name in chunk.split(","):
                name = name.strip()
                if name not in CHECK_NAMES:
                    raise _UsageError(
                        f"unknown check {name!r} (choose from {', '.join(CHECK_NAMES)})"
                    )
                if name not in selected:
                    selected.append(name)
    if args.genus.start < 2:
        raise _UsageError("verification checks need genus >= 2")
    runners = _check_runners(args.seed, args.budget)
    results = [(which, runners[which](g)) for which in selected for g in args.genus]

    ok = all(report.all_hold for _, report in results)
    if args.json:
        payload = {
            "kernel": kernel_backend(),
            "ok": ok,
            "seed": args.seed,
            "results": [
                {"which": which, **report.to_json_dict()}
                for which, report in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        checked = 0
        for which, report in results:
            for case in report.cases:
                checked += 1
                status = "ok" if case.holds else "FAIL"
                print(f"[{which}] g={report.genus} {case.name}: {status}")
                for mm in case.mismatches:
                    print(f"    {mm.generator}: got {mm.lhs} expected {mm.rhs}")
        verdict = "all passed" if ok else "FAILURES above"
        print(f"{checked} checks over genus {args.genus.start}..{args.genus[-1]}: {verdict}")
    return 0 if ok else 1


def _make_endo(args: argparse.Namespace) -> FreeEndomorphism:
    g = args.genus
    if args.object == "sigma":
        try:
            index = int(args.spec)
        except ValueError:
            raise _UsageError(f"sigma expects an integer index, got {args.spec!r}")
        return pillar_switching_action(index, g)
    if args.object == "twist-word":
        return evaluate_twist_word(
            parse_twist_word(args.spec, g), budget=args.budget
        )
    return psi_action(parse_braid_word(args.spec, g), budget=args.budget)


def _cmd_act(args: argparse.Namespace) -> int:
    endo = _make_endo(args)
    target = parse_word(args.on, Basis.xy(args.genus))
    print(endo.image_text(target, budget=args.budget))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    endo = _make_endo(args)
    if args.json:
        print(endo.to_json(indent=2))
    else:
        payload = endo.to_json_dict()
        print(f"basis: {payload['basis']['kind']}({payload['basis']['genus_or_rank']})")
        for name in sorted(payload["images"]):
            print(f"{name} -> {payload['images'][name]}")
    return 0


def _cmd_braid_trivial(args: argparse.Namespace) -> int:
    braid = parse_braid_word(args.word, args.strands)
    if is_trivial_braid(braid, budget=args.budget):
        print("trivial")
        return 0
    print("nontrivial")
    return 1


class _UsageError(Exception):
    pass


def _declare_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", type=_parse_genus_range, required=True, metavar="G[..H]")
    p.add_argument(
        "--which",
        action="append",
        metavar="CHECKS",
        help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}",
    )
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="ignored: checks run serially"
    )
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.set_defaults(func=_cmd_verify)


def _declare_mapping_class(p: argparse.ArgumentParser) -> None:
    p.add_argument("object", choices=("twist-word", "sigma", "braid-psi"))
    p.add_argument("spec", help="twist word, sigma index, or braid word")
    p.add_argument("--genus", type=int, required=True)


def _declare_act(p: argparse.ArgumentParser) -> None:
    _declare_mapping_class(p)
    p.add_argument("--on", required=True, metavar="WORD")
    p.set_defaults(func=_cmd_act)


def _declare_export(p: argparse.ArgumentParser) -> None:
    _declare_mapping_class(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_export)


def _declare_braid_trivial(p: argparse.ArgumentParser) -> None:
    p.add_argument("word")
    p.add_argument("--strands", type=int, required=True)
    p.set_defaults(func=_cmd_braid_trivial)


# Each command by name, in the order the top-level help lists them: its help
# line there and the function that declares its arguments.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "verify": ("run certification checks", _declare_verify),
    "act": ("apply a mapping class to a word", _declare_act),
    "export": ("print a mapping class's images", _declare_export),
    "braid-trivial": ("decide the braid word problem", _declare_braid_trivial),
}


def _declare_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Declare the arguments of command ``name`` on ``p``, its own parser or
    its entry under the top-level one; returns ``p``."""
    _COMMANDS[name][1](p)
    p.add_argument("--budget", type=int, default=DEFAULT_IMAGE_BUDGET, metavar="N")
    # Usage errors found after parsing print this command's usage.
    p.set_defaults(subparser=p)
    return p


# Both parsers are built on the first request that needs them and shared by
# the later ones: parse_args fills a fresh Namespace each call, the one append
# action (--which) has no mutable default, and errors and help read stderr and
# the terminal width when printed.
@lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    return _declare_command(argparse.ArgumentParser(prog=f"mcgcalc {name}"), name)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgcalc",
        description=(
            "Pillar switchings, Dehn-twist factorizations and the Artin "
            "representation, verified as exact free-group identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _declare_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_request(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The arguments of one request, as the top-level parser reads them.

    A request that starts with a command's name goes to that command's own
    parser, with the ``parse_known_args`` call that argparse's subparsers
    action makes; the namespace lacks only ``command``. Any other request,
    and one that leaves arguments over, goes to the top-level parser, which
    prints the help and errors that belong to it.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI request; returns its exit status.

    It can be called many times in one process, as the tests and the
    benchmark do. A request is parsed by its command's own parser, built on
    the first request of that command and reused; help, a missing or
    unknown command and leftover arguments go to the top-level parser,
    built on first use too. Nothing else is kept between calls, and
    ``--budget`` applies to its own call only. Usage errors raise
    ``SystemExit(2)``.
    """
    args = _parse_request(argv)
    subparser = args.subparser
    if getattr(args, "jobs", 1) < 1:
        subparser.error("--jobs must be >= 1")
    if args.budget < 1:
        subparser.error("--budget must be >= 1")
    try:
        return args.func(args)
    except _UsageError as exc:
        subparser.error(str(exc))  # exits 2
        raise AssertionError("unreachable")
    except (ValueError, ImageBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # not a verdict: 1 would read as "nontrivial" or "failed"
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
