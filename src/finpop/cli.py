"""Command-line front end: loads a population file and a design config,
dispatches to the verification engines, and emits JSON or fixed-width
table reports.  `main` parses, loads the inputs and emits; each command
returns its report record and exit code.

Exit codes: 0 all verdicts pass, 2 some verdict fails, 1 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional, Sequence

from .distributions import CountVector, _multinomial_pmf, _probabilities, mvhyper_pmf
from .population import _trusted
from .verify import (
    COUNT_DESIGNS,
    DesignConfig,
    EnumerationLimitError,
    Instance,
    Tolerances,
    count_moments,
    enumerate_count_distribution,
    enumerate_moments,
    relative_efficiency,
    run_monte_carlo,
)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def _load_design(arg: str) -> dict:
    text = arg.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid inline design JSON: {exc}") from exc
    return _load_json_file(arg)


def _format_table(record: dict, indent: int = 0) -> str:
    lines = []
    pad = " " * indent
    for key, value in record.items():
        if isinstance(value, dict) and value:
            lines.append(f"{pad}{key}:")
            lines.append(_format_table(value, indent + 2))
        elif isinstance(value, float):
            lines.append(f"{pad}{key:<32} {value:.17g}")
        else:
            lines.append(f"{pad}{key:<32} {value}")
    return "\n".join(lines)


def _emit(record: dict, args: argparse.Namespace) -> None:
    # Streamed, not built as one string: json.dump writes json.dumps's bytes.
    try:
        out = (open(args.out, "w", encoding="utf-8") if args.out
               else contextlib.nullcontext(sys.stdout))
        with out as fh:
            if args.format == "table":
                fh.write(_format_table(record) + "\n")
            else:
                json.dump(record, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out or 'stdout'}: {exc}") from exc


def cmd_verify(args: argparse.Namespace, inst: Instance, config: DesignConfig) -> tuple:
    if args.seed is None:
        raise ValueError("verify requires --seed (no silent nondeterminism)")
    report = run_monte_carlo(inst, config, args.trials, args.seed, Tolerances(args.tolerance_abs))
    return report.to_dict(), 0 if report.verdict else 2


def cmd_compare(args: argparse.Namespace, inst: Instance, config: DesignConfig) -> tuple:
    report = relative_efficiency(
        inst, config, Tolerances(args.tolerance_abs), trials=args.trials, seed=args.seed
    )
    return report.to_dict(), 0 if report.verdict else 2


def cmd_enumerate(args: argparse.Namespace, inst: Instance, config: DesignConfig) -> tuple:
    if config.design in COUNT_DESIGNS:
        if inst.classified is None:
            raise ValueError("count enumeration requires 'subgroup_sizes' in the population file")
        replacement = config.design == "counts_wr"
        dist = enumerate_count_distribution(inst.classified, config.n, replacement)
        mean, cov = count_moments(dist)
        cp, props = inst.classified, _probabilities(inst.classified.proportions)
        # The states are K-long tuples of counts >= 0, so no state is checked
        # again: counts_wr takes the pmf core, counts a trusted CountVector.
        pmf = lambda c: (_multinomial_pmf(c, props) if replacement
                         else mvhyper_pmf(_trusted(CountVector, counts=c), cp))
        record = {
            "design": config.design,
            "n": config.n,
            "subgroup_sizes": list(inst.classified.subgroup_sizes),
            "distribution": [
                {"counts": list(c), "probability": p, "pmf": pmf(c)}
                for c, p in sorted(dist.items())
            ],
            "mean": mean.tolist(),
            "covariance": cov.tolist(),
        }
    else:
        moments = enumerate_moments(inst, config)
        record = {
            "design": config.design,
            "mean": moments.mean,
            "variance": moments.variance,
        }
    return record, 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, subparsers included, whose usage errors raise
    ValueError: main reports them as one `error:` line, like any bad input."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finpop",
        description="Finite-population sampling designs, estimators, and verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--population", required=True, help="path to population JSON file")
    common.add_argument("--design", required=True, help="inline design JSON or path to a file")
    common.add_argument("--out", default=None, help="write the report to this path")
    common.add_argument("--format", choices=("json", "table"), default="json")
    # enumerate runs no Monte Carlo and checks no tolerance, so it refuses these.
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--trials", type=int, default=1_000_000, help="Monte Carlo trials")
    run_flags.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
    run_flags.add_argument("--tolerance-abs", type=float, default=Tolerances.abs_tol,
                           help="oracle abs tolerance")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common, run_flags], help="Monte Carlo + oracle moment check")
    sub.add_parser("compare", parents=[common, run_flags],
                   help="WOR/WR variance ratio vs predicted fpc")
    sub.add_parser("enumerate", parents=[common], help="exact distribution / moment dump")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    handlers = {"verify": cmd_verify, "compare": cmd_compare, "enumerate": cmd_enumerate}
    try:
        args = build_parser().parse_args(argv)
        inst = Instance.from_mapping(_load_json_file(args.population))
        config = DesignConfig.from_mapping(_load_design(args.design))
        record, code = handlers[args.command](args, inst, config)
        _emit(record, args)
        return code
    except SystemExit:  # only --help exits, after printing the help
        return 0
    except (EnumerationLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # math.fsum's "intermediate overflow in fsum"
        print(f"error: numbers out of range: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
