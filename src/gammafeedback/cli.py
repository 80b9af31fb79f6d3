"""
Command-line front door.

    gammafeedback <subcommand> --config run.cfg --out results/ [--seed N]
                  [--svg] [--quiet]

Options may come before or after the subcommand. Exit codes: 0 success,
2 configuration error (a bad argument or a non-UTF-8 config among them),
3 numerical error (singular denominator, or at a named step a
simulated price leaving (0, 1e12 * s0] or the position decay's m**xi
overflowing a double), 4 I/O error. Every failure prints one JSON error
line to stderr, and a failed run removes what it wrote.

A run that exits 0 writes only finite numbers to its CSVs and only finite
coordinates to its SVGs; an input whose derived values are not finite exits
2 with one JSON line that names its keys.

No subcommand imports numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .dynamics import NumericalOverflow
from .model import SingularDenominator
from .rng import _check_seed
from .runner import SUBCOMMANDS, apply_seed_override, run_subcommand

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """An argument error is a ConfigError, reported as one JSON line."""
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gammafeedback",
        description="Gamma-feedback stability maps and hedging-feedback simulations.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, help="output directory (one per run)")
    parser.add_argument("--seed", type=int, default=None, help="override all run seeds")
    parser.add_argument("--svg", action="store_true", help="also emit SVG plots")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    reading = ""  # prefixes an error raised while the config file is read
    try:
        args = build_parser().parse_args(argv)
        reading = "cannot read config: "
        text = Path(args.config).read_text(encoding="utf-8")
        reading = ""
        config = parse_config(text)
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
            config = apply_seed_override(config, args.seed)
        if args.svg:
            config.emit_svg = True
        # --out directs this invocation only; it is not baked into the
        # resolved config, so reruns into fresh directories digest equal
        out_dir = args.out or config.output_dir
        if out_dir is None:
            raise ConfigError("no output directory: pass --out or set [run] out")
        manifest = run_subcommand(args.subcommand, config, out_dir)
    # SingularDenominator is a ValueError, so it comes first; ValueError
    # covers ConfigError and UnicodeDecodeError, and OSError covers
    # FileExistsError
    except (SingularDenominator, NumericalOverflow) as exc:
        return _fail(EXIT_NUMERICAL, "numerical", str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config", reading + str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io", reading + str(exc))

    if not args.quiet:
        outputs = ", ".join(entry["path"] for entry in manifest["outputs"])
        print(f"{args.subcommand}: wrote {outputs} to {out_dir} "
              f"in {manifest['duration_seconds']:.3f}s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
