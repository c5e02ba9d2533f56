"""Command line entry point.

Subcommands select pipeline stages; every run reads a JSON config and
writes CSV/JSON artifacts plus a manifest into the output directory.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

import argparse
import sys

from .config import ExperimentConfig
from .errors import ArtifactError, ConfigError, NumericalError
from .pipeline import STAGES, run_pipeline

# one subcommand per stage, `mane-compare` for `comparison`, and `all`
_COMMANDS = {{"comparison": "mane-compare"}.get(s, s): [s] for s in [*STAGES, "all"]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakkam",
        description="Weak KAM / Aubry-Mather experiments on discretized tori.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage(s)")
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "ferry":
            p.add_argument("--points", default=None, help="points CSV overriding the config")
            p.add_argument("--p", type=float, default=None, help="chain exponent override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # run_pipeline validates the config, so a bad value gets a manifest
        cfg = ExperimentConfig.read(args.config)
        # ferry --points/--p stand in for the config's ferry.points/ferry.p
        cfg.raw["ferry"].update(
            {k: v for k, v in vars(args).items() if k in ("points", "p") and v is not None})
        manifest = run_pipeline(cfg, _COMMANDS[args.command], out_dir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ArtifactError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    stages = ", ".join(manifest["stages"])
    print(f"ok: wrote {len(manifest['checksums'])} files for stages [{stages}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
