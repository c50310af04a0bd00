"""Command-line front end.

One subcommand per mode of :data:`lossynet.harness.MODES` runs the
experiment described by a JSON config (whose ``mode`` must match the
subcommand) and writes artifacts into ``--out``; ``verify-schedule`` checks
a schedule against a claimed reliability window without running anything.
Exit codes: 0 when every certification passed, 2 when one failed, 1 on an
operational error (bad config, unreadable file, invalid arguments).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import LossyNetError
from .harness import MODES, load_config, run_experiment, schedule_verdict, write_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossynet",
        description="Consensus and distributed optimization over lossy directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the schedule seed")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        return p

    for name, mode in MODES.items():
        command(name, mode.does).add_argument(
            "--tee-csv", action="store_true", help=f"also print {mode.artifact} to stdout"
        )
    command("verify-schedule", "checks that a failure schedule delivers within the claimed window")
    return parser


def _verify_schedule(args) -> int:
    verdict = schedule_verdict(args.config, args.seed)
    verdict_path = Path(args.out) / "verdict.json"
    verdict_path.parent.mkdir(parents=True, exist_ok=True)
    verdict_path.write_text(write_json(verdict))
    print(f"wrote {verdict_path}", file=sys.stderr)
    return 0 if verdict["satisfied"] else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify-schedule":
            return _verify_schedule(args)
        cfg = load_config(args.config)
        if cfg.mode != args.command:
            print(
                f"config mode {cfg.mode!r} does not match subcommand {args.command!r}",
                file=sys.stderr,
            )
            return 1
        artifact = run_experiment(cfg, args.out, seed=args.seed, tee_csv=args.tee_csv)
        print(
            f"wrote {artifact.summary_path} ({artifact.wall_clock:.3f}s), "
            f"pass={str(artifact.passed).lower()}",
            file=sys.stderr,
        )
        return 0 if artifact.passed else 2
    except LossyNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
