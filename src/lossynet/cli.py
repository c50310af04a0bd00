"""Command-line front end.

Four subcommands: ``consensus``, ``optimize``, and ``matrix-audit`` run the
experiment described by a JSON config (whose ``mode`` must match the
subcommand) and write artifacts into ``--out``; ``verify-schedule`` checks a
schedule against a claimed reliability window without running anything.
Exit codes: 0 when every certification passed, 2 when one failed, 1 on an
operational error (bad config, unreadable file, invalid arguments).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import schedules
from .errors import ConfigError, LossyNetError
from .harness import (
    _as_horizon,
    _as_positive_int,
    _build_graph,
    _build_schedule,
    _check_schedule_spec,
    _read_config,
    load_config,
    run_experiment,
    write_json,
)

RUN_COMMANDS = ("consensus", "optimize", "matrix-audit")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossynet",
        description="Consensus and distributed optimization over lossy directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "consensus": "run a push-sum variant and certify its conservation/rate guarantees",
        "optimize": "run distributed dual averaging and certify its gap/mixing guarantees",
        "matrix-audit": "build the mixing-matrix product over a window and certify its bounds",
        "verify-schedule": "check that a failure schedule delivers within the claimed window",
    }
    for name in (*RUN_COMMANDS, "verify-schedule"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the schedule seed")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument(
            "--tee-csv", action="store_true", help="also print the trace CSV to stdout"
        )
    return parser


def _verify_schedule(args) -> int:
    """Config shape: {"graph": {...}, "schedule": {...}, "B": int, "horizon": int}.

    ``horizon`` sizes generated schedules and is ignored for csv schedules,
    whose files carry their own length.
    """
    raw, root = _read_config(args.config)
    if not isinstance(raw, dict) or set(raw) - {"graph", "schedule", "B", "horizon"}:
        raise ConfigError('verify-schedule config needs {"graph", "schedule", "B", "horizon"}')
    g = _build_graph(raw.get("graph"), root)
    B = _as_positive_int(raw.get("B"), "B")
    sched_spec = _check_schedule_spec(raw.get("schedule"))
    horizon = raw.get("horizon")
    horizon = _as_horizon(0 if horizon is None and sched_spec["kind"] == "csv" else horizon)
    schedule, _ = _build_schedule(sched_spec, horizon, g, args.seed, root)

    worst = schedules.worst_gap(schedule)
    satisfied = schedules.verify_b_bounded(schedule, B)
    verdict = {
        "b_window": B,
        "satisfied": satisfied,
        "worst_gap": worst,
        "schedule_window": schedule.window,
        "horizon": schedule.horizon,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdict_path = out_dir / "verdict.json"
    verdict_path.write_text(write_json(verdict))
    print(f"wrote {verdict_path}", file=sys.stderr)
    return 0 if satisfied else 2


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
