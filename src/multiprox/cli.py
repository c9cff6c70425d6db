"""Command line front end.

Exit codes: 0 on success, 2 when a run is rejected because a theorem
hypothesis or supported-case check fails, 1 for any other runtime error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from .bench import (
    EXPERIMENTS,
    PRESETS,
    SCALES,
    exp1_sweep,
    load_config,
    rate_summaries,
    run_experiment,
)
from .errors import HypothesisViolation, MultiproxError, Unsupported


def _json_default(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))


def _guarded(fn):
    try:
        fn()
    except (HypothesisViolation, Unsupported) as exc:
        click.echo(f"rejected: {exc}", err=True)
        sys.exit(2)
    except (MultiproxError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@click.group()
def main():
    """Stochastic multi-proximal solvers and their benchmark harness."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(dir_okay=False), help="JSON run configuration.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Override the output directory.")
def run(config_path, seed, out):
    """Run the experiment described by a config file."""

    def body():
        cfg = load_config(config_path)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if out is not None:
            cfg = replace(cfg, out=out)
        result = run_experiment(cfg)
        _echo_json({
            "experiment": cfg.experiment,
            "summary": result.summary,
            "arms": {name: arm.info for name, arm in result.arms.items()},
            "files": result.files,
        })

    _guarded(body)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(dir_okay=False), help="JSON run configuration.")
def rates(config_path):
    """Print certified contraction factors and their binding terms."""

    def body():
        cfg = load_config(config_path)
        _echo_json(rate_summaries(cfg))

    _guarded(body)


@main.command()
@click.argument("experiment", type=click.Choice(EXPERIMENTS))
@click.option("--scale", type=click.Choice(SCALES), default="small",
              show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
def bench(experiment, scale, out):
    """Run a preset experiment end to end and print its summary."""

    def body():
        if experiment == "exp1":
            sweep = exp1_sweep(scale=scale, out=out)
            _echo_json({
                "per_alpha": {f"{alpha:g}": res.summary
                              for alpha, res in sweep["runs"].items()},
                "gaps": sweep["gaps"],
                "gap_widens_monotonically": sweep["gap_widens_monotonically"],
            })
        elif experiment == "exp2":
            _echo_json(run_experiment(replace(PRESETS["exp2"], scale=scale, out=out)).summary)
        else:
            payload = {}
            for name, cfg in PRESETS.items():
                if cfg.experiment == "exp3":
                    sub_out = None if out is None else str(Path(out) / name)
                    payload[name] = run_experiment(replace(cfg, scale=scale, out=sub_out)).summary
            _echo_json(payload)

    _guarded(body)


if __name__ == "__main__":
    main()
