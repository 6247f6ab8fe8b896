"""Command-line entry point.

Subcommands:

* ``generate``   write a synthetic network + signal/measurement files
* ``run``        run the message-passing engine on a network + measurement
* ``se``         write the deterministic predictor's curves
* ``sweep``      repeat the experiment over a list of measurement counts
* ``compare``    join empirical and predicted curves, report the worst gap
* ``fixedpoint`` print the fixed-point diagnostics of a converged run

Exit codes: 0 success, 2 configuration error (or out of memory, or a lost
trial worker), 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .engine import run
from .errors import (
    DivergedIterationError, InvalidModelError, MlvampError, NumericFailureError, WorkerLostError,
)
from .model import SignalSet, forward_generate, load_network, number_array, save_network
from .state_evolution import run_se


_FLAGS = {
    "--config": dict(help="JSON experiment configuration"),
    "--seed": dict(type=int, help="master seed override"),
    "--trials": dict(type=int),
    "--mode": dict(choices=("map", "mmse")),
    "--max-iters": dict(type=int),
    "--out": dict(help="output path"),
}

#: Per subcommand, the option whose files replace the synthetic problem and
#: the common flags then left unread (nothing is drawn, run or predicted).
_UNREAD_WITH_FILES = {
    "run": ("network", ("--trials",)),
    "fixedpoint": ("network", ("--seed",)),
    "compare": ("empirical", ("--trials", "--seed", "--mode", "--max-iters")),
}


def _add_common(p, skip=()):
    """The common flags the subcommand reads; a skipped one is an argparse error."""
    for flag, kwargs in _FLAGS.items():
        if flag in skip:
            p.set_defaults(**{flag[2:].replace("-", "_"): None})
        else:
            p.add_argument(flag, default=None, **kwargs)


def _override(obj, **values):
    """``obj`` with each field whose given value is not None replaced."""
    return replace(obj, **{k: v for k, v in values.items() if v is not None})


def _load_config(args):
    config = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    engine = _override(config.engine, mode=args.mode, max_iters=args.max_iters)
    return _override(config, master_seed=args.seed, trials=args.trials, engine=engine)


def _synthetic_problem(config):
    """The recipe's network and signals drawn with the master seed."""
    calibration = harness.calibrate_recipe(config.recipe, config.master_seed)
    spec = harness.build_synthetic_network(config.recipe, config.master_seed, calibration)
    return spec, forward_generate(spec, config.master_seed)


def _cmd_generate(args):
    config = _load_config(args)
    spec, signals = _synthetic_problem(config)
    out = args.out or "network.json"
    save_network(spec, out)
    sig_path = out.removesuffix(".json") + ".signals.json"
    with open(sig_path, "w") as fh:
        json.dump(
            {
                "seed": config.master_seed,
                "dims": list(spec.dims),
                "signals": [z.tolist() for z in signals.signals],
            },
            fh,
        )
    print(f"wrote {out} and {sig_path}")
    return 0


def _load_problem(args):
    """The network of ``--network`` and the signals of ``--signals``."""
    if not args.signals:
        raise InvalidModelError("--network needs --signals")
    spec = load_network(args.network)
    with open(args.signals) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidModelError("a signals file must be a JSON object")
    try:
        signals = tuple(number_array("a signal", z) for z in doc["signals"])
    except (TypeError, ValueError) as exc:
        raise InvalidModelError(f"invalid signals file: {exc}") from exc
    if not signals:
        raise InvalidModelError("a signals file must hold at least one signal")
    return spec, SignalSet(signals=signals)


def _cmd_run(args):
    config = _load_config(args)
    if args.network:
        spec, truth = _load_problem(args)
        _, trace, _ = run(spec, truth.y, config.engine, truth=truth)
        rows = harness.trace_rows(config.experiment_id, config.master_seed, trace)
        count = f"{len(rows)} rows"
    else:
        rows = harness.result_rows(harness.run_trials(config))
        count = f"{config.trials} trials"
    out = args.out or "run.csv"
    harness.write_result_csv(out, rows)
    print(f"wrote {out} ({count})")
    return 0


def _cmd_se(args):
    config = _load_config(args)
    calibration = harness.calibrate_recipe(config.recipe, config.master_seed)
    law = harness.recipe_law(config.recipe, calibration)
    result = run_se(law, harness.predictor_config(config))
    out = args.out or "se.csv"
    harness.write_result_csv(out, harness.se_rows(config.experiment_id, result))
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args):
    config = _load_config(args)
    try:
        m_list = [int(v) for v in args.measurements.split(",")]
    except ValueError:
        raise InvalidModelError(
            f"--measurements takes a comma list of integers, not {args.measurements!r}"
        ) from None
    results = harness.measurement_sweep(config, m_list)
    out = args.out or "sweep.csv"
    harness.write_result_csv(out, [row for r in results.values() for row in harness.result_rows(r)])
    summary = {
        m: {
            "median_final_nmse_db": float(r.median_nmse_db()[-1, 0]),
            "mean_final_nmse_db": float(r.mean_nmse_db()[-1, 0]),
            # the predictor may stop early (se.stop_tol): its last half within the trials' grid
            "se_final_nmse_db": float(r.se_result.nmse_db[: r.n_half][-1, 0]),
            "failed_trials": len(r.trials) - len(r.ok_trials),
        }
        for m, r in results.items()
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_compare(args):
    config = _load_config(args)
    if bool(args.empirical) != bool(args.predicted):
        raise InvalidModelError("--empirical and --predicted are given together or not at all")
    if args.empirical:
        emp = harness.read_result_csv(args.empirical)
        pred = harness.read_result_csv(args.predicted)
    else:
        result = harness.run_trials(config)
        emp = harness.result_rows(result)
        pred = harness.se_rows(config.experiment_id, result.se_result)
    joined = harness.compare_rows(emp, pred)
    report = {
        "rows": len(joined),
        "max_abs_gap_db": harness.max_abs_gap(joined),
        "max_abs_gap_db_layer0": harness.max_abs_gap(joined, layer=0),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"report": report, "joined": joined}, fh, indent=2)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_fixedpoint(args):
    config = _load_config(args)
    spec, signals = _load_problem(args) if args.network else _synthetic_problem(config)
    _, _, report = run(spec, signals.y, config.engine)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mlvamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic network and signals")
    _add_common(p, skip=("--trials", "--mode", "--max-iters"))
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the engine; write a trace CSV")
    _add_common(p)
    p.add_argument("--network", help="network JSON (else synthesize from the recipe)")
    p.add_argument("--signals", help="signals JSON accompanying --network")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("se", help="write the predictor's curves as CSV")
    _add_common(p, skip=("--trials",))
    p.set_defaults(func=_cmd_se)

    p = sub.add_parser("sweep", help="repeat the experiment over measurement counts")
    _add_common(p)
    p.add_argument("--measurements", required=True, help="comma list, e.g. 10,50,100")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="join empirical and predicted curves")
    _add_common(p)
    p.add_argument("--empirical", help="empirical CSV (else run fresh trials)")
    p.add_argument("--predicted", help="predictor CSV")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fixedpoint", help="print fixed-point diagnostics as JSON")
    _add_common(p, skip=("--trials", "--out"))
    p.add_argument("--network", help="network JSON")
    p.add_argument("--signals", help="signals JSON accompanying --network")
    p.set_defaults(func=_cmd_fixedpoint)
    return parser


def cli_main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    source, skip = _UNREAD_WITH_FILES.get(args.command, (None, ()))
    unread = [f for f in skip if getattr(args, f[2:].replace("-", "_")) is not None]
    if unread and getattr(args, source):
        parser.error(f"unrecognized arguments: {' '.join(unread)} ({args.command} --{source})")
    try:
        return args.func(args)
    except (DivergedIterationError, NumericFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MlvampError, OSError, KeyError, json.JSONDecodeError, MemoryError) as exc:
        label = ("out of memory" if isinstance(exc, MemoryError)
                 else "worker lost" if isinstance(exc, WorkerLostError) else "configuration error")
        print(f"{label}: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
