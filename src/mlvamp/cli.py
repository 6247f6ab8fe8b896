"""Command-line entry point.

Subcommands:

* ``generate``   write a synthetic network + signal/measurement files
* ``run``        run the message-passing engine on a network + measurement
* ``se``         write the deterministic predictor's curves
* ``sweep``      repeat the experiment over a list of measurement counts
* ``compare``    join empirical and predicted curves, report the worst gap
* ``fixedpoint`` print the fixed-point diagnostics of a converged run

Exit codes: 0 success, 2 configuration error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .engine import run
from .errors import DivergedIterationError, InvalidModelError, MlvampError, NumericFailureError
from .model import SignalSet, forward_generate, load_network, save_network
from .state_evolution import run_se


def _add_common(p):
    p.add_argument("--config", help="JSON experiment configuration")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--mode", choices=("map", "mmse"), default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--out", default=None, help="output path")
    p.add_argument("--se-method", choices=("quadrature", "mc"), default=None)
    p.add_argument("--se-samples", type=int, default=None)


def _load_config(args):
    config = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    engine_cfg = config.engine
    if args.mode is not None:
        engine_cfg = replace(engine_cfg, mode=args.mode)
    if args.max_iters is not None:
        engine_cfg = replace(engine_cfg, max_iters=args.max_iters)
    se_cfg = config.se
    if args.se_method is not None:
        se_cfg = replace(se_cfg, expectation=replace(se_cfg.expectation, method=args.se_method))
    if args.se_samples is not None:
        se_cfg = replace(se_cfg, expectation=replace(se_cfg.expectation, mc_samples=args.se_samples))
    return replace(config, engine=engine_cfg, se=se_cfg)


def _cmd_generate(args):
    config = _load_config(args)
    calibration = harness.calibrate_recipe(config.recipe, config.master_seed)
    spec = harness.build_synthetic_network(config.recipe, config.master_seed, calibration)
    signals = forward_generate(spec, config.master_seed)
    out = args.out or "network.json"
    save_network(spec, out)
    sig_path = out.replace(".json", "") + ".signals.json"
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
    return spec, SignalSet(signals=tuple(np.asarray(z, float) for z in doc["signals"]))


def _cmd_run(args):
    config = _load_config(args)
    if args.network:
        spec, truth = _load_problem(args)
        state, trace, report = run(spec, truth.y, config.engine, truth=truth)
        rows = []
        for row in trace.rows:
            for ell, db in enumerate(row.nmse_db or ()):
                rows.append(
                    {
                        "experiment_id": config.experiment_id,
                        "trial_seed": config.master_seed,
                        "half_iter": row.half_iter,
                        "layer": ell,
                        "nmse_db_empirical": db,
                        "nmse_db_se": math.nan,
                        "gamma_plus": row.gamma_plus[ell],
                        "gamma_minus": row.gamma_minus[ell],
                        "alpha_plus": row.alpha_plus[ell],
                        "alpha_minus": row.alpha_minus[ell],
                        "residual_consistency": row.consistency,
                        "wall_ms": math.nan,
                    }
                )
        out = args.out or "run.csv"
        harness.write_result_csv(out, rows)
        print(f"wrote {out} ({len(rows)} rows)")
        return 0
    result = harness.run_trials(config)
    out = args.out or "run.csv"
    harness.write_result_csv(out, harness.result_rows(result))
    print(f"wrote {out} ({config.trials} trials)")
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
    rows = []
    for m, result in results.items():
        rows.extend(harness.result_rows(result))
    out = args.out or "sweep.csv"
    harness.write_result_csv(out, rows)
    summary = {}
    for m, result in results.items():
        med = result.median_nmse_db()
        mean = result.mean_nmse_db()
        se_db = result.se_result.nmse_db
        n = result.n_half
        summary[m] = {
            "median_final_nmse_db": float(med[-1, 0]),
            "mean_final_nmse_db": float(mean[-1, 0]),
            "se_final_nmse_db": float(se_db[n - 1, 0]),
            "failed_trials": len(result.trials) - len(result.ok_trials),
        }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_compare(args):
    config = _load_config(args)
    if args.empirical and args.predicted:
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
    if args.network:
        spec, signals = _load_problem(args)
    else:
        calibration = harness.calibrate_recipe(config.recipe, config.master_seed)
        spec = harness.build_synthetic_network(config.recipe, config.master_seed, calibration)
        signals = forward_generate(spec, config.master_seed)
    _, _, report = run(spec, signals.y, config.engine)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mlvamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic network and signals")
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the engine; write a trace CSV")
    _add_common(p)
    p.add_argument("--network", help="network JSON (else synthesize from the recipe)")
    p.add_argument("--signals", help="signals JSON accompanying --network")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("se", help="write the predictor's curves as CSV")
    _add_common(p)
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
    _add_common(p)
    p.add_argument("--network", help="network JSON")
    p.add_argument("--signals", help="signals JSON accompanying --network")
    p.set_defaults(func=_cmd_fixedpoint)
    return parser


def cli_main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergedIterationError, NumericFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MlvampError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
