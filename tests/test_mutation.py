"""Bad input exits 2: every field of a config, a network file and a signals file,
set to each of a list of odd values, run in-process through the CLI.

A case passes when the command returns 0 (the value is valid), 2 (bad input)
or 3 (a numerical failure).  A traceback out of ``cli_main`` or a run that
outlasts the per-case alarm is an escape, and so is a ``run --network`` that
exits 0 but writes a non-finite NMSE, gamma or alpha; the test lists every
escape it finds.  The problem is small (a 4/8/8 recipe, 6 measurements,
2 iterations), so a valid case takes milliseconds.  No address-space limit is set: it would
bind the whole test process.
"""

import copy
import csv
import json
import math
import signal

from mlvamp.cli import cli_main

#: JSON values no field expects, or expects only in some of its range.
ODD_VALUES = [None, "x", -1, 0, 2.5, 1e308, -1e308, math.nan, math.inf, [], {}, True, [1],
              10**30, "5"]

#: Seconds a case may run before it counts as a hang.
ALARM_S = 10

BASE_CONFIG = {
    "recipe": {"hidden_dims": [4, 8, 8], "measurements": 6, "positive_fraction": 0.4,
               "condition_number": 10.0, "snr_db": 30.0, "bias_std": 1.0, "activation": "relu"},
    "engine": {"max_iters": 2, "mode": "mmse", "gamma_init": 1e-4, "damping": 1.0,
               "alpha_clip": 1e-6, "convergence_tol": 0.0},
    "se": {"stop_tol": 0.0, "quad_order": 12},
    "trials": 2,
    "master_seed": 0,
    "experiment_id": "mutation",
}


#: The columns of a ``run --network`` CSV that an exit-0 run must write finite.
FINITE_COLUMNS = ("nmse_db_empirical", "gamma_plus", "gamma_minus", "alpha_plus", "alpha_minus")


class _Hang(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _hang(signum, frame):
    raise _Hang


def _fields(doc, path=()):
    """Every path into ``doc``: each key of a dict, each entry of a list of
    dicts, and the first and last entry of any other list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc) if isinstance(doc[0], dict) else {0: doc[0], -1: doc[-1]}.items()
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _mutated(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _outcome(argv):
    """The command's exit code, or what escaped it."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(ALARM_S)
    try:
        return cli_main(argv)
    except _Hang:
        return f"no exit within {ALARM_S} s"
    except SystemExit as exc:  # argparse
        return exc.code
    except Exception as exc:  # a traceback is what the pass looks for
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _non_finite_entry(csv_path):
    """The first entry of ``FINITE_COLUMNS`` in a result CSV that is not finite, or None."""
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("# schema_version")):
            for key in FINITE_COLUMNS:
                if not math.isfinite(float(row[key])):
                    return f"exit 0 with {key} = {row[key]}"
    return None


def _escapes(doc, write, commands):
    """Each (field, value, command, outcome) whose outcome is not exit 0, 2 or 3;
    a ``run --network`` that exits 0 has its CSV read back."""
    found = []
    for path in _fields(doc):
        for value in ODD_VALUES:
            write(_mutated(doc, path, value))
            for argv in commands:
                outcome = _outcome(argv)
                if outcome == 0 and argv[0] == "run" and "--network" in argv:
                    outcome = _non_finite_entry(argv[argv.index("--out") + 1]) or 0
                if outcome not in (0, 2, 3):
                    found.append((".".join(map(str, path)), repr(value), argv[0], outcome))
    return found


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_every_config_field_exits_0_2_or_3(tmp_path, monkeypatch):
    monkeypatch.setenv("MLVAMP_THREADS", "1")
    cfg, out = str(tmp_path / "cfg.json"), str(tmp_path / "out.csv")
    commands = [["se", "--config", cfg, "--out", out], ["run", "--config", cfg, "--out", out],
                ["fixedpoint", "--config", cfg]]
    assert _escapes(BASE_CONFIG, lambda doc: _dump(cfg, doc), commands) == []


def test_every_network_and_signals_field_exits_0_2_or_3(tmp_path, monkeypatch):
    monkeypatch.setenv("MLVAMP_THREADS", "1")
    cfg, net, out = (str(tmp_path / name) for name in ("cfg.json", "net.json", "out.csv"))
    sig = str(tmp_path / "net.signals.json")
    _dump(cfg, BASE_CONFIG)
    assert cli_main(["generate", "--config", cfg, "--out", net]) == 0
    with open(net) as fh:
        network = json.load(fh)
    with open(sig) as fh:
        signals = json.load(fh)
    files = ["--network", net, "--signals", sig, "--max-iters", "2"]
    commands = [["run", *files, "--out", out], ["fixedpoint", *files]]
    found = _escapes(network, lambda doc: _dump(net, doc), commands)
    _dump(net, network)
    found += _escapes(signals, lambda doc: _dump(sig, doc), commands)
    assert found == []
