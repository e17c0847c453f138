"""The names the benchmark in bench/ wraps, patches or calls must exist.

A renamed target would otherwise show up only as an "absent" line in a
traced benchmark run.  This test reads bench/ and changes nothing there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _resolve(target):
    modname, _, qual = target.partition(":")
    obj = importlib.import_module(modname)
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


def test_benchmark_hooks_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [target for target, _, _ in tracer.LAYER_TARGETS]
    assert {"rotbec.cli:main", "rotbec.cli:write_csv"} <= set(targets)
    # bench/run.py's Descents patches _Flow.descend; sweep-cli's setup calls load_config
    for target in targets + ["rotbec.gp:_Flow.descend", "rotbec.cli:load_config"]:
        assert callable(_resolve(target)), target


def test_cli_entry_points_keep_their_signatures():
    import rotbec.cli as cli

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(cli.load_config) == ["path"]
    assert params(cli.main) == ["argv"]
    assert params(cli.write_csv) == ["path", "header", "rows", "digest", "seed"]
