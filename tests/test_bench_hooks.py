"""The names the benchmark in bench/ wraps, patches or calls must exist,
and the arguments it passes must fit their signatures.

A renamed target would otherwise show up only as an "absent" line in a
traced benchmark run.  This test reads bench/ and changes nothing there.
"""

import ast
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


_WORKLOADS = _TRACER.parent / "workloads.py"


def _rotbec_names(tree):
    """{local name: object} of every name bench/workloads.py imports from rotbec."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "rotbec":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _target(call, rotbec, helpers):
    """(rotbec callable, the positional arguments it gets or None) of a call, or None.

    A call reaches a rotbec callable by its name, through a local helper that
    passes its **kwargs on (``gp_family``, ``Tally.dm``), or by handing it on
    as a positional argument (``tally.call(label, fn, *args, **kwargs)``).
    """
    func = call.func
    if isinstance(func, ast.Name) and func.id in rotbec:
        return rotbec[func.id], call.args
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in helpers:
        return helpers[name], None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and arg.id in rotbec:
            return rotbec[arg.id], call.args[i + 1:]
    return None


def _spread(call):
    """The names spread into a call as ``**name``."""
    return [k.value.id for k in call.keywords if k.arg is None and isinstance(k.value, ast.Name)]


def _dict_literals(function, name):
    """The ``dict(...)`` calls that reach ``**name`` in ``function`` through a loop
    ``for ..., name in X.items()`` over a dict display ``X = {key: dict(...)}``."""
    displays = {t.id: node.value for node in ast.walk(function) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    for loop in ast.walk(function):
        target = getattr(loop, "target", None)
        last = target.elts[-1] if isinstance(target, ast.Tuple) else target
        source = getattr(getattr(getattr(loop, "iter", None), "func", None), "value", None)
        if (isinstance(loop, ast.For) and isinstance(last, ast.Name) and last.id == name
                and isinstance(source, ast.Name)
                and isinstance(displays.get(source.id), ast.Dict)):
            yield from (v for v in displays[source.id].values
                        if isinstance(v, ast.Call) and getattr(v.func, "id", None) == "dict")


def test_workload_arguments_bind_to_rotbec_signatures():
    """Every call bench/workloads.py makes into rotbec binds to the callee's signature.

    A renamed or dropped keyword would otherwise fail only inside a benchmark run.
    """
    tree = ast.parse(_WORKLOADS.read_text())
    rotbec = _rotbec_names(tree)
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    helpers = {}
    for _ in functions:  # a helper may forward to another helper
        for f in functions:
            forwarded = [_target(c, rotbec, helpers) for c in ast.walk(f)
                         if isinstance(c, ast.Call) and f.args.kwarg
                         and f.args.kwarg.arg in _spread(c)]
            helpers.update({f.name: t[0] for t in forwarded if t})
    bad, reached = [], set()
    for f in functions:
        for call in (c for c in ast.walk(f) if isinstance(c, ast.Call)):
            target = _target(call, rotbec, helpers)
            if target is None:
                continue
            fn, positional = target
            if positional is None or any(isinstance(a, ast.Starred) for a in positional):
                positional = []
            keyword_sets = [[k.arg for k in call.keywords if k.arg]]
            keyword_sets += [[k.arg for k in d.keywords]
                             for name in _spread(call) for d in _dict_literals(f, name)]
            for keywords in keyword_sets:
                try:
                    inspect.signature(fn).bind_partial(*positional, **dict.fromkeys(keywords))
                except TypeError as exc:
                    bad.append(f"line {call.lineno}: {fn.__name__}: {exc}")
            reached.add(fn.__name__)
    assert {"gp_family", "dm"} <= set(helpers)
    assert {"minimize_gp_family", "minimize_dm", "lowest_eigenpairs", "gp_limit_scan",
            "coherent_state_checks", "ModelSpec"} <= reached
    assert not bad, bad
