"""A line-coverage floor for src/poisset: a pytest plugin on sys.settrace.

    PYTHONPATH=src:tests python -m pytest -p line_coverage -q
    PYTHONPATH=src:tests python tests/line_coverage.py -q

Tracing starts when this module is imported, and `-p` imports it before
conftest imports poisset, so module-level statements count.  Only frames
of src/poisset are traced line by line, and hypothesis draws the same
examples on every run.  At the end the plugin lists each
statement of src/poisset that never ran and is not in ALLOWED; under
pytest such a statement fails the session.  Run as a script, it runs
pytest and exits on the coverage alone, 1 if a statement is missed: the
tests' outcomes and time bounds are judged by an untraced run, since
tracing makes every test several times slower.
"""

import ast
import os
import sys
import threading
import types

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "poisset")

# (file, enclosing function, statement text): statements no test runs, on purpose
ALLOWED = {
    # the script entry; the tests call main() in-process
    ("cli.py", "", "sys.exit(main())"),
    # no caller asks about a modulus below 2: RingSpec refuses one first
    ("coeff.py", "_is_prime", "return False"),
    # after a KeyError or TypeError, naming the field raises for every
    # malformed document the tests know; the bare raise is the fallback
    ("algebra.py", "_parse_entries", "raise"),
    ("bracket.py", "Bracket.from_json", "raise"),
}

_hits: dict[str, set[int]] = {}
_tracers: dict[str, object] = {}
MISSED: list[str] = []


def _line_tracer(path: str):
    add = _hits.setdefault(path, set()).add

    def trace(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return trace

    return trace


def _trace(frame, event, arg):
    """The global tracer: a line tracer for the frames of src/poisset."""
    name = frame.f_code.co_filename
    tracer = _tracers.get(name, False)
    if tracer is False:
        path = os.path.abspath(name)
        inside = path.startswith(SOURCE + os.sep)
        tracer = _tracers[name] = _line_tracer(path) if inside else None
    return tracer


def statements(path: str) -> dict[int, tuple[str, str]]:
    """(enclosing function, text) of each statement of the file by line,
    the statements whose first line carries bytecode."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines, codes = set(), [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    text, found = source.splitlines(), {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child.lineno in lines:
                found.setdefault(child.lineno, (scope, text[child.lineno - 1].strip()))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    walk(ast.parse(source), "")
    return found


def missed() -> list[str]:
    """file:line (function) text for each statement never run, outside
    ALLOWED, and each entry of ALLOWED that matches no such statement."""
    out, allowed = [], set()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            path = os.path.join(SOURCE, name)
            hit = _hits.get(path, set())
            for line, (scope, text) in sorted(statements(path).items()):
                if line in hit:
                    continue
                if (name, scope, text) in ALLOWED:
                    allowed.add((name, scope, text))
                else:
                    out.append(f"src/poisset/{name}:{line} ({scope or 'module'}) {text}")
    out += [f"allowed, but run or gone: {entry}" for entry in sorted(ALLOWED - allowed)]
    return out


def pytest_configure(config):
    # the same hypothesis draws on every run: a statement that only some
    # draws reach shows as missed on every run, not on some
    from hypothesis import settings

    settings.register_profile("line_coverage", derandomize=True, database=None)
    settings.load_profile("line_coverage")


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    MISSED[:] = missed()
    if MISSED:
        session.exitstatus = max(int(session.exitstatus), 1)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    write(f"line coverage: {len(MISSED)} statements of src/poisset never run or wrongly allowed")
    for entry in MISSED:
        write("  " + entry)


if __name__ == "__main__":
    import pytest

    pytest.main(["-p", "line_coverage", *sys.argv[1:]])
    sys.exit(1 if sys.modules["line_coverage"].MISSED else 0)
else:
    sys.settrace(_trace)
    threading.settrace(_trace)
