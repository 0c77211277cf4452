"""List the statements of the ``gridp2p`` package that the tier-1 suite never runs.

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` from
the repository root) in this process under the standard library's ``trace``
module, which counts every line executed in ``src/``, then compares those
lines with the package's executable lines: the lines that start a bytecode
instruction in a compiled module or in any function or class nested in it,
except a module's ``if __name__ == "__main__":`` body. Code that the suite
runs only in a subprocess is not seen.

Each unreached line is printed as ``path:line: source``. The script exits 1
if the suite fails or if any unreached line is outside ``ALLOWED``, else 0.
Tracing slows the suite several times over.

Usage:
    python scripts/reach.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import os
import sys
import trace
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridp2p"

# Lines no in-process test can run, as (module file, stripped source line).
# The console script's entry point exits the interpreter; the CLI tests call
# ``main`` instead.
ALLOWED = {("cli.py", "raise SystemExit(main())")}


def executable_lines(path: Path, source: str) -> set[int]:
    """The lines of ``source``, the text of ``path``, that start an instruction of its module or of
    any code nested in it, less the body of a module-level ``if __name__ == "__main__":``, which
    runs only as a script."""
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


class PackageTrace(trace.Trace):
    """Counts lines only in the package's files, judged by each code object's resolved file name.

    ``trace.Trace``'s own ignore lists cache their verdict by module base name,
    so an ignored ``core.py`` elsewhere would hide the package's ``core.py``.
    """

    def __init__(self) -> None:
        super().__init__(count=1, trace=0)
        self._ours: dict[str, bool] = {}

    def globaltrace_lt(self, frame, why, arg):
        if why != "call":
            return None
        name = frame.f_code.co_filename
        if name not in self._ours:
            self._ours[name] = Path(name).resolve().parent == PACKAGE
        return self.localtrace if self._ours[name] else None


def main(argv: list[str]) -> int:
    if "gridp2p" in sys.modules:
        raise RuntimeError("gridp2p must be imported under the tracer, or its definitions read as unreached")
    import pytest

    # Read before the suite runs, so the lines counted and the lines listed
    # are those of the modules the suite imports, even if a file changes meanwhile.
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    tracer = PackageTrace()
    os.chdir(ROOT)
    status = tracer.runfunc(pytest.main, ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    ran = {(Path(name).resolve(), line) for name, line in tracer.results().counts}

    unallowed = 0
    for path, source in sources.items():
        text_lines = source.splitlines()
        for line in sorted(executable_lines(path, source)):
            if (path, line) in ran:
                continue
            text = text_lines[line - 1].strip()
            allowed = (path.name, text) in ALLOWED
            unallowed += not allowed
            print(f"{path.relative_to(ROOT)}:{line}: {text}{'  (allowed)' if allowed else ''}")
    print(f"reach: {unallowed} unreached line(s) outside the allow-list; tier-1 exit status {int(status)}")
    return 1 if unallowed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
