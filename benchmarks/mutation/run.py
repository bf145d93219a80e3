"""Mutation census: which test sees each small wrong change to one module?

Usage::

    python benchmarks/mutation/run.py MODULE_PATH [PYTEST_ARGS...]

``MODULE_PATH`` is relative to the repository root, for example
``src/repro/common/records.py``.  ``PYTEST_ARGS`` default to tier-1 with
``-x`` (``-x -q``); any given replace them, so
``... records.py tests/common/test_records.py -x -q`` holds one test file
to the module.

Each mutant is one token-level change:

- comparison, identity and membership swaps: ``==``/``!=``,
  ``<``/``>=``, ``>``/``<=``, ``is``/``is not``, ``in``/``not in``;
- constant swaps: ``None`` -> ``()``, ``NotImplemented`` -> ``False``,
  ``True`` -> ``False``, ``False`` -> ``True``;
- string-constant swaps: a non-empty string or f-string -> ``""``, an
  empty one -> ``"mutant"``;
- each ``raise`` and ``return`` statement -> ``pass``.

Docstrings are not mutated: no test can see them.

The census copies the repository (without ``.git`` and caches) into a
temporary directory once, checks that the unmutated copy passes, then
writes each mutant into the copy and runs pytest there with
``PYTHONPATH`` at the copy's ``src`` and bytecode writing off, so no
stale ``.pyc`` outlives its mutant.  The working tree is never written:
a census that is killed cannot leave a module mutated.

It prints one line per mutant, ``LINE:COL BEFORE -> AFTER`` (columns
count from 1) and then the first test that failed (``exit N`` if pytest
names none), ``timeout``, ``SURVIVED``, or ``invalid``.  A mutant that
does not ``compile()`` is invalid and is never counted as killed: ``for
name in`` -> ``for name not in`` would otherwise "die" by a collection
error.

It exits 1 if any survivor is not listed in
``benchmarks/mutation/equivalent.txt``, 2 if the unmutated copy fails,
and 0 otherwise.  That file holds one survivor per line, as
``MODULE_PATH:LINE:COL BEFORE -> AFTER  # REASON``: the mutant exactly
as the census prints it, two spaces, ``#`` and why no test should kill
it.  Blank lines and lines starting with ``#`` are comments; an entry
without a reason is an error.
"""

import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EQUIVALENT = Path(__file__).with_name("equivalent.txt")
DEFAULT_ARGS = ["-x", "-q"]

SWAPS = {
    "==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">",
    "None": "()", "NotImplemented": "False", "True": "False",
    "False": "True",
}
#: Tokens after which a string literal starts a statement (a docstring).
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def _string_swap(text):
    prefix = text[:len(text) - len(text.lstrip("rRbBuUfF"))]
    body = text[len(prefix):]
    quote = 3 if body[:3] in ('"""', "'''") else 1
    kept = "b" if "b" in prefix.lower() else ""
    if len(body) > 2 * quote:
        return kept + '""'
    return kept + '"mutant"'


def mutants(source):
    """Yield ``(start, end, before, after)`` for each mutant of ``source``:
    ``start``/``end`` are (row, col) token positions, ``before`` the
    replaced text and ``after`` its replacement."""
    tokens = [tok for tok in tokenize.generate_tokens(
        io.StringIO(source).readline)
        if tok.type not in (tokenize.NL, tokenize.COMMENT)]
    fstring_start = getattr(tokenize, "FSTRING_START", None)
    skip_until = None
    for index, tok in enumerate(tokens):
        if skip_until is not None:
            if tok.start < skip_until:
                continue
            skip_until = None
        after_tok = tokens[index + 1] if index + 1 < len(tokens) else None
        before_tok = tokens[index - 1] if index else None
        if tok.type == tokenize.STRING or tok.type == fstring_start:
            end = tok.end
            if tok.type == fstring_start:  # 3.12+: an f-string is a run
                depth = 0
                for later in tokens[index:]:
                    depth += {fstring_start: 1,
                              tokenize.FSTRING_END: -1}.get(later.type, 0)
                    if depth == 0:
                        end = later.end
                        break
                skip_until = end
            following = next(
                (t for t in tokens[index + 1:] if t.start >= end), None)
            if ((before_tok is None or before_tok.type in _STATEMENT_START)
                    and following is not None
                    and following.type == tokenize.NEWLINE):
                continue  # a docstring or a bare string statement
            text = _span(source, tok.start, end)
            yield tok.start, end, text, _string_swap(text)
        elif tok.type == tokenize.OP and tok.string in SWAPS:
            yield tok.start, tok.end, tok.string, SWAPS[tok.string]
        elif tok.type != tokenize.NAME:
            continue
        elif tok.string in SWAPS:
            yield tok.start, tok.end, tok.string, SWAPS[tok.string]
        elif tok.string == "is":
            if after_tok.string == "not":
                yield tok.start, after_tok.end, "is not", "is"
            else:
                yield tok.start, tok.end, "is", "is not"
        elif tok.string == "not" and after_tok.string == "in":
            yield tok.start, after_tok.end, "not in", "in"
        elif tok.string == "in" and before_tok.string != "not":
            yield tok.start, tok.end, "in", "not in"
        elif tok.string in ("raise", "return"):
            end = next(t for t in tokens[index:]
                       if t.type == tokenize.NEWLINE).start
            yield tok.start, end, _span(source, tok.start, end), "pass"


def _offset(source, position):
    """The index in ``source`` of a tokenize (row, col) position."""
    row, col = position
    lines = io.StringIO(source).readlines()
    return sum(len(line) for line in lines[:row - 1]) + col


def _span(source, start, end):
    return source[_offset(source, start):_offset(source, end)]


def apply(source, start, end, after):
    return (source[:_offset(source, start)] + after
            + source[_offset(source, end):])


def describe(start, before, after):
    return f"{start[0]}:{start[1] + 1} {' '.join(before.split())} -> {after}"


def load_equivalent():
    """The listed survivors, keyed ``MODULE_PATH:LINE:COL BEFORE -> AFTER``."""
    listed = {}
    if not EQUIVALENT.exists():
        return listed
    for number, line in enumerate(EQUIVALENT.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, sep, reason = line.partition("  # ")
        if not sep or not reason.strip():
            raise SystemExit(
                f"{EQUIVALENT}:{number}: an entry needs '  # REASON'")
        listed[key.strip()] = reason.strip()
    return listed


def _first_failure(output):
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return None


def _pytest(copy, args, timeout):
    """(exit code, output) of pytest in ``copy``; the code is None on a
    timeout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(copy / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
               "-rfE", *args]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    module, args = argv[0], argv[1:] or DEFAULT_ARGS
    source = (ROOT / module).read_text()
    listed = load_equivalent()
    unlisted = []
    counts = dict(killed=0, survived=0, invalid=0)
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
            ".bench_*", ".benchmarks"))
        target = copy / module
        started = time.monotonic()
        code, output = _pytest(copy, args, timeout=None)
        seconds = time.monotonic() - started
        if code != 0:
            print(output[-2000:])
            print(f"the unmutated tree fails (exit {code}): no census")
            return 2
        print(f"{module}: unmutated run passes in {seconds:.1f}s")
        limit = 3 * seconds + 30
        for start, end, before, after in mutants(source):
            name = describe(start, before, after)
            mutated = apply(source, start, end, after)
            try:
                with warnings.catch_warnings():  # ``x is ()`` is valid
                    warnings.simplefilter("ignore", SyntaxWarning)
                    compile(mutated, module, "exec")
            except SyntaxError:
                counts["invalid"] += 1
                print(f"{name}  invalid", flush=True)
                continue
            target.write_text(mutated)
            code, output = _pytest(copy, args, timeout=limit)
            if code == 0:
                counts["survived"] += 1
                key = f"{module}:{name}"
                verdict = "SURVIVED"
                if key in listed:
                    verdict += f" (equivalent: {listed[key]})"
                else:
                    unlisted.append(key)
            else:
                counts["killed"] += 1
                verdict = ("timeout" if code is None
                           else _first_failure(output) or f"exit {code}")
            print(f"{name}  {verdict}", flush=True)
    print(", ".join(f"{count} {kind}" for kind, count in counts.items()))
    for key in unlisted:
        print(f"unlisted survivor: {key}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
