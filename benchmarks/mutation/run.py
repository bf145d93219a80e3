"""Mutation census: which test sees each small wrong change to one module?

Usage::

    python benchmarks/mutation/run.py MODULE_PATH [PYTEST_ARGS...]

``MODULE_PATH`` is relative to the repository root, for example
``src/repro/common/records.py``.  ``PYTEST_ARGS`` default to tier-1
(``-q``); any given replace them, so ``... records.py
tests/common/test_records.py -q`` holds one test file to the module.
The census refuses ``-x``, ``--exitfirst`` and ``--maxfail``: a run that
stops at its first failure hides every other test that kills the mutant.

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
count from 1) and then every test that failed (``killed by`` and their
ids; ``exit N`` if pytest names none), ``timeout``, ``SURVIVED``, or
``invalid``.  A mutant that does not ``compile()`` is invalid and is
never counted as killed: ``for name in`` -> ``for name not in`` would
otherwise "die" by a collection error.

It ends with the kill table: one row per test that passed unmutated,
with the mutants it kills, the mutants it alone kills, and ``cover``
if a greedy cover of the killed mutants (see :func:`kill_table`) needs
it; a sole killer always is.

It exits 1 if any survivor is not listed in
``benchmarks/mutation/equivalent.txt`` or an entry there for
``MODULE_PATH`` matched no survivor of this run (a stale entry: its
mutant is killed now, or its line moved), 2 if the unmutated copy
fails or the arguments stop early, and 0 otherwise.  That file holds
one survivor per line, as ``MODULE_PATH:LINE:COL BEFORE -> AFTER  #
REASON``: the mutant exactly as the census prints it, two spaces,
``#`` and why no test should kill it.  Blank lines and lines starting
with ``#`` are comments; an entry without a reason is an error.

The kill table decides which tests stay.  A test the cover does not
need may be retired only if it lives in a censused module's own test
file; if after the cut the census of every censused module still
kills every mutant it killed before; if it is no reference-oracle
comparison nor part of the storage engine's model, and no gate,
figure, ``EXPERIMENTS.md``, doc or CI step names it; if it asserts no
behaviour owned by a module outside the census; and if the change
that retires it names it with the tests that still kill its mutants.
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
DEFAULT_ARGS = ["-q"]
STOP_EARLY = ("-x", "--exitfirst", "--maxfail")

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


def _tests(output, outcomes):
    """The test ids of the ``-r`` summary lines whose outcome is in
    ``outcomes`` (``FAILED tests/x.py::test_a - message``)."""
    return list(dict.fromkeys(
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(tuple(f"{o} " for o in outcomes))))


def _pytest(copy, args, timeout, report="fE"):
    """(exit code, output) of pytest in ``copy``; the code is None on a
    timeout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(copy / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
               f"-r{report}", *args]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def kill_table(killers, order):
    """The kill table's lines, from ``killers`` (mutant -> the tests that
    killed it) and ``order`` (the tests as they ran).  The greedy cover
    takes the test with most uncovered kills, ties to the earlier one."""
    kills = {test: set() for test in order}
    for mutant, tests in killers.items():
        for test in tests:
            kills.setdefault(test, set()).add(mutant)
    uncovered, cover = set(killers), set()
    while uncovered:
        best = max(kills, key=lambda test: len(kills[test] & uncovered))
        cover.add(best)
        uncovered -= kills[best]
    return ["kills   sole  cover  test", *(
        f"{len(mutants):5} {sum(t == [test] for t in killers.values()):6}"
        f"  {'cover' if test in cover else '     '}  {test}"
        for test, mutants in kills.items()
    ), f"cover: {len(cover)} of {len(kills)} tests kill all "
       f"{len(killers)} mutants a named test kills"]


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    module, args = argv[0], argv[1:] or DEFAULT_ARGS
    stops = [arg for arg in args if arg.split("=")[0] in STOP_EARLY]
    if stops:
        print(f"refused {stops}: a run that stops early hides the other "
              "tests that kill a mutant")
        return 2
    source = (ROOT / module).read_text()
    listed = load_equivalent()
    unlisted, survivors, killers = [], set(), {}
    counts = dict(killed=0, survived=0, invalid=0)
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
            ".bench_*", ".benchmarks"))
        target = copy / module
        started = time.monotonic()
        code, output = _pytest(copy, args, timeout=None, report="A")
        seconds = time.monotonic() - started
        if code != 0:
            print(output[-2000:])
            print(f"the unmutated tree fails (exit {code}): no census")
            return 2
        order = _tests(output, ("PASSED",))
        print(f"{module}: unmutated run passes {len(order)} tests "
              f"in {seconds:.1f}s")
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
                survivors.add(key)
                verdict = "SURVIVED"
                if key in listed:
                    verdict += f" (equivalent: {listed[key]})"
                else:
                    unlisted.append(key)
            else:
                counts["killed"] += 1
                failed = _tests(output, ("FAILED", "ERROR"))
                if failed:
                    killers[name] = failed
                verdict = ("timeout" if code is None
                           else f"killed by {' '.join(failed)}" if failed
                           else f"exit {code}")
            print(f"{name}  {verdict}", flush=True)
    print(", ".join(f"{count} {kind}" for kind, count in counts.items()))
    print("\n".join(kill_table(killers, order)))
    stale = [key for key in listed
             if key.startswith(f"{module}:") and key not in survivors]
    for key in unlisted:
        print(f"unlisted survivor: {key}")
    for key in stale:
        print(f"stale equivalent entry: {key}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
