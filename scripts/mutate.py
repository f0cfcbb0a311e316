#!/usr/bin/env python3
"""Mutation gate: every mutant in tests/mutants.py must fail its tests.

Usage: scripts/mutate.py

Each mutant runs on its own copy of src/ in a temporary directory, with
its old text (which must occur exactly once) replaced by its new text.
Only the tests it names run, against that copy, from inside the temporary
directory: pytest stops at the first failure, with no cache, no bytecode
and Hypothesis's example database off, so nothing is written into the
checkout.  A mutant is killed when pytest reports a failing test (exit
code 1); a collection error or a usage error does not count.  An
equivalent mutant is only checked to apply.  The mutants are independent,
so they run concurrently, one pytest per CPU (``os.cpu_count()``), and are
reported in list order.  Exits 1 if any mutant survives or no longer
applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402

# A pytest plugin, loaded with -p, that turns Hypothesis's database off
NO_DATABASE = ("def pytest_configure(config):\n"
               "    from hypothesis import settings\n"
               "    settings.register_profile('mutate', database=None)\n"
               "    settings.load_profile('mutate')\n")


def apply(mutant: dict, src: Path) -> str | None:
    """Write the mutant into the copy at ``src``, or say why it cannot."""
    path = src / mutant["path"]
    text = path.read_text("utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        return f"old text occurs {count} times in {mutant['path']}"
    path.write_text(text.replace(mutant["old"], mutant["new"]), "utf-8")
    return None


def verdict(mutant: dict) -> str | None:
    """None if the mutant is killed (or equivalent and still applies),
    else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        problem = apply(mutant, src)
        if problem or "equivalent" in mutant:
            return problem
        (Path(tmp) / "no_database.py").write_text(NO_DATABASE, "utf-8")
        env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{tmp}",
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-p", "no_database", "--rootdir", str(ROOT),
             *(str(ROOT / test) for test in mutant["tests"])],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        if done.returncode != 1:
            return f"survived (pytest exit code {done.returncode})"
    return None


def timed_verdict(mutant: dict) -> tuple[str | None, float]:
    start = time.perf_counter()
    return verdict(mutant), time.perf_counter() - start


def main() -> int:
    failed = 0
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        # map yields in list order, each result as soon as it and every
        # result before it are done
        for mutant, (problem, seconds) in zip(
                MUTANTS, pool.map(timed_verdict, MUTANTS)):
            status = f"FAILED: {problem}" if problem is not None \
                else "equivalent" if "equivalent" in mutant else "killed"
            failed += problem is not None
            print(f"{mutant['name']}: {status} ({seconds:.1f} s)",
                  flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants pass the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
