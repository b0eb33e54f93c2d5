"""Fail when tier-1 leaves a `raise` statement of the package unreached.

Copies `src` to a temporary directory and puts one recorder call before
each `raise` of the copy.  The call appends `file:line`, the line of that
`raise` in `src`, to the file named by the environment variable
REACH_LOG.  Tier-1 then runs against the copy, which comes first on
PYTHONPATH, so the CLI processes that the tests start record their hits
too.  Hits from mutant code that a test compiles from a string do not
count.  Every `raise` must be reached, or be on ALLOWLIST with a reason.

Run: python tests/reach_raises.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "meanderslice"

# "file:line" -> why tier-1 does not reach that raise
ALLOWLIST = {}

RECORDER = '''\
def _reached(site):
    import os, sys

    if sys._getframe(1).f_code.co_filename.endswith(".py"):
        with open(os.environ["REACH_LOG"], "a") as log:
            log.write(site + "\\n")


'''


def instrument(path):
    """Put a recorder call before each `raise` of the file at `path`;
    returns the sites "file:line" of those raises."""
    lines = path.read_text().splitlines(keepends=True)
    tree = ast.parse("".join(lines))
    raises = sorted(
        (node.lineno, node.col_offset) for node in ast.walk(tree) if isinstance(node, ast.Raise)
    )
    sites = ["%s:%d" % (path.name, lineno) for lineno, _ in raises]
    # bottom up, so that each insert leaves the lines above it in place
    for site, (lineno, col) in reversed(list(zip(sites, raises))):
        line = lines[lineno - 1]
        if not line[col:].startswith("raise"):
            sys.exit("%s: the raise does not start its line" % site)
        lines.insert(lineno - 1, line[:col] + '__import__("%s")._reached("%s")\n' % (PACKAGE, site))
    path.write_text("".join(lines))
    return sites


def main():
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / PACKAGE, src / PACKAGE)
        sites = []
        for path in sorted((src / PACKAGE).glob("*.py")):
            sites += instrument(path)
        init = src / PACKAGE / "__init__.py"
        init.write_text(RECORDER + init.read_text())
        log = Path(tmp) / "reached.log"
        log.touch()
        env = dict(os.environ, REACH_LOG=str(log))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=ROOT,
            env=env,
        )
        reached = set(log.read_text().split())
    unreached = [site for site in sites if site not in reached and site not in ALLOWLIST]
    stale = [site for site in ALLOWLIST if site in reached or site not in sites]
    print("%d of %d raise statements reached by tier-1" % (len(reached & set(sites)), len(sites)))
    for site in unreached:
        print("unreached and not on the allowlist: %s" % site)
    for site in stale:
        print("on the allowlist but reached or gone: %s" % site)
    if tests.returncode:
        print("tier-1 failed on the instrumented copy (exit %d)" % tests.returncode)
    return 1 if unreached or stale or tests.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
