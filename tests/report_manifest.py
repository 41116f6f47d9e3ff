"""Report manifest: the bytes of a fixed corpus of console runs, as digests.

The behaviour contract holds every report byte and exit code fixed for a
given config and seed.  This script runs ``honestflow.cli.main`` in-process
on a fixed corpus of cases and prints one line per case and file, tab
separated: the case, the file, and the SHA-256 of its bytes.  The files are
each report the case writes, its stdout and its stderr; a last line holds
its exit code.  Each case writes its reports to a fresh directory, named
HONESTFLOW_OUTPUT_DIR, whose path stdout reads as ``$OUTPUT_DIR``.

It imports ``honestflow`` from ``sys.path``, so the same corpus manifests
any checkout; ``--diff`` names each case and file that differ:

    PYTHONPATH=<parent checkout>/src python tests/report_manifest.py > old.txt
    PYTHONPATH=src python tests/report_manifest.py > new.txt
    python tests/report_manifest.py --diff old.txt new.txt

It exits 1 when the two differ.  The file does not match pytest's test
pattern; ``test_report_manifest.py`` checks it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILTINS = ("unit-ladder-honest", "geometric-ladder-dishonest", "disk-billiard")
OUTPUT_TOKEN = "$OUTPUT_DIR"

# argv of each case: the builtins and the .github/cli-cases/ configs in full,
# the console checks of the honesty and resolvent commands, and two inputs
# that exit 1
CASES = [
    *(["run", name] for name in BUILTINS),
    *(["run", str(cfg)] for cfg in sorted((ROOT / ".github" / "cli-cases").glob("*.cfg"))),
    ["honesty", "disk-billiard", "--window", "0,5"],
    ["honesty", "geometric-ladder-dishonest", "--window", "1,2"],
    ["honesty", "geometric-ladder-dishonest", "--window", "0,0.5"],
    ["resolvent", "geometric-ladder-dishonest", "--lambda", "1"],
    ["honesty", "unit-ladder-honest", "--window", "0,3"],
    ["run", "no-such-scenario"],
    ["honesty", "geometric-ladder-dishonest", "--window", "2,1"],
]


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run_case(argv, out_dir: pathlib.Path) -> list:
    """(file, value) pairs of one case whose reports go to out_dir."""
    from honestflow import cli

    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, HONESTFLOW_OUTPUT_DIR=str(out_dir)),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = cli.main(list(argv))
    reports = sorted(out_dir.iterdir()) if out_dir.exists() else []
    return [*((path.name, _digest(path.read_bytes())) for path in reports),
            ("stdout", _digest(out.getvalue().replace(str(out_dir), OUTPUT_TOKEN))),
            ("stderr", _digest(err.getvalue())), ("exit", str(code))]


def manifest(cases=CASES) -> str:
    """The manifest of cases, one ``case<TAB>file<TAB>value`` line each; a
    case is its argv, config paths relative to the repository."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(cases):
            name = " ".join(argv).replace(f"{ROOT}{os.sep}", "")
            lines += [f"{name}\t{file}\t{value}"
                      for file, value in run_case(argv, pathlib.Path(tmp) / str(k))]
    return "\n".join(lines) + "\n"


def _entries(text: str) -> dict:
    entries = {}
    for line in text.splitlines():
        case, file, value = line.split("\t")
        entries[case, file] = value
    return entries


def diff(old: str, new: str) -> list:
    """A line per case and file whose value differs, or that one side lacks."""
    a, b = _entries(old), _entries(new)
    keys = list(a) + [key for key in b if key not in a]
    return [f"{case}\t{file}\t{a.get((case, file), '-')} -> {b.get((case, file), '-')}"
            for case, file in keys if a.get((case, file)) != b.get((case, file))]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        sys.stdout.write(manifest())
        return 0
    if len(argv) != 3 or argv[0] != "--diff":
        print("usage: report_manifest.py [--diff OLD NEW]", file=sys.stderr)
        return 1
    old, new = (pathlib.Path(p).read_text() for p in argv[1:])
    changed = diff(old, new)
    if changed:
        print("\n".join(changed))
        return 1
    print(f"no difference in {len(_entries(new))} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
