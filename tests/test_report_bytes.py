"""Report bytes do not depend on how the particle work is split.

Every report of a config is a pure function of the config: the CSV series,
the text summary and the CLI's stdout are the same bytes whatever the number
of workers and the slice size of the disk kernels.  Each case runs through
``cli.main`` once per setting, and the digests of its outputs must agree.
"""

import hashlib
import math

import pytest

from honestflow import _kernels, cli

HEXAGON = "; ".join(f"{math.cos(k * math.pi / 3)!r}, {math.sin(k * math.pi / 3)!r}"
                    for k in range(6))


def config(geometry, boundary, density, run):
    return (f"[geometry]\nkind = billiard\n{geometry}\n\n[boundary]\nkind = specular\n"
            f"{boundary}\n\n[density]\nkind = ensemble\n{density}\n\n[run]\ntol = 1e-12\n"
            f"n_cap = 64\n{run}\n")


CONFIGS = {
    "reduced-disk": config(
        "shape = disk\ncenter = 0, 0\nradius = 1\nspeeds = 1", "scale = 1",
        "count = 5000\nseed = 42\nregion = domain", "times = 0.5, 2, 5, 10, 20\nlabel = reduced"),
    "off-centre-disk": config(
        "shape = disk\ncenter = 0.3, -0.7\nradius = 2.5\nspeeds = 0.5, 1, 3", "scale = 0.7",
        "count = 4000\nseed = 11\nregion = box:0,-1,1.5,0",
        "times = 0.5, 2, 5, 7, 1\nwindows = 0, 5; 0, 3\nlabel = off-centre"),
    "speed-band-disk": config(
        "shape = disk\ncenter = 0, 0\nradius = 1\nspeed_band = 0.5, 2", "scale = 1",
        "count = 3000\nseed = 3\nregion = disk:0.1,0,0.5",
        "times = 0.5, 2, 5\nwindows = 0, 4\nlabel = band"),
    "hexagon": config(
        f"shape = polygon\nvertices = {HEXAGON}\nspeeds = 1", "scale = 0.8",
        "count = 3000\nseed = 7\nregion = domain",
        "times = 0.5, 2, 5\nwindows = 0, 5\nlabel = hexagon"),
}

BUILTINS = ("unit-ladder-honest", "geometric-ladder-dishonest", "disk-billiard")

CASES = [("run", name) for name in (*BUILTINS, *CONFIGS)] + [
    ("honesty", "disk-billiard", "--window", "0,5"),
    ("honesty", "off-centre-disk", "--window", "0,5"),
    ("honesty", "hexagon", "--window", "0,3"),
]


def digests(argv, out_dir, capsys):
    """The exit code, stderr and the SHA-256 of stdout and every report."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    reports = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
    for path in files:
        path.unlink()
    return code, captured.err, hashlib.sha256(captured.out.encode()).hexdigest(), reports


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(case[:2]))
def test_reports_do_not_depend_on_the_split(monkeypatch, tmp_path, capsys, case):
    command, name, *rest = case
    target = name
    if name in CONFIGS:
        target = tmp_path / f"{name}.cfg"
        target.write_text(CONFIGS[name])
    out_dir = tmp_path / "reports"
    monkeypatch.setenv("HONESTFLOW_OUTPUT_DIR", str(out_dir))
    argv = [command, str(target), *rest]
    want = digests(argv, out_dir, capsys)
    assert want[0] in (0, 2) and not want[1]
    assert len(want[3]) == (2 if command == "run" else 0)
    monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
    for workers in (1, 3):
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n, w=workers: w)
        assert digests(argv, out_dir, capsys) == want, workers
