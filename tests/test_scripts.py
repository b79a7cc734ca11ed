"""The scripts run end to end: the finite-difference convergence table
shows the central-difference and Richardson rates, the oscillator
walkthrough completes, and the command-line sweep covers every
subcommand."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_fd_convergence_rates():
    """Halving the step divides the error by 4 (central differences) and
    by 16 (Richardson) over the first four halvings."""
    done = _run("fd_convergence.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()
            if line.split() and line.split()[0][0].isdigit()]
    rates = [(float(r[2]), float(r[4])) for r in rows[1:5]]
    assert len(rates) == 4
    for plain, rich in rates:
        assert plain == pytest.approx(4, abs=0.1)
        assert rich == pytest.approx(16, abs=1)


def test_oscillator_demo_runs():
    done = _run("oscillator_demo.py")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (ROOT / "problems").glob("*.vp")))
def test_cli_sweep_covers_every_subcommand(name):
    """One line per argv, argv, exit code and two SHA-256 digests, with
    every subcommand present and no exception escaping cli.main, on each
    problem file."""
    from jetvar.cli import COMMANDS
    done = _run("cli_sweep.py", str(ROOT / "problems" / name))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert done.stderr == f"{len(lines)} argv\n"
    for line in lines:
        argv, code, out, err = line.split("\t")
        assert argv.split()[1] == f"problems/{name}"
        assert code in ("0", "1", "2", "3"), line
        assert len(out) == len(err) == 64
        assert "Traceback" not in line
    assert {line.split()[0] for line in lines} == {c for c, *_ in COMMANDS}
