"""Rewrite the fixtures in this directory from the code as it stands, with no
arguments: ``python tests/golden/rewrite.py``.  Writes the --out file or stdout
of each exit-0 row of COMMANDS and each demo's stdout (``demo_<name>.txt``),
and writes nothing if a row exits with another code than it pins or a demo fails.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
DEMOS = GOLDEN.parents[1] / "demos"


def rows():
    """(exit code, fixture name or None, argv) of each row of COMMANDS."""
    lines = (GOLDEN / "COMMANDS").read_text().splitlines()
    split = [line.split(maxsplit=2) for line in lines if not line.startswith("#")]
    return [(int(code), None if f == "-" else f, argv.split()) for code, f, argv in split]


def run(argv):
    """Exit code of ``argv`` run by ``qnetcap.cli.main`` in an empty directory (a
    SystemExit gives its code), and the bytes of its --out file (None if it
    wrote none) or else of stdout."""
    from qnetcap.cli import main
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(here)
        if "--out" not in argv:
            return code, out.getvalue().encode()
        path = Path(tmp, argv[argv.index("--out") + 1])
        return code, path.read_bytes() if path.exists() else None


def run_demo(name, cwd):
    """The finished process of ``demos/<name>`` run in ``cwd``, output as bytes."""
    env = dict(os.environ, PYTHONPATH=str(DEMOS.parent / "src"))
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def rewrite():
    written = {}
    for code, fixture, argv in rows():
        got, data = run(argv)
        if got != code:
            sys.exit(f"refused: qnetcap {' '.join(argv)} exits {got}, its row pins {code}")
        if code == 0 and fixture is not None:
            written[fixture] = data
    for demo in sorted(p.name for p in DEMOS.glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp:
            done = run_demo(demo, tmp)
        if done.returncode != 0:
            sys.exit(f"{done.stderr.decode()}refused: demos/{demo} exits {done.returncode}")
        written[f"demo_{demo[:-3]}.txt"] = done.stdout
    for fixture, data in written.items():
        (GOLDEN / fixture).write_bytes(data)


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    rewrite()
