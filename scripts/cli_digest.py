"""sha256 of every file that a fixed-seed run of the CLI writes.

Runs ``simulate``, ``reconstruct``, ``svd`` and ``condition-table`` at
small mesh sizes in a temporary directory, then prints one
``<sha256>  <path>`` line per written file, in path order. The commands'
own messages go to stderr. Every input is fixed, so a change that keeps
every written file bit-identical leaves the output unchanged: run the
script at two commits and diff the outputs.

    PYTHONPATH=src python scripts/cli_digest.py > digests.txt
"""

import contextlib
import hashlib
import os
import sys
import tempfile

from aet2d.cli import main

CONFIG = """\
[common]
mesh_vertices = 400
fine_vertices = 3000

[svd]
mesh_vertices = 150
svd_vectors = 1,5

[condition-table]
mesh_vertices = 150
"""

COMMANDS = (
    ["simulate", "--alpha", "3pi/2", "--noise", "0.05", "--seed", "7", "--out", "trig"],
    ["reconstruct", "--data", "trig", "--max-iter", "300", "--out", "trig/recon"],
    ["simulate", "--family", "special", "--noise", "0", "--out", "special"],
    ["reconstruct", "--data", "special", "--adjoint", "l2", "--max-iter", "30",
     "--out", "special/recon"],
    ["svd", "--alpha", "pi", "--measurements", "2", "--out", "svd"],
    ["condition-table", "--out", "table"],
)


def digests(root):
    """(relative path, sha256) of every file under root, in path order."""
    out = []
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fp:
                out.append((os.path.relpath(path, root), hashlib.sha256(fp.read()).hexdigest()))
    return sorted(out)


def run() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            with open("cli.ini", "w") as fp:
                fp.write(CONFIG)
            for argv in COMMANDS:
                with contextlib.redirect_stdout(sys.stderr):
                    code = main([argv[0], "--config", "cli.ini", *argv[1:]])
                if code != 0:
                    print(f"{' '.join(argv)} exited with {code}", file=sys.stderr)
                    return code
            for path, digest in digests(root):
                print(f"{digest}  {path}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(run())
