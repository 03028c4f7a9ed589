"""Digest every golden CLI table, and compare against `SHA256SUMS`.

    python tests/golden/regen.py --write    # store one "sha256 argv" line per table
    python tests/golden/regen.py --check    # print every moved table, exit 1 if any

Each configuration runs `zenopath.cli.main` in this process, writing into a
temporary directory that is removed afterwards, so the checkout is left
untouched.  BLAS is held to one thread before numpy loads: JSON values may
move by about 1e-15 relative with the thread count.  Digests also depend on
the host's libm and BLAS, so `SHA256SUMS` is a same-host refactoring check
("this change moved no byte"), not a portable golden file.  pytest does not
collect this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SUMS = HERE / "SHA256SUMS"
sys.path.insert(0, str(HERE.parent.parent / "src"))

from zenopath.cli import main  # noqa: E402

_BETAS = ("0", "0.7", "-1.3", "-0.4", "neumann")
_LINE_BETAS = ("0", "0.7", "-0.7", "neumann", "0.9")
_LINE_VARIANTS = ((), ("--t", "3"), ("--n-grid", "4096"),
                  ("--n-grid", "2048", "--ladder", "100,200"))


def configurations() -> list[tuple[str, ...]]:
    """The 87 golden invocations, as argv tuples without --out."""
    configs = [(cmd,) for cmd in ("twostate", "zeno-converge", "pdx-verify",
                                  "histories", "arrival")]
    configs.append(("pdx-verify", "--system", "line"))
    configs += [  # the README examples, --out left to this script
        ("twostate", "--t", "1.5707963267948966"),
        ("zeno-converge", "--n-list", "1,10,100,1000", "--format", "json"),
        ("pdx-verify", "--system", "line", "--ladder", "100,200,400"),
        ("histories", "--parity", "odd", "--beta", "0", "--x0", "5"),
        ("arrival", "--p0", "2", "--x0", "-10", "--sigma-p", "0.2",
         "--smear-tau", "0.1"),
    ]
    for beta in _BETAS:
        for parity in ("none", "odd", "even"):
            for n_grid in ("2048", "4096"):
                configs.append(("histories", "--beta", beta, "--parity", parity,
                                "--n-grid", n_grid, "--n-t", "24"))
        configs.append(("histories", "--beta", beta, "--n-t", "24",
                        "--format", "json"))
    for beta in _LINE_BETAS:
        for variant in _LINE_VARIANTS:
            for fmt in ("csv", "json"):
                configs.append(("pdx-verify", "--system", "line", "--beta", beta,
                                *variant, "--format", fmt))
    configs.append(("histories", "--beta", "-0.4", "--n-t", "7",
                    "--format", "json"))
    return configs


def digest(argv: tuple[str, ...], workdir: str) -> str:
    """SHA-256 of the table `zenopath <argv>` writes; a failed run is its
    exit code, so a configuration that starts or stops failing also moves."""
    out = os.path.join(workdir, "table")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", out])
    if code != 0:
        return f"exit-{code}"
    with open(out, "rb") as fh:
        data = fh.read()
    os.remove(out)
    return hashlib.sha256(data).hexdigest()


def compute() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as workdir:
        return {" ".join(argv): digest(argv, workdir)
                for argv in configurations()}


def read_sums() -> dict[str, str]:
    sums = {}
    for line in SUMS.read_text(encoding="utf-8").splitlines():
        if line.strip():
            sha, argv = line.split(" ", 1)
            sums[argv] = sha
    return sums


def main_regen(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"store the digests in {SUMS.name}")
    mode.add_argument("--check", action="store_true",
                      help=f"compare the digests against {SUMS.name}")
    args = parser.parse_args(argv)
    now = compute()
    if args.write:
        SUMS.write_text("".join(f"{sha} {argv}\n" for argv, sha in now.items()),
                        encoding="utf-8")
        print(f"wrote {len(now)} digests to {SUMS}")
        return 0
    stored = read_sums()
    moved = [argv for argv in now if stored.get(argv) != now[argv]]
    moved += [argv for argv in stored if argv not in now]
    for argv in moved:
        print(f"moved: zenopath {argv}")
    print(f"{len(now) - len(set(moved) & set(now))} of {len(now)} tables "
          f"unchanged, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main_regen())
