"""Parent-identity gate: ``python -m repro diffcheck --against REF``.

Goldens, the fast-forward ``diffcheck`` and the bench seed-0 checksums
run at scales small enough that a change in the order of events sharing
one instant can pass all of them and still move default-scale results.
This gate runs a fixed set of experiments in two source trees -- the
one this process imports and REF's ``src/``, extracted with ``git
archive`` -- and requires equal canonical checksums of their raw data.

Each experiment runs as ``python -m repro run NAME --no-cache --workers
1 --out ...`` in a subprocess per tree, the two trees side by side.

The fig10 case is the only one that runs the browser trace replay and
the model zoo.  Its checksum covers the captured dataset, every
model's test accuracy and the cross-validation scores, so it guards
the captures and coarse ML outcomes: a changed leaf size or tie rule
in the split search moves it, but a small change to a boosting
parameter can leave every accuracy as it was.  The tree goldens
(``tests/test_golden_identity.py``) guard each tree's structure.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import TRACE_ENV

#: ``(experiment, parameter overrides)``: default scale, except fig13
#: at 2 mixes x 2,000 requests over three N_RH values, and fig10 at 8
#: sites x 3 captures of 0.25 ms each with 3-fold cross-validation.
AGAINST_CASES: tuple[tuple[str, dict], ...] = (
    ("fig11", {}),
    ("fig12", {}),
    ("sec114", {}),
    ("fig3", {}),
    ("fig6", {}),
    ("fig13", {"n_mixes": 2, "n_requests": 2000,
               "nrh_values": [1024, 256, 64]}),
    ("fig10", {"n_sites": 8, "traces_per_site": 3,
               "duration_ps": 250_000_000, "n_splits": 3}),
)

#: The source tree this process imports (the directory holding
#: ``repro/``).
SRC_DIR = Path(__file__).resolve().parents[2]


class AgainstError(RuntimeError):
    """REF's source tree could not be extracted."""


@dataclass
class AgainstRow:
    """One experiment's checksums in both trees (``None``: the run
    failed, and ``error`` says how)."""

    name: str
    ref: str | None
    tree: str | None
    seconds: float
    error: str = ""

    @property
    def identical(self) -> bool:
        return self.ref is not None and self.ref == self.tree


@dataclass
class AgainstReport:
    ref: str
    rows: list[AgainstRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.identical for row in self.rows)

    def to_text(self) -> str:
        lines = [f"{'experiment':12s} {'ref':12s} {'tree':12s} "
                 f"{'identical':9s} {'seconds':>7s}", "-" * 56]
        for row in self.rows:
            lines.append(
                f"{row.name:12s} {(row.ref or 'FAILED')[:12]:12s} "
                f"{(row.tree or 'FAILED')[:12]:12s} "
                f"{'yes' if row.identical else 'NO':9s} "
                f"{row.seconds:7.1f}")
            if row.error:
                lines.append(f"    {row.error}")
        bad = sum(not row.identical for row in self.rows)
        lines.append("-" * 56)
        lines.append(f"{len(self.rows)} experiment(s) against {self.ref}: "
                     f"{len(self.rows) - bad} identical, {bad} differ")
        return "\n".join(lines)


def archive_src(ref: str, dest: Path, src_dir: Path = SRC_DIR) -> Path:
    """Extract REF's copy of ``src_dir`` under ``dest`` with ``git
    archive``; returns the extracted source directory."""
    if ref.startswith("-"):
        raise AgainstError(f"not a git revision: {ref!r}")
    top = subprocess.run(
        ["git", "-C", str(src_dir), "rev-parse", "--show-toplevel"],
        capture_output=True, text=True)
    if top.returncode != 0:
        raise AgainstError(f"{src_dir} is not in a git checkout: "
                           f"{top.stderr.strip()}")
    root = Path(top.stdout.strip()).resolve()
    rel = src_dir.resolve().relative_to(root).as_posix()
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", ref, "--", rel],
        capture_output=True)
    if archive.returncode != 0:
        raise AgainstError(f"git archive {ref} failed: "
                           f"{archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / rel


def _start(src: Path, name: str, params: dict,
           stem: Path) -> subprocess.Popen:
    """``repro run`` of one case in the tree ``src``: the result goes to
    ``stem.json``, stderr to ``stem.log``."""
    cmd = [sys.executable, "-m", "repro", "run", name, "--no-cache",
           "--workers", "1", "--out", f"{stem}.json"]
    for key, value in params.items():
        cmd += ["-p", f"{key}={json.dumps(value)}"]
    env = dict(os.environ, PYTHONPATH=str(src))
    # A child that traced would reopen, and truncate, this process's
    # trace file.
    env.pop(TRACE_ENV, None)
    with open(f"{stem}.log", "w") as err:
        return subprocess.Popen(
            cmd, cwd=stem.parent, stdout=subprocess.DEVNULL, stderr=err,
            env=env)


def _checksum(proc: subprocess.Popen, stem: Path) -> tuple[str | None, str]:
    """The run's canonical checksum, or ``None`` and why it failed."""
    from repro.exp.cache import canonical_checksum

    code = proc.wait()
    out = Path(f"{stem}.json")
    if code != 0 or not out.exists():
        lines = Path(f"{stem}.log").read_text(errors="replace").split("\n")
        tail = [line for line in lines if line.strip()] or ["no output"]
        return None, f"exit {code}: {tail[-1]}"
    with open(out) as handle:
        return canonical_checksum(json.load(handle)["data"]), ""


def compare_trees(ref_src: Path, tree_src: Path,
                  cases=AGAINST_CASES, *, workdir: Path,
                  log=lambda msg: None) -> list[AgainstRow]:
    """Run every case in both trees at once and compare checksums."""
    rows = []
    for name, params in cases:
        log(f"{name} ...")
        started = time.perf_counter()
        stems = [workdir / f"{name}-ref", workdir / f"{name}-tree"]
        procs = [_start(src, name, params, stem)
                 for src, stem in zip((ref_src, tree_src), stems)]
        (ref, ref_error), (tree, tree_error) = [
            _checksum(proc, stem) for proc, stem in zip(procs, stems)]
        errors = [f"{side}: {error}" for side, error in
                  (("ref", ref_error), ("tree", tree_error)) if error]
        rows.append(AgainstRow(name, ref, tree,
                               time.perf_counter() - started,
                               "; ".join(errors)))
    return rows


def run_against(ref: str, cases=AGAINST_CASES,
                log=lambda msg: None) -> AgainstReport:
    """Extract REF and compare it with this source tree."""
    with tempfile.TemporaryDirectory(prefix="repro-against-") as tmp:
        workdir = Path(tmp)
        ref_src = archive_src(ref, workdir / "ref")
        return AgainstReport(ref, compare_trees(
            ref_src, SRC_DIR, cases, workdir=workdir, log=log))
