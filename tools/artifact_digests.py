"""Byte-identity check: one sha256 per CLI call over the benchmark workloads.

    python3 tools/artifact_digests.py --seed 1 > digests.txt

Generates every op and integrity case of the ``correlate``, ``structure``
and ``campaign`` workloads with ``perfbench.workloads.generate`` and runs
each through ``nilseqlab.cli.main``: ``correlate`` and ``structure`` ops
with ``--no-cache``, every ``campaign`` op and case as a cached miss and
then a hit.  Prints one line per call: its name, its exit code (or the
exception that escaped the CLI) and the sha256 of its artifacts, each file
named and hashed in name order, with ``wall_time_s`` dropped from the
manifest; ``-`` when the call wrote no output directory.  Run it at two
commits and compare the outputs: a change that keeps its outputs prints
the same lines.
"""

from __future__ import annotations

import os

# decompose's artifacts depend on the BLAS thread count; pin it as the
# benchmark does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from nilseqlab.cli import main  # noqa: E402


def artifacts_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["wall_time_s"]
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def run(name: str, argv: list, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([*argv, "--out", str(out)])
        except Exception as exc:  # a traceback at the CLI
            code = f"raised-{type(exc).__name__}"
    print(f"{name}\t{code}\t{artifacts_digest(out) if out.is_dir() else '-'}",
          flush=True)


def main_digests(seed: int) -> None:
    for workload in workloads.WORKLOADS:
        # relative input paths keep every config, and so every manifest,
        # the same in whichever directory the check runs
        os.environ["NILSEQLAB_CACHE_DIR"] = str(Path.cwd() / f"cache-{workload}")
        ops, cases = workloads.generate(workload, seed, Path(f"inputs-{workload}"))
        for item in ops + cases:
            argv = [item.command, "--config", item.config_path]
            name = f"{workload}/{item.name}"
            if workload != "campaign":
                run(name, [*argv, "--no-cache"], Path(f"out/{name}"))
                continue
            for outcome in ("miss", "hit"):
                run(f"{name}/{outcome}", argv, Path(f"out/{name}/{outcome}"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, as perfbench/run.py --seed")
    seed = parser.parse_args().seed
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as work:
        os.chdir(work)
        main_digests(seed)
