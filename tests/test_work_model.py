"""The work model: every config that loads runs in a time its cells bound.

``config_from_dict`` charges each stage of a config some cells of work and
refuses a stage over ``DEFAULT_QUAD_BUDGET`` (exit 3).  This fuzzer draws
configs of every experiment kind and every signal kind, with sizes up to
2^40, and sends each to one child process, one config at a time.  A config
must be refused at load (exit 2 or 3) within ``LOAD_SECONDS``; one charged at
most ``RUN_CELLS`` cells must then also run through the CLI with the cache
off (any exit code the CLI documents) within ``SECONDS_PER_CELL`` per
charged cell plus ``SECONDS_FLAT``.  A stage the model leaves uncharged is
charged little, runs, and overruns that time.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from nilseqlab.experiments import ENTRY_CELLS, KINDS, MAX_DIMENSION, MAX_MAPS
from nilseqlab.systems import CLASS_MAX_ELL, MAX_ITERATE_DEGREE, ToralMap, map_power
from nilseqlab.uniformity import MAX_ORDER

RUN_CELLS = 2**20
# about 300 times the 34 ns a cell the charges assume: a CSV row and an exact
# phase of a far window in Python integers cost up to about 100 cells a point
# where the window charges one (decompose on 247,570 points: 3.4 us a charged
# cell), while a stage left out of the model costs without bound
SECONDS_PER_CELL = 10e-6
SECONDS_FLAT = 1.0
LOAD_SECONDS = 1.0
CSV_ROWS = 4096  # a csv target covers its window up to this many points
# the child's address space: a stage that escapes the model fails here with
# a MemoryError rather than taking the machine's memory
CHILD_BYTES = 3 << 30
# ROADMAP item 5(a), pinned by the bench: an order outside 1..MAX_ORDER
# reaches GowersParams unchecked and ends in this traceback
PINNED_ORDER_DEFECT = f"ValueError: order must be in 1..{MAX_ORDER}"

_CHILD = r"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]),) * 2)
from nilseqlab import cli
from nilseqlab.errors import BudgetError, ConfigError
from nilseqlab.experiments import load_config

channel, sys.stdout = sys.stdout, sys.stderr  # the CLI prints to stderr

def reply(*fields):
    print(json.dumps(fields), file=channel, flush=True)

reply("ready")

for line in sys.stdin:
    command, path, out = json.loads(line)
    try:
        cells = load_config(path).cells
    except ConfigError:
        reply("exit", cli.EXIT_CONFIG)
        continue
    except BudgetError:
        reply("exit", cli.EXIT_BUDGET)
        continue
    except Exception as exc:
        reply("raised", f"{type(exc).__name__}: {exc}")
        continue
    reply("loaded", cells)
    if cells <= int(sys.argv[1]):
        try:
            code = cli.main([command, "--config", path, "--out", out, "--no-cache"])
        except Exception as exc:
            reply("raised", f"{type(exc).__name__}: {exc}")
        else:
            reply("exit", code)
"""


class Child:
    """One process that loads, and runs when admitted, one config at a
    time; replies arrive through a reader thread, so waits can time out."""

    def __init__(self, cache: Path) -> None:
        env = dict(os.environ, NILSEQLAB_CACHE_DIR=str(cache),
                   PYTHONPATH=os.pathsep.join(sys.path))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(RUN_CELLS), str(CHILD_BYTES)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env)
        self.replies: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._read, daemon=True).start()
        assert self.reply(60) == ["ready"]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.replies.put(json.loads(line))
        self.replies.put(["died", self.proc.wait()])

    def send(self, *fields) -> None:
        self.proc.stdin.write(json.dumps(fields) + "\n")
        self.proc.stdin.flush()

    def reply(self, seconds: float):
        try:
            return self.replies.get(timeout=seconds)
        except queue.Empty:
            return None

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10)


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    root = tmp_path_factory.mktemp("work-model")
    holder = {"child": Child(root / "cache"), "root": root}
    yield holder
    holder["child"].close()


def sizes(top: int = 40, low: int = 0):
    """Integers spread evenly over their bit lengths 0..top."""
    return st.integers(0, top).flatmap(
        lambda bits: st.integers(max(low, (1 << bits) >> 1), max(low, 1 << bits)))


def toward(cells_per_unit: int, power: int = 1, low: int = 1):
    """Counts n whose work ``n^power * cells_per_unit`` lands at 2^12..2^30
    cells: on both sides of ``RUN_CELLS`` and of the budget, so that a stage
    left out of the model runs far over its time."""
    return st.integers(12, 30).map(lambda bits: max(low, round(
        ((1 << bits) / cells_per_unit) ** (1 / power))))


def count(cells_per_unit: int, power: int = 1, low: int = 1):
    """A count of any size up to 2^40, or one aimed by :func:`toward`."""
    return st.one_of(sizes(low=low), toward(cells_per_unit, power, low))


def maybe(strategy):
    """A strategy's value or the field left out (``None``)."""
    return st.one_of(st.none(), strategy)


REAL = st.floats(-4, 4)
SIGNAL_KINDS = ("constant", "alternating", "noise", "spike", "corpus", "csv",
                "linear_phase", "quadratic_phase", "bracket_phase",
                "polynomial_phase")


@st.composite
def windows(draw, far: bool = False, long: bool = False):
    """A window; a far one starts at 2^29 to 2^40, where random-density's
    draws up to the window's end take over a second, and a long one spans
    2^14 to 2^20 points, where vdc-check's shifts outgrow the window."""
    start = draw(st.one_of(st.just(0), sizes(), sizes().map(lambda n: -n))
                 if not far else st.integers(1 << 29, 1 << 40))
    length = (st.integers(1 << 14, 1 << 20) if long
              else st.one_of(sizes(12, low=1), sizes(low=1)))
    return start, start + draw(length)


@st.composite
def signal_specs(draw, start: int, end: int, csv_dir: Path):
    spec = {"kind": draw(st.sampled_from(SIGNAL_KINDS))}
    kind, length = spec["kind"], end - start
    if kind == "constant":
        spec.update(re=draw(REAL), im=draw(REAL))
    elif kind == "spike":
        spec["positions"] = draw(st.lists(
            st.integers(start, start + min(length, 64) - 1), min_size=1, max_size=4))
    elif kind == "corpus":
        family = draw(st.sampled_from(sorted(CLASS_MAX_ELL)))
        index = draw(count(length + ENTRY_CELLS, low=0))
        spec.update(family=family, ell=draw(st.integers(1, CLASS_MAX_ELL[family])),
                    index=index, count=index + 1,
                    variant=draw(st.sampled_from(("mixed", "rotations"))))
        if draw(st.booleans()):
            spec["freq_grid"] = draw(sizes(low=1))
    elif kind == "csv":
        path = csv_dir / f"{start}_{end}.csv"
        ns = range(start, min(end, start + CSV_ROWS))
        path.write_text("n,re,im\n" + "".join(f"{n},0.5,0.0\n" for n in ns))
        spec["path"] = str(path)
    elif kind == "linear_phase":
        spec.update(alpha=draw(REAL), theta=draw(REAL))
    elif kind == "quadratic_phase":
        spec["gamma"] = draw(REAL)
    elif kind == "bracket_phase":
        spec.update(quad=draw(REAL), cross=draw(REAL), alpha=draw(REAL),
                    linear=draw(REAL))
    elif kind == "polynomial_phase":
        spec["coefficients"] = draw(st.lists(REAL, min_size=1, max_size=4))
    return spec


def gowers_fields(draw, length: int) -> dict:
    """order, H and L as the seminorm kinds take them."""
    order = draw(st.one_of(st.integers(1, MAX_ORDER), st.integers(0, MAX_ORDER + 1)))
    fields = {"order": order,
              "H": draw(maybe(count(length, max(order - 1, 1)))),
              "L": draw(maybe(sizes(low=1)))}
    return {key: value for key, value in fields.items() if value is not None}


def unipotent_system(draw, rng, shape: str) -> dict:
    """Commuting unipotent maps: powers T^a of one lower-triangular map; a
    large system has at least 6 maps of dimension at least 6, a system for
    many terms at most 2 of dimension at most 2."""
    low, high = {"large": (6, 9), "many terms": (1, 2), "grid": (1, 2)}.get(shape, (1, 9))
    d = draw(st.integers(low, min(high, MAX_DIMENSION + 1)))
    matrix = tuple(tuple(1 if i == j else rng.randint(-2, 2) if j < i else 0
                         for j in range(d)) for i in range(d))
    base = ToralMap(matrix, tuple(rng.randint(0, 7) / 8 for _ in range(d)))
    maps = []
    for _ in range(draw(st.integers(low, min(high, MAX_MAPS + 1)))):
        power = map_power(base, rng.randint(1, 3))
        maps.append({"matrix": [list(map(int, row[:d])) for row in power[:d]],
                     "alpha": [float(Fraction(row[d]) % 1) for row in power[:d]]})
    return {"dimension": d, "transformations": maps}


@st.composite
def kind_params(draw, kind: str, start: int, end: int, csv_dir: Path) -> dict:
    signal, length = signal_specs(start, end, csv_dir), end - start
    params = {name: draw(signal) for name in KINDS[kind].signals}
    if kind in ("gowers", "anti-uniformity"):
        params.update(gowers_fields(draw, length))
    elif kind == "decompose":
        params.update(gowers_fields(draw, length), epsilon=draw(st.floats(0.01, 2)))
        step = draw(st.integers(1, 2))
        params["dictionary"] = {
            "step": step, "Q": draw(count(length, step)),
            "include_brackets": draw(st.booleans()),
            "budget": draw(st.one_of(sizes(24, low=1), st.just(1 << 24)))}
    elif kind == "vdc-check":
        params["H"] = draw(st.one_of(count(length), st.integers(1, length)))
    elif kind == "interpolate-check":
        # a case costs about 1,400 cells beside its points: with the fewest
        # points (ell 2 in dimension 1) its work is nearly all its row
        if draw(st.booleans()):
            params.update(cases=draw(toward(2)), ell=2, dimension=1)
        else:
            params["cases"] = draw(count(1024))
            for name, values in (("ell", st.integers(2, 8)),
                                 ("dimension", count(params["cases"]))):
                value = draw(maybe(values))
                if value is not None:
                    params[name] = value
    elif kind == "class-distance":
        family = draw(st.sampled_from(sorted(CLASS_MAX_ELL)))
        params.update(family=family, ell=draw(st.integers(1, CLASS_MAX_ELL[family])),
                      budget=draw(count(length + ENTRY_CELLS)),
                      Q=draw(sizes(16, low=1)))
    elif kind == "subsequence-average":
        subsequence = {"kind": draw(st.sampled_from(
            ("identity", "arithmetic", "sqrt-perturbed", "random-density")))}
        if subsequence["kind"] == "arithmetic":
            subsequence.update(q=draw(sizes(8, low=1)), r=draw(sizes(8)))
        if subsequence["kind"] == "random-density":
            subsequence["density"] = draw(st.one_of(
                st.floats(0, 1, exclude_min=True),
                st.integers(0, 1074).map(lambda k: 2.0**-k)))
        params.update(subsequence=subsequence, checkpoints=draw(st.lists(
            st.one_of(st.integers(1, length), sizes(low=1)), min_size=1, max_size=4)))
    elif kind == "correlate":
        rng = draw(st.randoms(use_true_random=False))
        # a large system with many slots of one term shows a slot-map sample
        # build left out of the model (a slot's samples take at most 80 ms
        # within the caps); many terms, the term combinations; a grid at the
        # engine's own bound, the numeric engine's terms
        shape = draw(st.sampled_from(("large", "many terms", "grid", "any")))
        system = unipotent_system(draw, rng, shape)
        d, maps = system["dimension"], len(system["transformations"])
        if shape == "large":
            slots, terms = draw(st.integers(3, 64)), 1
        elif shape == "grid":
            slots, terms = 1, draw(st.integers(8, 64))
        elif shape == "many terms":
            slots = draw(st.integers(2, 4))
            terms = draw(st.integers(20, 30).map(
                lambda bits: round((2**bits / 2048) ** (1 / slots))))
        else:
            slots = draw(st.one_of(st.just(1), st.integers(1, 4)))
            terms = draw(st.one_of(sizes(3, low=1), toward(length + 2048, slots)))
        degrees = draw(st.integers(3 if shape == "large" else 0, MAX_ITERATE_DEGREE))
        low = degrees + 1 if shape == "large" else 1
        params["system"] = system
        params["observables"] = [
            [{"k": [rng.randint(-3, 3) for _ in range(d)], "re": rng.uniform(-1, 1)}
             for _ in range(min(terms, 512))] for _ in range(slots)]
        params["iterates"] = [
            [[rng.randint(-2, 2) for _ in range(rng.randint(low, degrees + 1))]
             for _ in range(slots)] for _ in range(maps)]
        if shape == "grid":
            params.update(engine="numeric", grid=draw(st.integers(22, 24).map(
                lambda bits: max(2, round((2**bits / length) ** (1 / d))))))
        elif draw(st.booleans()):
            grid = toward(length, d, low=2)
            params.update(engine="numeric", grid=draw(st.one_of(sizes(24, low=2), grid)))
    return params


def _pinned(raw: dict, error: str) -> bool:
    """The one traceback ROADMAP item 5 pins: an order outside 1..MAX_ORDER
    (a).  A csv shorter than its window is refused with exit 2 (b)."""
    if error != PINNED_ORDER_DEFECT:
        return False
    return not 1 <= raw["params"]["order"] <= MAX_ORDER


class Overran(AssertionError):
    """A config outlived its time."""


def _settle(child: dict, raw: dict, tries: int = 2) -> None:
    """Send one config to the child and check how it leaves; one that
    overruns gets a second try, since other load on the machine may slow
    the first."""
    root, worker = child["root"], child["child"]
    path, out = root / "config.json", root / "out"
    path.write_text(json.dumps(raw))
    worker.send(KINDS[raw["kind"]].command or raw["kind"], str(path), str(out))
    try:
        reply = worker.reply(LOAD_SECONDS)
        if reply is None:
            raise Overran(f"load took over {LOAD_SECONDS} s")
        if reply[0] == "loaded" and reply[1] <= RUN_CELLS:
            limit = SECONDS_FLAT + SECONDS_PER_CELL * reply[1]
            cells, reply = reply[1], worker.reply(limit)
            if reply is None:
                raise Overran(f"charged {cells} cells, ran over {limit:.2f} s")
        assert reply[0] != "died", f"the child died with {reply[1]}"
        assert reply[0] != "raised" or _pinned(raw, reply[1]), reply[1]
        assert reply[0] != "exit" or reply[1] in (0, 2, 3)
    except AssertionError as exc:
        worker.close()  # it may still be running
        child["child"] = Child(root / "cache")
        if not isinstance(exc, Overran) or tries == 1:
            raise
        _settle(child, raw, tries - 1)
    finally:
        shutil.rmtree(out, ignore_errors=True)


# the kinds with the most stages and fields get the most examples
EXAMPLES = {"correlate": 300, "decompose": 200, "interpolate-check": 200,
            "subsequence-average": 150}


@pytest.mark.parametrize("kind", KINDS)
def test_admitted_configs_run_within_their_charge(child, kind):
    csv_dir = child["root"] / "csv"
    csv_dir.mkdir(exist_ok=True)

    @settings(max_examples=EXAMPLES.get(kind, 100), derandomize=True,
              database=None, deadline=None, phases=[Phase.generate],
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(data=st.data())
    def fuzz(data):
        far = kind == "subsequence-average" and data.draw(st.booleans())
        long = kind == "vdc-check" and data.draw(st.booleans())
        start, end = data.draw(windows(far, long), label="window")
        params = data.draw(kind_params(kind, start, end, csv_dir), label="params")
        _settle(child, {"kind": kind, "window": {"start": start, "end": end},
                        "params": params, "seed": data.draw(st.integers(0, 3))})
    fuzz()
