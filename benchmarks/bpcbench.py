"""Answers, checks, tracing and statistics of the bpc benchmark.

An *answer* is one ``bpc`` subcommand reproduced in-process: the same
public library calls, in the order ``bpc.cli`` makes them, ending in the
bytes the command would print.  Each answer is timed on its own; its
checks (oracle rank, structural checks, sha256 of the output bytes) run
after the timer stops.

Layers are timed from outside: every library call of a pipeline goes
through a tracer.  ``NullTracer`` just calls the function, so an
untraced pass costs one extra Python call per layer call; ``Tracer``
records a span (layer, start, end, answer, sizes in and out) per call.
Layer spans are leaves and their parent is the answer span, so a
layer's self time is its span time and the answer's self time is the
glue between layer calls.
"""

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("fill", "model", "equiv")
SLOPES = (1, 2, 3, 4, "inf")

# Measured layers.  algebra is reached only through the others (counting
# mul_basis calls needs tracing inside the program), diagram does constant
# trivial work, and cli is argparse glue that the pipelines reproduce.
LAYERS = (
    "torus_link",
    "solid_torus",
    "pairing.box_right",
    "pairing.box_left",
    "pairing.homology_rank",
    "structures.reduce",
    "structures.isomorphic",
    "structures.checks",
    "serialize",
)
SERIES_LAYERS = ("structures.reduce", "pairing.homology_rank", "pairing.box_right", "torus_link")
SERIES_N = (8, 12, 16, 20, 24)
SETUP_REPEATS = 5

# The machine the benchmark was built on is shared, and its speed drifted
# by up to twofold within minutes, far beyond any useful bound.  So a run
# also times a fixed pure-Python probe that does not use bpc before every
# answer and set-up, and reports times scaled to the speed at which the
# probe takes REFERENCE_PROBE_S: an answer's time in a pass is multiplied
# by REFERENCE_PROBE_S / (median probe time of that pass).  Over 100 s
# there, answer times varied with a coefficient of variation of 23-26%
# and their ratios to the probe time with 5-6%.  Measured times are
# printed beside the scaled ones.
REFERENCE_PROBE_S = 0.001
_PROBE_EDGES = tuple((f"g{i % 499}", f"g{i * 7 % 499}", i % 5) for i in range(1000))


def load_bpc():
    """Import the bpc package from ``src`` afresh and return its modules.

    Dropping the cached modules first makes each call pay the import,
    including any work done at module level.
    """
    if not (SRC / "bpc" / "__init__.py").is_file():
        raise ImportError(f"bpc sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bpc" or m.startswith("bpc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{
        name: importlib.import_module(f"bpc.{name}")
        for name in ("torus_link", "solid_torus", "pairing", "structures", "serialize")
    })


def probe():
    """Seconds for the calibration probe: two-step paths over a fixed
    labeled graph with parities toggled in a dict, the pattern of bpc's
    own kernels, without bpc.  The best of two rounds back to back, so
    that caches left cold by an answer do not count."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        out = {}
        for src, tgt, label in _PROBE_EDGES:
            out.setdefault(src, []).append((label, tgt))
        parity = {}
        for src, tgt, label in _PROBE_EDGES:
            for label2, end in out.get(tgt, ()):
                key = (src, end, label * label2 % 5)
                parity[key] = not parity.get(key, False)
        sorted(k for k, odd in parity.items() if odd)
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# tracing


def _sizes(obj):
    """(generators, arrows, bytes) of a layer argument or result."""
    if isinstance(obj, str):
        return 0, 0, len(obj.encode())
    if isinstance(obj, (tuple, list)):
        totals = [0, 0, 0]
        for item in obj:
            for k, v in enumerate(_sizes(item)):
                totals[k] += v
        return tuple(totals)
    if hasattr(obj, "generators"):
        arrows = getattr(obj, "arrows", None)
        if arrows is None:
            arrows = getattr(obj, "operations", ())
        return len(obj.generators), len(arrows), 0
    if hasattr(obj, "source") and hasattr(obj, "arrows"):  # a DD morphism
        return 0, len(obj.arrows), 0
    return 0, 0, 0


class NullTracer:
    """Calls each layer function directly; used for end-to-end timing."""

    def __call__(self, layer, fn, *args):
        return fn(*args)

    def begin(self, answer_id, n):
        pass

    def end(self):
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the answer span, None for answers
    n: int
    sizes_in: tuple = (0, 0, 0)
    sizes_out: tuple = (0, 0, 0)
    found: bool | None = None


class Tracer(NullTracer):
    """Keeps one span per answer and per layer call, in memory."""

    def __init__(self):
        self.spans = []
        self._answer = None

    def begin(self, answer_id, n):
        self._answer = len(self.spans)
        self.spans.append(Span(answer_id, time.perf_counter(), 0.0, None, n))

    def end(self):
        self.spans[self._answer].end = time.perf_counter()
        self._answer = None

    def __call__(self, layer, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        n = self.spans[self._answer].n
        span = Span(layer, start, end, self._answer, n, _sizes(args), _sizes(out))
        if layer == "structures.isomorphic":
            span.found = out is not None
        self.spans.append(span)
        return out


# ---------------------------------------------------------------------------
# answers


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What an answer printed, whether the command succeeded, and the
    objects its checks inspect."""

    text: str
    ok: bool = True
    why: str = ""
    objects: dict = field(default_factory=dict)


@dataclass
class Answer:
    id: str
    part: str
    n: int
    run: object  # (lib, tracer) -> Outcome
    check: object  # (lib, outcome, expected entry) -> list of problems
    # For recording the oracle only: the complex before any reduce, and
    # the output the command should print when it fails today.
    complex: object = None  # lib -> ChainComplexF2
    reference: object = None  # lib -> str


def _pair(lib, t, n, right, left=None, reduce=False):
    """``bpc pair``: build, box with the right solid torus, optionally the
    left one, optionally reduce; a complex also prints its rank."""
    P = lib.pairing
    S = t("torus_link", lib.torus_link.build_cfdd_full, n)
    A = t("solid_torus", lib.solid_torus.build_cfa, right)
    D = t("pairing.box_right", P.box_right, A, S, P.PairingConfig("right", P.DEFAULT_PATH_CAP))
    if left is None:
        if reduce:
            D = t("structures.reduce", lib.structures.reduce, D)
        return Outcome(t("serialize", lib.serialize.to_json, D), objects={"D": D})
    A = t("solid_torus", lib.solid_torus.build_cfa, left)
    C = t("pairing.box_left", P.box_left, A, D, P.PairingConfig("left", P.DEFAULT_PATH_CAP))
    if reduce:
        C = t("structures.reduce", lib.structures.reduce, C)
    rank = t("pairing.homology_rank", P.homology_rank, C)
    text = t("serialize", lib.serialize.to_json, C)
    return Outcome(text + f"{rank}\n", objects={"C": C, "rank": rank})


def _gen_then_reduce(lib, t, n):
    """``bpc gen --n N --out g.json`` followed by ``bpc reduce --in g.json``."""
    TL = lib.torus_link
    S = t("torus_link", TL.build_cfdd_full, n)
    t("torus_link", TL.full_build_log, n)
    text = t("serialize", lib.serialize.to_json, S)
    S = t("serialize", lib.serialize.from_json, text)
    R = t("structures.reduce", lib.structures.reduce, S)
    return Outcome(t("serialize", lib.serialize.to_json, R), objects={"R": R})


def _reduce_check_orders(lib, t, text, seed, orders=3):
    """``bpc --seed SEED reduce --in g.json --check-orders ORDERS``."""
    st = lib.structures
    S = t("serialize", lib.serialize.from_json, text)
    R = t("structures.reduce", st.reduce, S)
    rng = random.Random(seed)
    for _ in range(orders):
        other = t("structures.reduce", st.reduce, S, rng)
        if t("structures.isomorphic", st.isomorphic, R, other) is None:
            return Outcome("", ok=False, why="cancellation orders disagree")
    return Outcome(t("serialize", lib.serialize.to_json, R))


def _isomorphic_models(lib, t, n):
    """isomorphic(reduce(full(n)), simplified(n)); prints the reduced
    structure and the verdict."""
    TL, st = lib.torus_link, lib.structures
    R = t("structures.reduce", st.reduce, t("torus_link", TL.build_cfdd_full, n))
    N = t("torus_link", TL.build_cfdd_simplified, n)
    mapping = t("structures.isomorphic", st.isomorphic, R, N)
    verdict = "isomorphic" if mapping is not None else "not isomorphic"
    text = t("serialize", lib.serialize.to_json, R) + verdict + "\n"
    return Outcome(text, objects={"R": R, "N": N, "mapping": mapping})


def _equiv(lib, t, n):
    """``bpc equiv --n N``."""
    F, G, H = t("torus_link", lib.torus_link.build_equivalence, n)
    report = t("structures.checks", lib.structures.verify_homotopy, F, G, H)
    return Outcome("ok\n" if report.ok else report.text() + "\n", report.ok, "homotopy fails")


def _check_file(lib, t, text):
    """``bpc check --in s.json`` on a DD structure."""
    S = t("serialize", lib.serialize.from_json, text)
    report = t("structures.checks", lib.structures.check_dd, S)
    return Outcome("ok\n" if report.ok else report.text() + "\n", report.ok, "check_dd fails")


# -- checks (run outside the timed interval) ---------------------------------


def _check_output(lib, out, exp):
    problems = []
    if not out.ok:
        problems.append(out.why)
    if _digest(out.text) != exp["sha256"]:
        problems.append("output digest differs from the recorded one")
    return problems


def _check_rank(lib, out, exp):
    problems = _check_output(lib, out, exp)
    if out.objects.get("rank") != exp["rank"]:
        problems.append(f"rank {out.objects.get('rank')} != oracle {exp['rank']}")
    return problems


def _check_reduced_dd(n):
    def check(lib, out, exp):
        problems = _check_output(lib, out, exp)
        R = out.objects["R"]
        if not lib.structures.check_dd(R).ok:
            problems.append("reduced DD fails check_dd")
        if len(R.generators) != 4 * n - 2:
            problems.append(f"{len(R.generators)} generators, expected {4 * n - 2}")
        want = len(lib.torus_link.build_cfdd_simplified(n).arrows)
        if len(R.arrows) != want:
            problems.append(f"{len(R.arrows)} arrows, simplified model has {want}")
        return problems

    return check


def _check_reduced_d(lib, out, exp):
    problems = _check_output(lib, out, exp)
    if not lib.structures.check_d(out.objects["D"]).ok:
        problems.append("reduced D fails check_d")
    return problems


def _check_bijection(lib, out, exp):
    """The mapping is a bijection carrying every labeled arrow of R onto
    one of N, idempotents included."""
    problems = _check_output(lib, out, exp)
    R, N, m = out.objects["R"], out.objects["N"], out.objects["mapping"]
    if m is None:
        return problems
    rg, ng = {g.name: g for g in R.generators}, {g.name: g for g in N.generators}
    if sorted(m) != sorted(rg) or sorted(m.values()) != sorted(ng):
        return problems + ["mapping is not a bijection of generators"]
    if any((rg[a].left, rg[a].right) != (ng[b].left, ng[b].right) for a, b in m.items()):
        problems.append("mapping does not preserve idempotents")
    if {(m[s], l, r, m[t]) for s, l, r, t in R.arrows} != set(N.arrows):
        problems.append("mapping does not carry arrows onto arrows")
    return problems


# -- workloads ---------------------------------------------------------------


def _complex(n, left, right):
    return lambda lib: _pair(lib, NullTracer(), n, right, left).objects["C"]


def _answers(name, seed, inputs):
    """The answer list of a workload.  ``inputs`` maps n to the ``bpc gen``
    output that the ``--in`` answers read; set-up fills it."""
    if name == "fill":
        return [
            Answer(f"fill/n{n}/L{left}/R{right}", "fill", n,
                   lambda lib, t, n=n, l=left, r=right: _pair(lib, t, n, r, l),
                   _check_rank, complex=_complex(n, left, right))
            for n in (8, 16, 24)
            for left in SLOPES
            for right in SLOPES
        ]
    if name == "model":
        out = []
        for n in (8, 12, 16, 20, 24):
            out.append(Answer(f"model/a/n{n}", "model/a", n,
                              lambda lib, t, n=n: _gen_then_reduce(lib, t, n),
                              _check_reduced_dd(n)))
            out.append(Answer(f"model/b/n{n}", "model/b", n,
                              lambda lib, t, n=n: _pair(lib, t, n, 3, reduce=True),
                              _check_reduced_d))
            out.append(Answer(f"model/c/n{n}", "model/c", n,
                              lambda lib, t, n=n: _pair(lib, t, n, 3, 2, reduce=True),
                              _check_rank, complex=_complex(n, 2, 3)))
        return out
    if name == "equiv":
        out = [
            Answer(f"equiv/a/n{n}", "equiv/a", n,
                   lambda lib, t, n=n: _isomorphic_models(lib, t, n), _check_bijection)
            for n in range(3, 9)
        ]
        out += [
            Answer(f"equiv/b/n{n}", "equiv/b", n,
                   lambda lib, t, n=n: _reduce_check_orders(lib, t, inputs[n], seed),
                   _check_output,
                   reference=lambda lib, n=n: lib.serialize.to_json(
                       lib.structures.reduce(lib.serialize.from_json(inputs[n]))))
            for n in (4, 5, 6)
        ]
        out += [
            Answer(f"equiv/c/n{n}", "equiv/c", n,
                   lambda lib, t, n=n: _equiv(lib, t, n), _check_output)
            for n in (32, 64)
        ]
        out.append(Answer("equiv/d/n64", "equiv/d", 64,
                          lambda lib, t: _check_file(lib, t, inputs[64]), _check_output))
        return out
    raise ValueError(f"unknown workload {name!r}")


def smallest_n(answers):
    """Quick mode: the answers of each part at its smallest n."""
    least = {}
    for a in answers:
        least[a.part] = min(least.get(a.part, a.n), a.n)
    return [a for a in answers if a.n == least[a.part]]


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(name, seed, quick=False):
    """Import bpc, list the workload's answers in seeded order and write
    the input files its ``--in`` answers read (kept in memory)."""
    lib = load_bpc()
    inputs = {}
    answers = _answers(name, seed, inputs)
    if quick:
        answers = smallest_n(answers)
    for a in answers:
        if a.part in ("equiv/b", "equiv/d"):
            inputs[a.n] = lib.serialize.to_json(lib.torus_link.build_cfdd_full(a.n))
    random.Random(seed).shuffle(answers)
    return lib, answers


# ---------------------------------------------------------------------------
# running and reporting


@dataclass
class Pass:
    times: dict  # answer id -> measured seconds
    probe_s: float  # median probe time over the pass

    def scaled(self):
        """The times scaled to the reference speed."""
        return {k: t * REFERENCE_PROBE_S / self.probe_s for k, t in self.times.items()}


def run_pass(lib, answers, expected, tracer, failures):
    """Run every answer once, each after a probe.  Checks run after each
    answer's timer stops; failures get (id, problems)."""
    times, probes = {}, []
    for a in answers:
        # Each command of the CLI starts with a fresh heap; collecting here
        # keeps earlier answers' garbage out of this one's time.
        gc.collect()
        probes.append(probe())
        tracer.begin(a.id, a.n)
        start = time.perf_counter()
        try:
            out = a.run(lib, tracer)
        except Exception as e:  # an answer that raises is a failed answer
            out = e
        times[a.id] = time.perf_counter() - start
        tracer.end()
        exp = expected.get(a.id)
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        elif exp is None:
            problems = ["no recorded expectation"]
        else:
            problems = a.check(lib, out, exp)
        if problems:
            failures.append((a.id, problems))
    return Pass(times, statistics.median(probes))


def run_passes(lib, answers, expected, tracer, budget, failures):
    """Repeat whole passes while the next one fits in ``budget`` seconds
    (always at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(lib, answers, expected, tracer, failures))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def _quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def median_times(passes, scaled=True):
    """Each answer's median time over the passes of a run."""
    runs = [p.scaled() if scaled else p.times for p in passes]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def end_to_end(passes, setups, attempted, failed, scaled=True):
    """End-to-end metrics.  ``setups`` holds (seconds, probe seconds) per
    set-up; with ``scaled`` every time is scaled to the reference speed."""
    times = sorted(median_times(passes, scaled).values())
    setup_s = statistics.median(t * REFERENCE_PROBE_S / p if scaled else t for t, p in setups)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "answer_s.p50": (_quantile(times, 0.5), "s"),
        "answer_s.p85": (_quantile(times, 0.85), "s"),
        "answer_s.max": (times[-1], "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _slope(points):
    """Least-squares slope of log(seconds) against log(n)."""
    pts = [(math.log(n), math.log(s)) for n, s in points if s > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    var = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / var


def per_layer(spans, traced_passes, untraced_passes):
    """Per-pass layer totals from the spans of ``traced_passes`` passes,
    times scaled by the traced passes' median probe."""
    k = len(traced_passes)
    scale = REFERENCE_PROBE_S / statistics.median(p.probe_s for p in traced_passes)
    stats = {layer: {"s": 0.0, "calls": 0, "gens_in": 0, "gens_out": 0,
                     "arrows_in": 0, "arrows_out": 0} for layer in LAYERS}
    series = {(layer, n): 0.0 for layer in SERIES_LAYERS for n in SERIES_N}
    answer_time = layer_time = 0.0
    nbytes = found = 0
    for s in spans:
        dur = scale * (s.end - s.start)
        if s.parent is None:
            answer_time += dur
            continue
        layer_time += dur
        st = stats[s.name]
        st["s"] += dur
        st["calls"] += 1
        st["gens_in"] += s.sizes_in[0]
        st["gens_out"] += s.sizes_out[0]
        st["arrows_in"] += s.sizes_in[1]
        st["arrows_out"] += s.sizes_out[1]
        if s.name == "serialize":
            nbytes += s.sizes_in[2] + s.sizes_out[2]
        if s.found:
            found += 1
        if (s.name, s.n) in series:
            series[(s.name, s.n)] += dur
    units = {"s": "s", "calls": "count", "gens_in": "count", "gens_out": "count",
             "arrows_in": "count", "arrows_out": "count"}
    out = {}
    for layer, st in stats.items():
        for key, value in st.items():
            out[f"{layer}.{key}"] = (value / k, units[key])
    out["serialize.bytes"] = (nbytes / k, "bytes")
    iso_calls = stats["structures.isomorphic"]["calls"]
    out["structures.isomorphic.found"] = (found / iso_calls if iso_calls else 0.0, "ratio")
    for layer in SERIES_LAYERS:
        for n in SERIES_N:
            out[f"{layer}.s.n{n}"] = (series[(layer, n)] / k, "s")
        points = [(n, series[(layer, n)]) for n in SERIES_N]
        out[f"{layer}.slope"] = (_slope(points), "log-log")
    overhead = sum(median_times(traced_passes).values()) - sum(median_times(untraced_passes).values())
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.accounted_frac"] = (layer_time / answer_time, "ratio")
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cpu_s, wall_s, probe_s, scale):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "cpu_per_wall": cpu_s / wall_s if wall_s > 0 else 0.0,
        "probe_s": probe_s,
        "scale": scale,
    }


def run_workload(name, seed, seconds, trace=False, quick=False, expected=None):
    """Set up and measure one workload.  Returns the result object and
    report details: failures, pass counts, the environment and spans."""
    expected = load_expected() if expected is None else expected
    setups = []
    for _ in range(SETUP_REPEATS):
        probe_s = probe()
        start = time.perf_counter()
        lib, answers = setup(name, seed, quick)
        setups.append((time.perf_counter() - start, probe_s))
    failures = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if trace:
        untraced = run_passes(lib, answers, expected, NullTracer(), seconds / 2, failures)
        tracer = Tracer()
        traced = run_passes(lib, answers, expected, tracer, seconds / 2, failures)
        passes = untraced + traced
    else:
        passes = run_passes(lib, answers, expected, NullTracer(), seconds, failures)
    probe_s = statistics.median(p.probe_s for p in passes)
    env = environment(time.process_time() - cpu0, time.perf_counter() - wall0,
                      probe_s, REFERENCE_PROBE_S / probe_s)
    attempted = len(answers) * len(passes)
    failed = len(failures)
    unexpected = sorted({i for i, _ in failures if not expected.get(i, {}).get("known_defect")})
    if trace:
        metrics = per_layer(tracer.spans, traced, untraced)
        measured = {}
    else:
        metrics = end_to_end(passes, setups, attempted, failed)
        measured = end_to_end(passes, setups, attempted, failed, scaled=False)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "answers": len(answers),
        "passes": len(passes),
        "failures": failures,
        "unexpected": unexpected,
        "env": env,
        "measured": measured,
        "spans": tracer.spans if trace else [],
    }
    return result, details
