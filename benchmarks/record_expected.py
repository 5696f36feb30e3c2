"""Write benchmarks/expected.json, the answer oracle of the benchmark.

    python3 benchmarks/record_expected.py

For every answer of every workload it records the sha256 of the bytes
the command prints today, so a later change that alters any output
byte shows as a failed answer.  Homology ranks (fill, model c) come
from an independent route: cancellation, len(reduce(C).generators), on
the unreduced complex.  A disagreement with homology_rank is printed;
the recorded rank stays the cancellation one.

Answers that fail today because of a known defect get the output the
mathematics asks for and a ``known_defect`` note: they still count as
failed answers, but do not make a run incorrect.
"""

import json
import sys

import bpcbench

KNOWN_DEFECTS = {
    f"equiv/b/n{n}": "random cancellation orders give non-bijective but homotopy-"
    "equivalent results, so --check-orders reports a false disagreement"
    for n in (4, 5, 6)
}


def _oracle_rank(lib, answer):
    """Rank by cancellation on the complex before any reduce."""
    C = answer.complex(lib)
    rank = len(lib.structures.reduce(C).generators)
    elim = lib.pairing.homology_rank(C)
    if elim != rank:
        print(f"{answer.id}: homology_rank {elim} != cancellation {rank}", file=sys.stderr)
    return rank


def record(lib, answer):
    out = answer.run(lib, bpcbench.NullTracer())
    entry = {}
    if answer.id in KNOWN_DEFECTS:
        if out.ok:
            raise SystemExit(f"{answer.id} passes now; drop it from KNOWN_DEFECTS")
        entry["known_defect"] = KNOWN_DEFECTS[answer.id]
        text = answer.reference(lib)
    elif not out.ok:
        raise SystemExit(f"{answer.id} fails: {out.why}")
    else:
        text = out.text
    entry["sha256"] = bpcbench._digest(text)
    if answer.complex is not None:
        entry["rank"] = _oracle_rank(lib, answer)
    return entry


def main():
    expected = {}
    for name in bpcbench.WORKLOADS:
        lib, answers = bpcbench.setup(name, seed=0)
        for answer in sorted(answers, key=lambda a: a.id):
            expected[answer.id] = record(lib, answer)
            print(answer.id, expected[answer.id], flush=True)
    with open(bpcbench.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
