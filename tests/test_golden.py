"""Golden outputs: sha256 digests of what the CLI prints for n <= 8.

The digests in ``golden_digests.json`` pin the printed bytes, so a
restructuring that changes any of them fails here.  Each case records
the exit code and the digests of stdout and stderr; ``pair --left``
cases also record the homology rank printed on the last line.  To
re-record after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from bpc.cli import main

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")
N_RANGE = range(1, 9)


def _cases():
    """(case id, argv, id of the gen case whose stdout is the input file)."""
    for n in N_RANGE:
        forms = ("full", "simplified") if n >= 2 else ("full",)
        for form in forms:
            gen = f"gen --n {n} --form {form}"
            yield gen, gen.split(), None
            yield f"reduce --in <{gen}>", ["reduce", "--in"], gen
        for left in ("", "--left 2 "):
            for reduce in ("", " --reduce"):
                case = f"pair --n {n} {left}--right 3{reduce}"
                yield case, case.split(), None


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _outputs():
    """Case id -> (record, stdout) for every golden case, in order."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv, input_case in _cases():
            if input_case is not None:
                path = pathlib.Path(tmp) / "input.json"
                path.write_text(results[input_case][1], encoding="utf-8")
                argv = argv + [str(path)]
            code, out, err = _run(argv)
            record = {"exit": code, "stdout": _digest(out), "stderr": _digest(err)}
            if "--left" in argv:
                record["rank"] = int(out.splitlines()[-1])
            results[case] = record, out
    return results


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


def _expected():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_golden_cases_are_all_recorded():
    assert [case for case, _, _ in _cases()] == list(_expected())


@pytest.mark.parametrize("case", [case for case, _, _ in _cases()])
def test_golden_output(outputs, case):
    assert outputs[case][0] == _expected()[case]


if __name__ == "__main__":
    recorded = {case: record for case, (record, _) in _outputs().items()}
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(recorded)} cases in {DIGESTS}\n")
