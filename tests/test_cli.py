import json
import os
import subprocess
import sys

import pytest

from bpc.cli import main
from bpc.serialize import from_json, to_json
from bpc.solid_torus import build_cfa_framed
from bpc.structures import ChainComplexF2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_full_n1(capsys, tmp_path):
    out = tmp_path / "hopf.json"
    code, stdout, _ = run(capsys, "gen", "--n", "1", "--form", "full", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["generators"]) == 2
    assert len(doc["arrows"]) == 4
    assert (tmp_path / "hopf.json.log").exists()


def test_gen_simplified_n3(capsys):
    code, stdout, _ = run(capsys, "gen", "--n", "3", "--form", "simplified")
    assert code == 0
    assert len(json.loads(stdout)["generators"]) == 10


def test_gen_rejects_bad_n(capsys):
    assert run(capsys, "gen", "--n", "0")[0] == 2
    assert run(capsys, "gen", "--n", "1", "--form", "simplified")[0] == 2


def test_gen_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "--n", "4", "--form", "full")
    _, second, _ = run(capsys, "gen", "--n", "4", "--form", "full")
    assert first == second


def test_check_accepts_generated_structure(capsys, tmp_path):
    out = tmp_path / "s.json"
    run(capsys, "gen", "--n", "4", "--form", "full", "--out", str(out))
    code, stdout, _ = run(capsys, "check", "--in", str(out))
    assert code == 0 and stdout.strip() == "ok"


def test_check_rejects_corrupted_structure(capsys, tmp_path):
    out = tmp_path / "s.json"
    run(capsys, "gen", "--n", "2", "--form", "full", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["arrows"] = [a for a in doc["arrows"] if a["source"] != "x2y2"]
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "check", "--in", str(out))
    assert code == 1
    assert "r23*s23" in stdout  # the surviving product names the missing piece


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda arrows: arrows.insert(1, dict(arrows[0])),
            "arrow listed twice: ('a_y2', 'r1', 'j2', 'x1y1')",
        ),
        (
            lambda arrows: arrows[0].update(target="nowhere"),
            "arrow endpoint missing: ('a_y2', 'r1', 'j2', 'nowhere')",
        ),
    ],
    ids=["repeated arrow", "unknown endpoint"],
)
def test_check_rejects_malformed_arrows(capsys, tmp_path, edit, message):
    out = tmp_path / "s.json"
    run(capsys, "gen", "--n", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    edit(doc["arrows"])
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "check", "--in", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {out}: {message}\n"


def test_equiv(capsys):
    assert run(capsys, "equiv", "--n", "3")[0] == 0
    assert run(capsys, "equiv", "--n", "2")[0] == 2


def test_pair_right_infinity_reduce(capsys):
    code, stdout, _ = run(capsys, "pair", "--n", "3", "--right", "inf", "--reduce")
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["generators"]) == 3
    labels = sorted(a["label"] for a in doc["arrows"])
    assert labels == ["r123", "r2", "r23"]


def test_pair_lens_space_rank(capsys):
    code, stdout, _ = run(capsys, "pair", "--n", "1", "--left", "2", "--right", "3")
    assert code == 0
    assert stdout.rstrip().splitlines()[-1] == "5"


def test_pair_trefoil_unreduced(capsys):
    code, stdout, _ = run(capsys, "pair", "--n", "2", "--right", "2")
    assert code == 0
    assert len(json.loads(stdout)["generators"]) == 10


def test_pair_usage_errors(capsys):
    assert run(capsys, "pair", "--n", "2", "--right", "7/3")[0] == 2
    assert run(capsys, "pair", "--n", "2", "--right", "0")[0] == 2
    assert run(capsys, "pair", "--n", "2", "--left", "2")[0] == 2
    assert run(capsys, "pair", "--n", "0", "--right", "2")[0] == 2


@pytest.mark.parametrize("side", ["--left", "--right"])
@pytest.mark.parametrize("slope", ["1_0", " 2", "+3", "\u0663"])
def test_pair_rejects_slopes_only_int_accepts(capsys, side, slope):
    argv = ["pair", "--n", "2", "--left", "2", "--right", "3"]
    argv[argv.index(side) + 1] = slope
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: bad slope {slope!r}: expected 'inf' or a positive integer\n"


def test_pair_cap_from_environment(capsys, monkeypatch):
    # BPC_CAP is not read: pair prints the same bytes whatever it holds
    expected = run(capsys, "pair", "--n", "2", "--right", "2")
    assert expected[0] == 0
    for value in ("1", "80", "abc"):
        monkeypatch.setenv("BPC_CAP", value)
        assert run(capsys, "pair", "--n", "2", "--right", "2") == expected


@pytest.mark.parametrize("value", ["abc", "", "2.5", "0", "-3", "5"])
def test_pair_malformed_cap_is_usage_error(capsys, value):
    # pair has no --cap option, so any cap given to it is a usage error
    with pytest.raises(SystemExit) as exit_info:
        main(["pair", "--n", "2", "--right", "2", "--cap", value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_reduce_rejects_non_string_names(capsys, tmp_path):
    c_path = tmp_path / "c.json"
    doc = json.loads(to_json(ChainComplexF2(("a", "b"), frozenset({("a", "b")}))))
    doc["generators"] = [1, 2]
    doc["arrows"] = [{"source": 1, "target": 2}]
    c_path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "reduce", "--in", str(c_path))
    assert code == 2
    assert "strings" in stderr


@pytest.mark.parametrize(
    "doc",
    [
        {
            "schema_version": 1,
            "kind": "DD",
            "sides": ["left", "right"],
            "generators": [{"name": "a", "left": "i3", "right": "j1"}],
            "arrows": [],
        },
        {
            "schema_version": 1,
            "kind": "D",
            "sides": ["left"],
            "generators": [{"name": "p", "idem": "i0"}],
            "arrows": [],
        },
    ],
    ids=["DD-i3", "D-i0"],
)
def test_reduce_rejects_idempotent_index_outside_one_two(capsys, tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "reduce", "--in", str(path))
    assert code == 2 and stdout == ""
    assert "unknown algebra token" in stderr


@pytest.mark.parametrize("command", ["check", "reduce"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("schema_version", True, "unsupported schema_version True"),
        ("occupancy", 1.0, "bad occupancy 1.0"),
        ("capped_arity", False, "bad capped_arity False"),
    ],
)
def test_non_integer_fields_are_usage_errors(capsys, tmp_path, command, field, value, message):
    doc = json.loads(to_json(build_cfa_framed(2)))
    (doc["generators"][0] if field == "occupancy" else doc)[field] = value
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, command, "--in", str(path))
    assert (code, stdout, stderr) == (2, "", f"error: {path}: {message}\n")


def test_reduce_roundtrip(capsys, tmp_path):
    d_path = tmp_path / "trefoil.json"
    run(capsys, "pair", "--n", "2", "--right", "2", "--out", str(d_path))
    code, stdout, _ = run(
        capsys, "--seed", "5", "reduce", "--in", str(d_path), "--check-orders", "5"
    )
    assert code == 0
    assert len(json.loads(stdout)["generators"]) == 8


def _integer_argv(option, value, path):
    """A command line that reads value for option and would succeed if
    value were 3."""
    return {
        "--n": ["gen", "--n", value, "--form", "simplified"],
        "--seed": ["--seed", value, "equiv", "--n", "3"],
        "--check-orders": ["reduce", "--in", str(path), "--check-orders", value],
    }[option]


@pytest.mark.parametrize("value", ["1_0", "+3", " 3", "3 ", "\u0663", "3.0", "", "-3"], ids=repr)
@pytest.mark.parametrize("option", ["--n", "--seed", "--check-orders"])
def test_integer_options_take_ascii_digits_only(capsys, tmp_path, option, value):
    # int() would take all but the last three; --seed alone takes "-3"
    path = tmp_path / "trefoil.json"
    run(capsys, "pair", "--n", "2", "--right", "2", "--out", str(path))
    assert run(capsys, *_integer_argv(option, "3", path))[0] == 0
    code, stdout, stderr = run(capsys, *_integer_argv(option, value, path))
    if option == "--seed" and value == "-3":
        assert code == 0
        return
    sign = " after an optional '-'" if option == "--seed" else ""
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {option} takes ASCII digits{sign}, got {value!r}\n"


def test_check_names_the_same_missing_endpoint_under_any_hash_seed(tmp_path):
    doc = json.loads(to_json(ChainComplexF2(("a",), frozenset())))
    doc["arrows"] = [{"source": "a", "target": y} for y in "bcdefgh"]
    path = tmp_path / "strangers.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(sys.modules["bpc"].__file__))
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "bpc.cli", "check", "--in", str(path)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        want = f"error: {path}: arrow endpoint missing: ('a', 'b')\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", want), seed


def test_reduce_negative_check_orders_is_usage_error(capsys, tmp_path):
    d_path = tmp_path / "trefoil.json"
    run(capsys, "pair", "--n", "2", "--right", "2", "--out", str(d_path))
    code, stdout, stderr = run(capsys, "reduce", "--in", str(d_path), "--check-orders", "-3")
    assert code == 2 and not stdout
    assert "--check-orders" in stderr
    # K = 0 still means no check
    code, stdout, _ = run(capsys, "reduce", "--in", str(d_path), "--check-orders", "0")
    assert code == 0 and len(json.loads(stdout)["generators"]) == 8


def test_homology_command(capsys, tmp_path):
    c_path = tmp_path / "c.json"
    c_path.write_text(to_json(ChainComplexF2(("a", "b", "c"), frozenset())))
    code, stdout, _ = run(capsys, "homology", "--in", str(c_path))
    assert code == 0 and stdout.strip() == "3"


def test_homology_rejects_bad_boundary(capsys, tmp_path):
    c_path = tmp_path / "c.json"
    bad = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    c_path.write_text(to_json(bad))
    assert run(capsys, "homology", "--in", str(c_path))[0] == 1


def test_domains(capsys):
    code, stdout, _ = run(capsys, "domains", "--n", "3")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("D1:") and "Q2=6" in lines[0]
    assert lines[1].startswith("D2:") and "Q5=-1" in lines[1]
    assert "independent: true" in lines
    assert "provincially_admissible: true" in lines


def test_domains_rejects_bad_n(capsys):
    assert run(capsys, "domains", "--n", "0")[0] == 2


def test_check_dispatches_on_kind(capsys, tmp_path):
    d_path = tmp_path / "d.json"
    run(capsys, "pair", "--n", "3", "--right", "inf", "--out", str(d_path))
    assert run(capsys, "check", "--in", str(d_path))[0] == 0
    c_path = tmp_path / "c.json"
    c_path.write_text(to_json(ChainComplexF2(("a", "b"), frozenset({("a", "b")}))))
    assert run(capsys, "check", "--in", str(c_path))[0] == 0
    a_path = tmp_path / "a.json"
    a_path.write_text(to_json(build_cfa_framed(3)))
    assert run(capsys, "check", "--in", str(a_path))[0] == 0


def test_check_unknown_file(capsys, tmp_path):
    assert run(capsys, "check", "--in", str(tmp_path / "missing.json"))[0] == 2


def test_pair_output_parses_back(capsys, tmp_path):
    d_path = tmp_path / "d.json"
    run(capsys, "pair", "--n", "2", "--right", "2", "--out", str(d_path))
    S = from_json(d_path.read_text())
    assert len(S.generators) == 10
