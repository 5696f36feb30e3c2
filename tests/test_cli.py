import json
import os
import subprocess
import sys

import pytest

from bpc import structures, torus_link
from bpc.cli import main
from bpc.serialize import from_json, to_json
from bpc.solid_torus import build_cfa, build_cfa_framed, build_cfa_infinity
from bpc.structures import ChainComplexF2
from bpc.torus_link import build_cfdd_full, build_equivalence
from test_solid_torus import truncated_infinity
from test_structures import _without_first_arrow


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
    # n = 51 names generators with 3-digit indices (x101y1); reduce's
    # structure-equation check passes them, and it prints the library's model
    out, reduced = tmp_path / "s.json", tmp_path / "r.json"
    for n in (3, 4, 24, 51):
        run(capsys, "gen", "--n", str(n), "--form", "full", "--out", str(out))
        assert run(capsys, "check", "--in", str(out)) == (0, "ok\n", ""), n
        assert run(capsys, "reduce", "--in", str(out), "--out", str(reduced)) == (0, "", ""), n
        assert reduced.read_text() == to_json(structures.reduce(from_json(out.read_text()))), n


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


def test_equiv(capsys, monkeypatch):
    # 64 and 128 lie past the sizes the builders meet a reference at
    for n in (3, 8, 64, 128):
        assert run(capsys, "equiv", "--n", str(n)) == (0, "ok\n", ""), n
    assert run(capsys, "equiv", "--n", "2")[0] == 2
    # a failing report is printed line by line, with exit 1
    F, G, H = build_equivalence(3)
    monkeypatch.setattr(torus_link, "build_equivalence", lambda n: (F, G, _without_first_arrow(H)))
    report = (
        "G o F + id differs from d(H): a_y2 -> x4y4: r3*j2\n"
        "G o F + id differs from d(H): x5y1 -> x3y5: r23*s23\n"
    )
    assert run(capsys, "equiv", "--n", "3") == (1, report, "")


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


def test_pair_framing_above_sixty_four(capsys):
    # a framing's longest operation grows with it; no path bound refuses it
    code, stdout, stderr = run(capsys, "pair", "--n", "3", "--left", "2", "--right", "65")
    assert (code, stderr) == (0, "")
    assert stdout.rstrip().splitlines()[-1].isdigit()


@pytest.mark.parametrize(
    "n, right, rank", [(16, "9", "6"), (24, "20", "3"), (64, "inf", "1"), (64, "3", "60")]
)
def test_pair_answers_infinity_fillings_whose_paths_are_long(capsys, n, right, rank):
    # the lens spaces (inf, R) of rank |R - n + 1| and S^3 at (inf, inf),
    # paths of 18 chords and more
    code, stdout, stderr = run(capsys, "pair", "--n", str(n), "--left", "inf", "--right", right)
    assert (code, stderr, stdout.splitlines()[-1]) == (0, "", rank)


def test_check_takes_a_looping_module_and_refuses_a_family_cap(capsys, tmp_path):
    path = tmp_path / "a.json"
    doc = json.loads(to_json(build_cfa_infinity()))
    path.write_text(json.dumps(doc))
    assert run(capsys, "check", "--in", str(path)) == (0, "ok\n", "")
    doc["capped_arity"] = None
    path.write_text(json.dumps(doc))
    message = f"error: {path}: A: unknown fields ['capped_arity']\n"
    assert run(capsys, "check", "--in", str(path)) == (2, "", message)


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
    ],
)
def test_non_integer_fields_are_usage_errors(capsys, tmp_path, command, field, value, message):
    doc = json.loads(to_json(build_cfa_framed(2)))
    (doc["generators"][0] if field == "occupancy" else doc)[field] = value
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, command, "--in", str(path))
    assert (code, stdout, stderr) == (2, "", f"error: {path}: {message}\n")


def test_reduce_rejects_a_module_document(capsys, tmp_path):
    # a module document used to reach reduce and exit 1 naming "a AModule"
    a_path = tmp_path / "a.json"
    a_path.write_text(to_json(build_cfa(2)))
    code, stdout, stderr = run(capsys, "reduce", "--in", str(a_path))
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: reduce expects a serialized DD structure, D structure or complex, got AModule\n"
    )


def test_reduce_roundtrip(capsys, tmp_path):
    d_path = tmp_path / "trefoil.json"
    run(capsys, "pair", "--n", "2", "--right", "2", "--out", str(d_path))
    code, stdout, _ = run(
        capsys, "--seed", "5", "reduce", "--in", str(d_path), "--check-orders", "5"
    )
    assert code == 0
    assert len(json.loads(stdout)["generators"]) == 8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: orders give non-isomorphic models")
def test_reduce_check_orders_accepts_gen_output(capsys, tmp_path):
    # the reduced models of two cancellation orders are homotopy equivalent
    path = tmp_path / "g.json"
    run(capsys, "gen", "--n", "3", "--out", str(path))
    assert run(capsys, "--seed", "0", "reduce", "--in", str(path), "--check-orders", "1")[0] == 0


def _dropped_arrow(capsys, argv, k):
    """The document argv prints, without its arrow k."""
    doc = json.loads(run(capsys, *argv)[1])
    del doc["arrows"][k]
    return doc


_LOOP = {
    "schema_version": 1,
    "kind": "complex",
    "sides": [],
    "generators": ["a", "b"],
    "arrows": [{"source": "a", "target": "b"}, {"source": "b", "target": "a"}],
}


@pytest.mark.parametrize(
    "document, first_line",
    [
        (lambda capsys: _dropped_arrow(capsys, ["gen", "--n", "3"], 0), "a_y2 -> x2y2: r123*s23"),
        (
            lambda capsys: _dropped_arrow(capsys, ["pair", "--n", "3", "--right", "2"], 4),
            "p2*x2_b -> q*x2y2: r23",
        ),
        (lambda capsys: _LOOP, "a -> a"),
    ],
    ids=["DD", "D", "complex"],
)
def test_reduce_refuses_a_structure_that_fails_its_equation(capsys, tmp_path, document, first_line):
    # cancellation is a homotopy equivalence only where the structure
    # equation holds: a model of a structure that fails it can pass check
    path, out = tmp_path / "bad.json", tmp_path / "r.json"
    path.write_text(json.dumps(document(capsys)))
    code, stdout, _ = run(capsys, "check", "--in", str(path))
    assert (code, stdout.splitlines()[0]) == (1, first_line)
    assert run(capsys, "reduce", "--in", str(path), "--out", str(out)) == (
        1,
        "",
        f"error: cannot reduce a structure that fails its structure equation: {first_line}\n",
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "pair", "reduce"])
@pytest.mark.parametrize(
    "target, message",
    [
        ("missing/x.json", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
    ],
    ids=["missing-directory", "directory"],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, command, target, message):
    """--out into a missing directory or onto a directory exits 2 with
    the OS error, as an unreadable --in does, and prints nothing."""
    g_path = tmp_path / "g.json"
    g_path.write_text(to_json(build_cfdd_full(2)))
    out = str(tmp_path / target)
    argv = {
        "gen": ["gen", "--n", "2"],
        "pair": ["pair", "--n", "2", "--right", "2"],
        "reduce": ["reduce", "--in", str(g_path)],
    }[command]
    code, stdout, stderr = run(capsys, *argv, "--out", out)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {message}: {out!r}\n"


def test_gen_with_an_unwritable_log_leaves_no_document(capsys, tmp_path):
    """gen --out writes the document, then its .log; when the log cannot
    be written the command exits 2 and removes the document it wrote."""
    out = tmp_path / "y.json"
    (tmp_path / "y.json.log").mkdir()
    code, stdout, stderr = run(capsys, "gen", "--n", "2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: [Errno 21] Is a directory: {str(out) + '.log'!r}\n"
    assert not out.exists()


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


def _check_in_a_process(path, seed):
    """(exit code, stdout, stderr) of ``bpc check --in path`` in a fresh
    interpreter under PYTHONHASHSEED=seed, which orders set iteration."""
    src = os.path.dirname(os.path.dirname(sys.modules["bpc"].__file__))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "bpc.cli", "check", "--in", str(path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def test_check_names_the_same_missing_endpoint_under_any_hash_seed(tmp_path):
    doc = json.loads(to_json(ChainComplexF2(("a",), frozenset())))
    doc["arrows"] = [{"source": "a", "target": y} for y in "bcdefgh"]
    path = tmp_path / "strangers.json"
    path.write_text(json.dumps(doc))
    want = f"error: {path}: arrow endpoint missing: ('a', 'b')\n"
    for seed in ("0", "1"):
        assert _check_in_a_process(path, seed) == (2, "", want), seed


def test_check_reports_a_dropped_arrow_alike_under_any_hash_seed(tmp_path):
    doc = json.loads(to_json(build_cfdd_full(24)))
    del doc["arrows"][0]
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(doc))
    first, second = (_check_in_a_process(path, seed) for seed in ("0", "1"))
    assert first[0] == 1 and first[1] and first == second


def test_reduce_negative_check_orders_is_usage_error(capsys, tmp_path):
    d_path = tmp_path / "trefoil.json"
    run(capsys, "pair", "--n", "2", "--right", "2", "--out", str(d_path))
    code, stdout, stderr = run(capsys, "reduce", "--in", str(d_path), "--check-orders", "-3")
    assert code == 2 and not stdout
    assert "--check-orders" in stderr
    # K = 0 still means no check
    code, stdout, _ = run(capsys, "reduce", "--in", str(d_path), "--check-orders", "0")
    assert code == 0 and len(json.loads(stdout)["generators"]) == 8


def test_pair_documents_check_reduce_and_rank_again(capsys, tmp_path):
    """A paired D document checks and reduces, and a paired complex's
    homology rank is the rank pair printed."""
    d_path, c_path = tmp_path / "d.json", tmp_path / "c.json"
    assert run(capsys, "pair", "--n", "3", "--right", "2", "--out", str(d_path)) == (0, "", "")
    assert run(capsys, "check", "--in", str(d_path)) == (0, "ok\n", "")
    assert run(capsys, "reduce", "--in", str(d_path), "--out", str(tmp_path / "dr.json"))[0] == 0
    argv = ["pair", "--n", "3", "--left", "2", "--right", "3", "--out", str(c_path)]
    code, rank, _ = run(capsys, *argv)
    assert code == 0 and run(capsys, "homology", "--in", str(c_path)) == (0, rank, "")


def test_pair_reduce_keeps_the_rank_at_n24(capsys):
    # cancellation keeps the homotopy type, so --reduce prints the same rank
    argv = ["pair", "--n", "24", "--left", "2", "--right", "3"]
    plain, reduced = run(capsys, *argv), run(capsys, *argv, "--reduce")
    assert plain[::2] == reduced[::2] == (0, "")
    assert plain[1].splitlines()[-1] == reduced[1].splitlines()[-1]


def test_homology_command(capsys, tmp_path):
    c_path = tmp_path / "c.json"
    c_path.write_text(to_json(ChainComplexF2(("a", "b", "c"), frozenset())))
    code, stdout, _ = run(capsys, "homology", "--in", str(c_path))
    assert code == 0 and stdout.strip() == "3"


def test_homology_rejects_a_dd_document(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(to_json(build_cfdd_full(3)))
    message = "error: homology expects a serialized complex, got DDStructure\n"
    assert run(capsys, "homology", "--in", str(path)) == (2, "", message)


def test_homology_rejects_bad_boundary(capsys, tmp_path):
    c_path = tmp_path / "c.json"
    bad = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    c_path.write_text(to_json(bad))
    code, stdout, stderr = run(capsys, "homology", "--in", str(c_path))
    assert (code, stdout) == (1, "")
    assert stderr == "error: boundary does not square to zero: a -> c\n"


def test_check_rejects_a_module_landing_on_the_wrong_idempotent(capsys, tmp_path):
    # q -(2)-> p1 retargeted to q: chord 2 ends at arc 1, q has occupancy 2
    doc = json.loads(to_json(build_cfa(2)))
    for op in doc["operations"]:
        if op["source"] == "q":
            op["target"] = "q"
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "check", "--in", str(path))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {path}: sequence not composable with target: (('2',), 'q')\n"


def test_check_rejects_a_repeated_operation(capsys, tmp_path):
    doc = json.loads(to_json(truncated_infinity(16)))
    doc["operations"].insert(1, dict(doc["operations"][0]))
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "check", "--in", str(path))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {path}: operation listed twice: ('w', ('3', '2'), 'w')\n"


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
