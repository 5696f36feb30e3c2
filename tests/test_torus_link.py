import hashlib
import json
import pathlib

import pytest

from bpc.serialize import to_json
from bpc.structures import check_dd
from bpc.torus_link import (
    build_cfdd_full,
    build_cfdd_simplified,
    build_equivalence,
    full_build_log,
)


def _group(name):
    """The census group of a generator name."""
    if name == "ab":
        return "ab"
    if name.startswith("a_y"):
        return "a_y"
    return "x_b" if name.endswith("_b") else "xy"


@pytest.mark.parametrize("n", range(1, 31))
def test_generator_census(n, census_oracle):
    groups = census_oracle(n)
    assert sum(map(len, groups.values())) == 2 * n * n
    S = build_cfdd_full(n)
    found = {group: [] for group in groups}
    for g in S.generators:
        found[_group(g.name)].append((g.name, g.left, g.right))
    assert found == {group: sorted(gens) for group, gens in groups.items()}


def test_direct_generators_match_enumeration(census_oracle):
    """The numbered view: names in sorted order, each with its code 2 *
    left + right."""
    for n in range(1, 31):
        want = sorted(g for gens in census_oracle(n).values() for g in gens)
        S = build_cfdd_full(n)
        assert list(zip(S.names, S.codes)) == [(x, 2 * left + right) for x, left, right in want]


def test_enumerate_rejects_bad_n():
    for build in (build_cfdd_full, full_build_log):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            build(0)


def test_full_n1_is_the_identity_bimodule():
    S = build_cfdd_full(1)
    assert sorted(g.name for g in S.generators) == ["ab", "x1y1"]
    assert S.arrows == frozenset(
        {
            ("ab", "r1", "s3", "x1y1"),
            ("ab", "r3", "s1", "x1y1"),
            ("ab", "r123", "s123", "x1y1"),
            ("x1y1", "r2", "s2", "ab"),
        }
    )


def test_full_n2_spec_arrows():
    S = build_cfdd_full(2)
    from_x1y3 = {(l, r, t) for s, l, r, t in S.arrows if s == "x1y3"}
    assert from_x1y3 == {("i2", "j2", "x2y2"), ("r23", "s2", "x2_b")}
    from_x2y2 = {(l, r, t) for s, l, r, t in S.arrows if s == "x2y2"}
    assert from_x2y2 == {("r23", "s23", "x3y3")}


@pytest.mark.parametrize("n", range(1, 7))
def test_full_satisfies_structure_equation(n):
    assert check_dd(build_cfdd_full(n)).ok


@pytest.mark.parametrize("n", range(2, 9))
def test_simplified_satisfies_structure_equation(n):
    S = build_cfdd_simplified(n)
    assert len(S.generators) == 4 * n - 2
    assert check_dd(S).ok


def test_simplified_n3_spec_arrows():
    S = build_cfdd_simplified(3)
    from_x4y4 = {(l, r, t) for s, l, r, t in S.arrows if s == "u_x4y4"}
    assert from_x4y4 == {("r2", "s23", "u_a_y4"), ("r23", "s2", "u_x4_b")}
    assert not any(s == "u_x2y2" for s, _, _, _ in S.arrows)


def test_simplified_rejects_n1():
    with pytest.raises(ValueError):
        build_cfdd_simplified(1)


def test_build_log_lists_every_family():
    log = full_build_log(3)
    for k in range(1, 15):
        assert any(line.startswith(f"F{k}:") for line in log), k


def test_equivalence_spec_values():
    F, G, H = build_equivalence(3)
    f_from_x1y5 = {(l, r, t) for s, l, r, t in F.arrows if s == "x1y5"}
    assert f_from_x1y5 == {("i2", "j2", "u_x3y3")}
    g_from_u_x1y1 = {(l, r, t) for s, l, r, t in G.arrows if s == "u_x1y1"}
    assert g_from_u_x1y1 == {("i2", "j2", "x1y1"), ("r23", "s23", "x3y1")}
    assert not any(s == "ab" for s, _, _, _ in H.arrows)


def test_equivalence_rejects_small_n():
    with pytest.raises(ValueError):
        build_equivalence(2)


# sha256 digests recorded before the builders filled numbered rows
# directly: to_json of each build, and for build_equivalence the sorted
# arrows of F, G and H as a JSON array
BUILDER_DIGESTS = json.loads(
    pathlib.Path(__file__).with_name("builder_digests.json").read_text(encoding="utf-8")
)


def _morphism_arrows(n, k):
    return json.dumps(sorted(build_equivalence(n)[k].arrows))


BUILDER_OUTPUTS = {
    **{f"build_cfdd_full({n})": lambda n=n: to_json(build_cfdd_full(n)) for n in (12, 16, 24, 32)},
    **{f"build_cfdd_simplified({n})": lambda n=n: to_json(build_cfdd_simplified(n)) for n in (12, 32)},
    **{
        f"build_equivalence({n}) {name}": lambda n=n, k=k: _morphism_arrows(n, k)
        for n in (3, 8, 16)
        for k, name in enumerate("FGH")
    },
}


def test_builder_digests_are_all_recorded():
    assert list(BUILDER_OUTPUTS) == list(BUILDER_DIGESTS)


@pytest.mark.parametrize("case", BUILDER_OUTPUTS)
def test_builder_output_bytes(case):
    text = BUILDER_OUTPUTS[case]()
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_DIGESTS[case]


def test_families_are_disjoint():
    """The build files every family's arrows into rows without a set, so
    the per-family counts of the log must add up to the arrow count."""
    for n in range(1, 41):
        counts = [int(line.split("; ")[1].split()[0]) for line in full_build_log(n)[1:]]
        S = build_cfdd_full(n)
        assert len(counts) == 14
        assert sum(counts) == sum(map(len, S.steps)) == len(S.arrows)
