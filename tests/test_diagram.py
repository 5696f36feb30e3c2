import random

import pytest

from bpc.diagram import (
    RegionVector,
    independent,
    periodic_domains,
    provincially_admissible,
    region_names,
)


def test_region_names():
    assert region_names(2) == ("Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "P1", "R1")
    assert region_names(1) == ("Q0", "Q1", "Q2", "Q3", "Q4", "Q5")
    with pytest.raises(ValueError, match="positive integer"):
        region_names(0)


def test_first_domain_n3():
    d1, _ = periodic_domains(3)
    want = {
        "Q0": 0, "Q1": 5, "Q2": 6, "Q3": 1, "Q4": 5, "Q5": 1,
        "P1": 2, "P2": 3, "P3": 4, "R1": 2, "R2": 3, "R3": 4,
    }
    assert dict(d1.items()) == want


def test_second_domain_n3():
    _, d2 = periodic_domains(3)
    want = {
        "Q0": 0, "Q1": -1, "Q2": 0, "Q3": 1, "Q4": 1, "Q5": -1,
        "P1": 0, "P2": 1, "P3": 0, "R1": 0, "R2": -1, "R3": 0,
    }
    assert dict(d2.items()) == want


def test_second_domain_n2():
    # the alternating coefficient vanishes at the only ladder index
    _, d2 = periodic_domains(2)
    assert dict(d2.items()) == {
        "Q0": 0, "Q1": -1, "Q2": 0, "Q3": 1, "Q4": 1, "Q5": -1, "P1": 0, "R1": 0,
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_independence_and_admissibility(n):
    d1, d2 = periodic_domains(n)
    assert independent(d1, d2)
    assert provincially_admissible(n)


def test_dependent_vectors():
    d1, _ = periodic_domains(3)
    assert not independent(d1, d1)
    zero = RegionVector.from_dict(3, {})
    assert not independent(zero, zero)


def test_mismatched_vectors_rejected():
    d1, _ = periodic_domains(2)
    e1, _ = periodic_domains(3)
    with pytest.raises(ValueError):
        independent(d1, e1)


@pytest.mark.parametrize("n", range(2, 9))
def test_domain_support_properties(n):
    d1, d2 = periodic_domains(n)
    assert all(c >= 1 for name, c in d1.items() if name != "Q0")
    c1, c2 = dict(d1.items()), dict(d2.items())
    for i in range(1, 2 * n - 2):
        assert c1[f"P{i}"] == i + 1 == c1[f"R{i}"]
        step = (1 + (-1) ** i) // 2
        assert c2[f"P{i}"] == step
        assert c2[f"R{i}"] == -step
    # a*D1 + b*D2 vanishing on the Q regions forces a = b = 0
    rng = random.Random(n)
    for _ in range(50):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) == (0, 0):
            continue
        q_part = [a * c1[f"Q{k}"] + b * c2[f"Q{k}"] for k in range(6)]
        assert any(q_part)


def test_region_vector_validation():
    with pytest.raises(ValueError):
        RegionVector.from_dict(2, {"Q0": 1})
    with pytest.raises(ValueError):
        RegionVector.from_dict(2, {"Q9": 1})
    with pytest.raises(ValueError):
        RegionVector(2, (0, 1))
