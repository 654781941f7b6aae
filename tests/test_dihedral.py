"""Group algebra and the exact matrix representation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dface import dihedral
from dface.dihedral import (
    GroupElement,
    axiom_report_csv,
    cayley_csv,
    cayley_table,
    compose,
    element_name,
    elements,
    identity,
    inverse,
    matrix_of,
    parse_element,
    power,
    reflection,
    rotation,
    verify_group_axioms,
)
from dface.errors import DomainError, UnsupportedOrderError


def test_rotation_k_reduced_modulo_n():
    assert GroupElement(4, 0, 7).rotation_k == 3
    assert GroupElement(4, 1, -1).rotation_k == 3
    assert GroupElement(5, 0, 5) == identity(5)


def test_bad_construction_rejected():
    with pytest.raises(DomainError):
        GroupElement(0, 0, 0)
    with pytest.raises(DomainError):
        GroupElement(4, 2, 0)


@pytest.mark.parametrize("fields", [(4, 0, 1.5), (4.0, 0, 1), ("4", 0, 0), (4, 1.0, 0), (4, 0, None)])
def test_group_element_fields_must_be_ints(fields):
    with pytest.raises(DomainError):
        GroupElement(*fields)


def test_compose_rotations_add():
    r = rotation(4)
    assert compose(r, r) == GroupElement(4, 0, 2)


def test_compose_identity_on_all_of_d4():
    e = identity(4)
    for g in elements(4):
        assert compose(e, g) == g
        assert compose(g, e) == g


def test_compose_two_reflections_is_rotation():
    a = GroupElement(4, 1, 2)
    b = GroupElement(4, 1, 3)
    assert compose(a, b) == GroupElement(4, 0, 1)


def test_compose_order_mismatch():
    with pytest.raises(DomainError):
        compose(identity(3), identity(4))


@pytest.mark.parametrize("a, b", [
    (GroupElement(4, 0, 1), "r"),
    ("r", GroupElement(4, 0, 1)),
    (GroupElement(4, 1, 0), (4, 1, 0)),
])
def test_compose_takes_only_group_elements(a, b):
    with pytest.raises(TypeError, match="compose takes two GroupElements"):
        compose(a, b)


def test_inverse_cases():
    assert inverse(identity(4)) == identity(4)
    assert inverse(GroupElement(4, 1, 3)) == GroupElement(4, 1, 3)
    assert inverse(rotation(4)) == GroupElement(4, 0, 3)


def test_inverse_matches_brute_force_search():
    for g in elements(4):
        candidates = [h for h in elements(4) if compose(g, h) == identity(4)]
        assert candidates == [inverse(g)]


def test_power():
    assert power(rotation(4), 4) == identity(4)
    assert power(GroupElement(4, 1, 1), 2) == identity(4)
    for g in elements(4):
        assert power(g, 0) == identity(4)
    assert power(rotation(4), -1) == inverse(rotation(4))
    assert power(rotation(6), 15) == rotation(6, 3)


def test_elements_counts_and_order():
    assert len(elements(4)) == 8
    assert elements(1) == [identity(1), reflection(1)]
    e6 = elements(6)
    assert len(e6) == 12 and len(set(e6)) == 12
    names = [element_name(g) for g in elements(4)]
    assert names == ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]


def test_elements_rejects_bad_order():
    with pytest.raises(DomainError):
        elements(0)


@given(st.integers(1, 16), st.integers(0, 1), st.integers(-40, 40))
def test_name_parse_round_trip(n, j, k):
    g = GroupElement(n, j, k)
    assert parse_element(n, element_name(g)) == g


def test_an_order_or_exponent_too_long_to_print_is_named_by_its_bit_length():
    # repr and element_name each raised the ValueError of printing the int
    assert repr(GroupElement(10**5000, 0, 3)) == "GroupElement(D<int of 16610 bits>, r3)"
    name = element_name(GroupElement(10**5000, 1, 10**4999))
    assert name == "sr<int of 16607 bits>"
    with pytest.raises(DomainError, match="^unknown element name 'sr<int of 16607 bits>'$"):
        parse_element(10**5000, name)


def test_parse_matrix_labels():
    assert parse_element(4, "V") == reflection(4, 0)
    assert parse_element(4, "d1") == GroupElement(4, 1, 1)
    assert parse_element(4, "R3") == rotation(4, 3)
    with pytest.raises(DomainError):
        parse_element(4, "bogus")


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("name", ["r\u00b2", "r\u0663", "sr\u0663", "r1_0", "r+1",
                                  pytest.param("r" + "1" * 5000, id="r-5000-digits")])
def test_an_exponent_is_ascii_decimal_digits(n, name):
    # "r\u0663" (Arabic-Indic three) used to parse as r3, and "r\u00b2"
    # (superscript two) and 5000 digits let int() raise a bare ValueError
    with pytest.raises(DomainError, match="unknown element name"):
        parse_element(n, name)
    assert parse_element(n, "r03") == parse_element(n, " r3 ") == rotation(n, 3)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("name", [5, None, b"e", ("e",)])
def test_parse_element_refuses_a_name_that_is_not_a_str(n, name):
    with pytest.raises(DomainError, match="element name must be a str"):
        parse_element(n, name)


def test_matrix_table_values():
    assert matrix_of(identity(4)).entries == ((1, 0), (0, 1))
    assert matrix_of(rotation(4)).apply((1.0, 0.0)) == (0.0, 1.0)
    assert matrix_of(reflection(4)).entries == ((-1, 0), (0, 1))
    assert matrix_of(GroupElement(4, 1, 1)).label == "D1"
    assert matrix_of(GroupElement(4, 1, 2)).label == "H"
    assert matrix_of(GroupElement(4, 1, 3)).label == "D2"


def test_matrix_only_for_order_four():
    with pytest.raises(UnsupportedOrderError):
        matrix_of(identity(5))


def test_matrix_homomorphism_all_pairs():
    for a in elements(4):
        for b in elements(4):
            product = np.array(matrix_of(a).entries) @ np.array(matrix_of(b).entries)
            assert np.array_equal(product, matrix_of(compose(a, b)).entries)


def test_matrices_distinct_orthogonal_det_parity():
    seen = set()
    for g in elements(4):
        m = matrix_of(g)
        seen.add(m.entries)
        arr = np.array(m.entries)
        assert np.array_equal(arr.T @ arr, np.eye(2, dtype=int))
        assert m.determinant == (-1 if g.reflection_j else 1)
    assert len(seen) == 8


def test_cayley_table_latin_square():
    for n in (1, 2, 4, 5):
        table = cayley_table(n)
        els = elements(n)
        assert table[0] == els  # identity row
        for row in table:
            assert len(set(row)) == 2 * n
        for col in zip(*table):
            assert len(set(col)) == 2 * n


def test_cayley_entry_r_times_s():
    table = cayley_table(4)
    # row r (index 1), column s (index 4)
    assert element_name(table[1][4]) == "sr3"


def test_cayley_csv_shape():
    text = cayley_csv(4)
    rows = text.strip().split("\n")
    assert len(rows) == 8
    assert rows[0] == "e,r,r2,r3,s,sr,sr2,sr3"
    assert all(len(row.split(",")) == 8 for row in rows)


def _details(report) -> dict[str, str]:
    return {c.name: c.detail for c in report.checks}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_axioms_exhaustive_small_orders(n):
    report = verify_group_axioms(n)
    assert report.passed
    assert _details(report)["associativity"] == f"exhaustive over {(2 * n) ** 3} triples"
    assert _details(report)["element_count"] == f"{2 * n} distinct elements"


def test_axioms_sampled_large_order():
    report = verify_group_axioms(12)
    assert report.passed
    assert _details(report)["associativity"] == "sampled over 2000 triples"


def test_defining_identities_up_to_n_twelve():
    for n in range(1, 13):
        e = identity(n)
        assert power(rotation(n), n) == e
        s = reflection(n)
        for k in range(n):
            sk = reflection(n, k)
            assert compose(sk, sk) == e
            assert compose(compose(s, rotation(n, k)), s) == rotation(n, -k)


@given(st.integers(9, 20), st.data())
def test_associativity_sampled_beyond_exhaustive_range(n, data):
    els = elements(n)
    pick = st.sampled_from(els)
    a, b, c = data.draw(pick), data.draw(pick), data.draw(pick)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


# sha256 of cayley_csv(n) and of axiom_report_csv(verify_group_axioms(n)),
# taken from the implementation that composed frozen GroupElements.
GOLDEN_SHA256 = {
    1: ("47df6ec55ca17a1931886152dac4fbd26d23015197d3f9b134114dc0873d7ad3",
        "3c8182f2b2e751489266577824d7f16a90a9c6d0e0e5458c0515410937015d0f"),
    2: ("981bb4689d23c99e7bc3c158ffc1beabebee67c9b3c003d74d8d4adf4f1c81dd",
        "24e1edfeff387005229ab90bd0ca15a35c51654b648a7b75dfbfc8ffbf7de8f2"),
    3: ("4f4ae9172d0cd807416e3fb08552711463a822ef3f06297cf5241261b0f695bc",
        "4e57de06e2ca16c2360be57ef0d825dabaa0ff3cfd22a53c3eec0cd42913cf8c"),
    4: ("733e0b4e90a89bdfa1560bb82fb625097e51c45c8bc643969e5be13953940875",
        "642727751d0d2093fd029128b0af7e6ef9251ea02e130b7004c0359fb2641556"),
    5: ("e1c0877951eb4a41a2e6f5c52c07d97fe7fd9e22de9dad2916d7fcfb445f1ff6",
        "ca3f2ed6679dbd5f878bad0a0ed8690859c106292c0b7941f648e9b6db34a9ad"),
    8: ("85a09fa0115b63eb5ee3d9fce975ee4cc82afce486a87ee7ce3cd3fb8ee1f7e8",
        "3ccb9ca9baf10281c3b35b78fe9fe38d986583f8328c77bd4d5c05f0f8c09687"),
    9: ("af735927a1f585d0c709e18b18dc9453d3ac4177315e2e76e279b05e4a8560eb",
        "6369998715503fde6811a8d4298c44a609113e8ab9c6b409ab2733dcc25760c6"),
    64: ("55eb4d1f216b6586495470faf20e2bff042b780c7485c4b39db24d273b50e021",
         "c50a6437ee9eb236f226059180a8503be7991e191d0d0670851513c4550b15af"),
    128: ("732c00d397584f77b857c8cc8fb0779d08ee6638d221c317b10b0a43dd4b7b2b",
          "f24b24d00f9440122e296ff425985142e8dd7449221af2599f5a3f94c107f395"),
    256: ("8d8dab04031bdd278798dfa524868f237fa6f576e21fa85f5aff889a145f35a1",
          "103dd32614e2ec6c57231deb162844e94a7b00ab5a6e6c56b70efba82ea2678a"),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
def test_cayley_and_verify_bytes_are_pinned(n):
    cayley, verify = GOLDEN_SHA256[n]
    assert hashlib.sha256(cayley_csv(n).encode()).hexdigest() == cayley
    report = axiom_report_csv(verify_group_axioms(n))
    assert hashlib.sha256(report.encode()).hexdigest() == verify


def _vertex_permutation(g):
    """``g`` acting on the vertices 0..n-1 of the regular n-gon:
    ``r^k: v -> v + k`` and ``s r^k: v -> -(v + k)``."""
    n, j, k = g.order_n, g.reflection_j, g.rotation_k
    return tuple((-(v + k) if j else v + k) % n for v in range(n))


@given(st.integers(3, 20), st.integers(0, 1), st.integers(-40, 40), st.integers(0, 1),
       st.integers(-40, 40))
def test_products_act_as_composed_vertex_permutations(n, ja, ka, jb, kb):
    els = elements(n)
    perms = [_vertex_permutation(g) for g in els]
    assert len(set(perms)) == 2 * n  # faithful for n >= 3: equal action means equal element
    table = cayley_table(n)
    for pa, row in zip(perms, table):
        for pb, ab in zip(perms, row):
            assert _vertex_permutation(ab) == tuple(pa[pb[v]] for v in range(n))
    a, b = GroupElement(n, ja, ka), GroupElement(n, jb, kb)
    pa, pb = _vertex_permutation(a), _vertex_permutation(b)
    assert _vertex_permutation(compose(a, b)) == tuple(pa[pb[v]] for v in range(n))
    assert cayley_csv(n) == "".join(",".join(g.name for g in row) + "\n" for row in table)


def _reflections_add(n, a, b):
    (ja, ka), (jb, kb) = a, b
    if jb:
        return ja ^ 1, (kb + ka) % n
    return ja, (ka + kb) % n


def _rotations_subtract(n, a, b):
    (ja, ka), (jb, kb) = a, b
    return ja ^ jb, (kb - ka) % n


def _rotations_unreduced(n, a, b):
    (ja, ka), (jb, kb) = a, b
    if jb:
        return ja ^ 1, kb - ka
    return ja, ka + kb


# axiom_report_csv(verify_group_axioms(n)) of the implementation that composed
# frozen GroupElements, with its compose patched to the same wrong rule; the
# _rotations_unreduced report is that of the one-check-call-per-axiom loop.
WRONG_RULE_REPORTS = {
    (_reflections_add, 5): (
        "check,status,detail\n"
        "element_count,pass,10 distinct elements\n"
        "closure,pass,100 products stay in the group\n"
        "identity,pass,e * g == g * e == g for all elements\n"
        "inverse,fail,4 violations, e.g. (sr);(sr2);(sr3)\n"
        "associativity,pass,exhaustive over 1000 triples\n"
        "rotation_order,pass,r^n == e\n"
        "reflection_involution,fail,4 violations, e.g. (sr);(sr2);(sr3)\n"
        "reflection_conjugation,fail,4 violations, e.g. (s,r,s);(s,r2,s);(s,r3,s)\n"
    ),
    (_reflections_add, 12): (
        "check,status,detail\n"
        "element_count,pass,24 distinct elements\n"
        "closure,pass,576 products stay in the group\n"
        "identity,pass,e * g == g * e == g for all elements\n"
        "inverse,fail,10 violations, e.g. (sr);(sr2);(sr3)\n"
        "associativity,pass,sampled over 2000 triples\n"
        "rotation_order,pass,r^n == e\n"
        "reflection_involution,fail,10 violations, e.g. (sr);(sr2);(sr3)\n"
        "reflection_conjugation,fail,10 violations, e.g. (s,r,s);(s,r2,s);(s,r3,s)\n"
    ),
    (_rotations_subtract, 5): (
        "check,status,detail\n"
        "element_count,pass,10 distinct elements\n"
        "closure,pass,100 products stay in the group\n"
        "identity,fail,8 violations, e.g. (r);(r2);(r3)\n"
        "inverse,fail,4 violations, e.g. (r);(r2);(r3)\n"
        "associativity,fail,800 violations, e.g. (r,e,e);(r,e,r);(r,e,r2)\n"
        "rotation_order,fail,1 violations, e.g. (r)\n"
        "reflection_involution,pass,(s r^k)^2 == e for all k\n"
        "reflection_conjugation,pass,s r^k s == r^(-k) for all k\n"
    ),
    (_rotations_subtract, 12): (
        "check,status,detail\n"
        "element_count,pass,24 distinct elements\n"
        "closure,pass,576 products stay in the group\n"
        "identity,fail,20 violations, e.g. (r);(r2);(r3)\n"
        "inverse,fail,10 violations, e.g. (r);(r2);(r3)\n"
        "associativity,fail,1677 violations, e.g. (r8,sr4,sr3);(r11,sr6,r6);(sr4,r4,r9)\n"
        "rotation_order,pass,r^n == e\n"
        "reflection_involution,pass,(s r^k)^2 == e for all k\n"
        "reflection_conjugation,pass,s r^k s == r^(-k) for all k\n"
    ),
    (_rotations_unreduced, 3): (
        "check,status,detail\n"
        "element_count,pass,6 distinct elements\n"
        "closure,fail,12 violations, e.g. (r,r2);(r,s);(r2,r)\n"
        "identity,pass,e * g == g * e == g for all elements\n"
        "inverse,fail,2 violations, e.g. (r);(r2)\n"
        "associativity,pass,exhaustive over 216 triples\n"
        "rotation_order,pass,r^n == e\n"
        "reflection_involution,pass,(s r^k)^2 == e for all k\n"
        "reflection_conjugation,fail,2 violations, e.g. (s,r,s);(s,r2,s)\n"
    ),
}


@pytest.mark.parametrize(
    "rule, n", list(WRONG_RULE_REPORTS), ids=[f"{r.__name__}-{n}" for r, n in WRONG_RULE_REPORTS]
)
def test_verify_reports_a_wrong_product_rule(monkeypatch, rule, n):
    monkeypatch.setattr(dihedral, "_product", rule)
    report = verify_group_axioms(n)
    assert not report.passed
    assert axiom_report_csv(report) == WRONG_RULE_REPORTS[rule, n]


def test_library_functions_take_orders_beyond_the_cli_cap():
    report = verify_group_axioms(300)
    assert report.passed
    assert _details(report)["element_count"] == "600 distinct elements"
    assert _details(report)["associativity"] == "sampled over 2000 triples"
