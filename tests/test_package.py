"""The package's public API: what `conjucyclic.__all__` exports."""

import conjucyclic
from conjucyclic import conju, cyclic, errors, field, poly, weights

#: second routes retired from the library; the inner products, the plain
#: cyclic shift, the cyclic generator matrix and the trace dual live on as
#: oracles in tests/naive.py
RETIRED = (
    (field, "PrimeField"),
    (poly, "poly_mul"),
    (poly, "poly_powmod"),
    (poly, "poly_divmod"),
    (poly, "poly_gcd"),
    (poly, "x_pow_minus_one"),
    (poly.ZechLogs, "square"),
    (cyclic, "euclidean_inner"),
    (cyclic, "symplectic_inner"),
    (cyclic.CyclicCode, "euclidean_dual_matrix"),
    (cyclic, "cyclic_shift"),
    (cyclic.CyclicCode, "generator_matrix"),
    (conju, "trace_pair_inv"),
    (weights, "min_weight"),
    (weights, "_shorten"),
    (weights, "_side_counts"),
    (weights, "_short_rows"),
    (weights, "_cyclic_counts"),
    (conju.ConjucyclicCode, "trace_dual_matrix"),
    (errors, "ZeroCodeError"),
)


def test_exported_names_resolve_and_retired_ones_are_gone():
    assert len(set(conjucyclic.__all__)) == len(conjucyclic.__all__)
    for name in conjucyclic.__all__:
        assert hasattr(conjucyclic, name), name
    for owner, name in RETIRED:
        assert name not in conjucyclic.__all__, name
        assert not hasattr(conjucyclic, name), name
        assert not hasattr(owner, name), name
