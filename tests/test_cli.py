import functools
import hashlib
import json

import pytest

from conjucyclic import cli, enumerate_divisors, factor_x2n_minus_1, tower_for_q

# sha256 of the concatenated stdout of `code` and `dual`, text then JSON,
# over every --exps divisor of these (q, n) families in enumeration order;
# pins the CLI bytes, including the largest cyclic subcode basis.
CLI_FAMILIES = ((2, 5), (3, 4), (4, 3), (5, 3), (8, 2), (9, 2))
CLI_DIGEST = "d07cdf34aa49e25a554e3e563e55a712d999c8f776dedf9c3519e1b7dd7fd1a3"

# sha256 of the concatenated stdout of `factor`, text then JSON, for every
# n <= 12 over these q whose x^(2n) - 1 splits over GF(q^s) with at most
# 2^18 elements, in (q, n) order; pins the factor lists and their order.
FACTOR_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 256, 512)
FACTOR_DIGEST = "5bae363bd4a43a842280ca9de7aed6d6a7204d1c1ee665bdcda0881878ee6354"

# sha256 of the exit code and JSON stdout (elapsedMs removed) of `weights`
# and `quantum` over every --exps divisor of these (q, n) families in
# enumeration order; pins the distributions and the stabilizer parameters.
WEIGHTS_FAMILIES = ((2, 5), (3, 4), (4, 3), (5, 3))
WEIGHTS_DIGEST = "bd6585e02a6a0de8ca4bcde192279ec5d5fce3fd77c8f542b2ddee10ee64c31b"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_factor_text(capsys):
    code, out, _ = run(capsys, "factor", "--q", "3", "--n", "11")
    assert code == 0
    assert "n0=22 ell=0" in out
    assert "divisors of x^22 - 1: 64" in out
    assert out.count("factor ") == 6


def test_factor_json_round_trip(capsys):
    code, blob, _ = run_json(capsys, "factor", "--q", "4", "--n", "11")
    assert code == 0
    assert blob["divisorCount"] == 27
    assert blob["multiplicity"] == 2
    assert len(blob["factors"]) == 3
    # deterministic emission: same bytes on a second run
    _, out1, _ = run(capsys, "factor", "--q", "4", "--n", "11", "--format", "json")
    _, out2, _ = run(capsys, "factor", "--q", "4", "--n", "11", "--format", "json")
    assert out1 == out2
    assert json.loads(json.dumps(blob, sort_keys=True)) == blob


def test_code_json_matches_reference(capsys, f9, ternary_code):
    g = ",".join(str(c) for c in ternary_code.g)
    code, blob, _ = run_json(capsys, "code", "--q", "3", "--n", "11", "--g", g)
    assert code == 0
    assert blob["genMatrix"] == [list(r) for r in ternary_code.gen_matrix]
    assert blob["dualMatrix"] == [
        list(r) for r in ternary_code.alternating_dual_matrix()
    ]


def test_exponent_and_coefficient_forms_agree(capsys):
    # canonical factors of x^4-1 over GF(3): x+1, x+2, x^2+1
    code1, blob1, _ = run_json(capsys, "code", "--q", "3", "--n", "2", "--exps", "1,1,0")
    code2, blob2, _ = run_json(capsys, "code", "--q", "3", "--n", "2", "--g", "2,0,1")
    assert code1 == code2 == 0
    assert blob1 == blob2


def test_weights_command(capsys):
    code, blob, _ = run_json(
        capsys, "weights", "--q", "3", "--n", "2", "--g", "1,1", "--workers", "2"
    )
    assert code == 0
    assert blob["card"] == "3^3"
    assert sum(blob["counts"]) == 27
    assert "elapsedMs" in blob


def test_dual_command(capsys):
    code, blob, _ = run_json(capsys, "dual", "--q", "4", "--n", "2", "--g", "1,1")
    assert code == 0
    assert blob["dualContaining"] is True
    assert len(blob["dualMatrix"]) == 1


def test_quantum_command(capsys):
    code, blob, _ = run_json(capsys, "quantum", "--q", "3", "--n", "2", "--g", "1")
    assert code == 0
    assert blob["stabilizer"] == {
        "n": 2,
        "kLogical": 2,
        "dLower": 1,
        "q": 3,
        "pure": True,
    }


def test_quantum_text_reports_impurity(capsys):
    # every weight-3 codeword of this [[9,1,3]]_4 code lies in the stabilizer
    code, out, _ = run(capsys, "quantum", "--q", "4", "--n", "9", "--g", "1,0,7,0,0,0,6,0,1")
    assert code == 0
    assert "stabilizer code: [[9,1,3]]_4 (impure)" in out
    code, blob, _ = run_json(capsys, "quantum", "--q", "4", "--n", "9", "--g", "1,0,7,0,0,0,6,0,1")
    assert blob["stabilizer"]["pure"] is False


def test_zero_code_report(capsys):
    code, blob, _ = run_json(capsys, "code", "--q", "3", "--n", "2", "--g", "2,0,0,0,1")
    assert code == 0
    assert blob["genMatrix"] == []
    assert len(blob["dualMatrix"]) == 4


def test_exit_codes(capsys):
    # not a prime power
    code, _, err = run(capsys, "factor", "--q", "6", "--n", "2")
    assert code == cli.EXIT_DOMAIN_ERROR and "prime" in err
    # not a divisor
    code, _, err = run(capsys, "code", "--q", "3", "--n", "2", "--g", "1,1,1")
    assert code == cli.EXIT_NOT_A_DIVISOR
    # wrong exponent count
    code, _, err = run(capsys, "code", "--q", "3", "--n", "2", "--exps", "1,1")
    assert code == cli.EXIT_NOT_A_DIVISOR
    # budget
    code, _, err = run(
        capsys, "weights", "--q", "3", "--n", "2", "--g", "1,1", "--budget", "2"
    )
    assert code == cli.EXIT_BUDGET_EXCEEDED
    # not dual-containing
    code, _, err = run(capsys, "quantum", "--q", "3", "--n", "2", "--g", "2,0,0,0,1")
    assert code == cli.EXIT_NOT_DUAL_CONTAINING
    # coefficient code out of range for the field
    code, _, err = run(capsys, "code", "--q", "3", "--n", "2", "--g", "99,1")
    assert code == cli.EXIT_DOMAIN_ERROR and "out of range" in err
    # n must be positive
    code, _, err = run(capsys, "factor", "--q", "3", "--n", "0")
    assert code == cli.EXIT_DOMAIN_ERROR


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["factor", "--q", "3"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])


def test_verify_budget_failure_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "100")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAIL" in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0, out
    lines = [l for l in out.splitlines() if l.startswith(("ok", "FAIL"))]
    assert len(lines) == 12
    assert all(l.startswith("ok") for l in lines)
    assert "all checks passed" in out


def test_code_and_dual_output_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    runs = 0
    for q, n in CLI_FAMILIES:
        fac = factor_x2n_minus_1(tower_for_q(q), n)
        for exps, _ in enumerate_divisors(fac):
            flag = ",".join(str(e) for e in exps)
            for command in ("code", "dual"):
                for fmt in ("text", "json"):
                    code, out, _ = run(
                        capsys, command, "--q", str(q), "--n", str(n),
                        "--exps", flag, "--format", fmt,
                    )
                    assert code == 0
                    digest.update(out.encode())
                    runs += 1
    assert runs == 420
    assert digest.hexdigest() == CLI_DIGEST


def splitting_field_size(q, n):
    """|GF(q^s)| with s = ord_{n0}(q), n0 the part of 2n prime to q."""
    p = min(r for r in range(2, q + 1) if q % r == 0)
    n0 = 2 * n
    while n0 % p == 0:
        n0 //= p
    s, acc = 1, q % n0
    while n0 > 1 and acc != 1:
        acc = acc * q % n0
        s += 1
    return q ** s


def test_factor_output_bytes_are_pinned(capsys, monkeypatch):
    # build_tower searches for the primitive modulus again on every call
    # when GF(q^2) is not in the Conway table (about 1 s at q = 512), so the
    # CLI here gets each tower once
    monkeypatch.setattr(cli, "tower_for_q", functools.lru_cache(maxsize=None)(tower_for_q))
    digest = hashlib.sha256()
    pairs = [
        (q, n)
        for q in FACTOR_QS
        for n in range(1, 13)
        if splitting_field_size(q, n) <= 1 << 18
    ]
    assert len(pairs) == 162
    for q, n in pairs:
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "factor", "--q", str(q), "--n", str(n), "--format", fmt)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == FACTOR_DIGEST


def test_weights_and_quantum_output_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    runs = 0
    for q, n in WEIGHTS_FAMILIES:
        fac = factor_x2n_minus_1(tower_for_q(q), n)
        for exps, _ in enumerate_divisors(fac):
            flag = ",".join(str(e) for e in exps)
            for command in ("weights", "quantum"):
                code, out, _ = run(
                    capsys, command, "--q", str(q), "--n", str(n),
                    "--exps", flag, "--format", "json",
                )
                digest.update(f"{code}\n".encode())
                if out:
                    blob = json.loads(out)
                    del blob["elapsedMs"]
                    digest.update(json.dumps(blob, sort_keys=True).encode())
                runs += 1
    assert runs == 168
    assert digest.hexdigest() == WEIGHTS_DIGEST
