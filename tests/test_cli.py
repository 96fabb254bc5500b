import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import conjucyclic
from conjucyclic import (
    build_tower,
    cli,
    enumerate_divisors,
    factor_x2n_minus_1,
    tower_for_q,
    weights,
)

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
WEIGHTS_DIGEST = "c8646eb0233d24d1084af27ed28dffd825cfd390763ada84236b515a2970e8da"

# the same for `weights` alone over larger odd-p families, where both
# length-n factors of the odd-p product sweep are mostly nonzero
WEIGHTS_ODD_FAMILIES = ((3, 7), (5, 6), (7, 4), (9, 4))
WEIGHTS_ODD_DIGEST = "2b5e9abaa34ac58058981b9fb366e1e0477cbbbb32b62019d17a5ef4e583b24b"

# the same for `weights` alone over larger p = 2 families, whose sides are
# swept from the shifts of the mirror generator with one pivot at position n
WEIGHTS_EVEN_FAMILIES = ((2, 9), (2, 15), (4, 5), (4, 7), (16, 5))
WEIGHTS_EVEN_DIGEST = "38b0cfe4a967e4f156c35c0602bf15e4e7332a6b6bccf77cc9a5d08b2afb514f"


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
        "d": 1,
        "dLower": 1,
        "q": 3,
        "pure": True,
    }


def test_quantum_text_reports_impurity(capsys):
    # every weight-3 codeword of this code lies in the stabilizer, so its
    # distance 4 exceeds its minimum weight 3
    code, out, _ = run(capsys, "quantum", "--q", "4", "--n", "9", "--g", "1,0,7,0,0,0,6,0,1")
    assert code == 0
    assert "stabilizer code: [[9,1,4]]_4 (impure)" in out
    code, blob, _ = run_json(capsys, "quantum", "--q", "4", "--n", "9", "--g", "1,0,7,0,0,0,6,0,1")
    assert blob["stabilizer"]["pure"] is False


def test_quantum_answers_past_the_exhaustive_budget(capsys, monkeypatch):
    # both codes' smaller sides, 2^39 and 2^62 words, exceed the default
    # budget, so the exhaustive route exits 4 on them; the length-n split
    # answers both, the (2, 63) one impure with its certificate closed
    # (no exhaustive fallback), within 5 s
    def refused(code, **kwargs):
        raise AssertionError("the exhaustive route ran")

    monkeypatch.setattr(weights, "weight_distribution", refused)
    for n, exps, expected in (
        (45, "1,0,1,0,1,1,0,2", {"kLogical": 6, "d": 3, "dLower": 3, "pure": True}),
        (63, "0,1,2,0,0,1,1,2,2,0,0,2,1", {"kLogical": 1, "d": 7, "dLower": 6, "pure": False}),
    ):
        start = time.perf_counter()
        code, blob, _ = run_json(capsys, "quantum", "--q", "2", "--n", str(n), "--exps", exps)
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert blob["stabilizer"] == {"n": n, "q": 2, **expected}
        assert 2 ** (len(blob["g"]) - 1) > weights.DEFAULT_BUDGET
    code, out, _ = run(capsys, "quantum", "--q", "2", "--n", "45", "--exps", "1,0,1,0,1,1,0,2")
    assert "stabilizer code: [[45,6,3]]_2 (pure)" in out


def test_zero_code_report(capsys):
    code, blob, _ = run_json(capsys, "code", "--q", "3", "--n", "2", "--g", "2,0,0,0,1")
    assert code == 0
    assert blob["genMatrix"] == []
    assert len(blob["dualMatrix"]) == 4


def test_exit_codes(capsys):
    # not a prime power
    for q in ("1", "6"):
        code, _, err = run(capsys, "factor", "--q", q, "--n", "2")
        assert code == cli.EXIT_DOMAIN_ERROR and "not a prime power" in err
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


def test_field_above_the_cap_fails_fast(capsys):
    # 2^61 - 1 is prime: trial division would run for minutes, the size check is instant
    start = time.perf_counter()
    code, _, err = run(capsys, "factor", "--q", str(2**61 - 1), "--n", "1")
    assert code == cli.EXIT_DOMAIN_ERROR and "table cap" in err
    assert time.perf_counter() - start < 1.0


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["factor", "--q", "3"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])
    # an empty token is not dropped: 1,,1 is not the g = 1 + x of 1,1
    capsys.readouterr()
    for flag in ("--g", "--exps"):
        for value in ("1,,1", ",1", "1,", ""):
            with pytest.raises(SystemExit) as exc:
                cli.main(["code", "--q", "3", "--n", "1", flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: expected comma-separated integers" in err
            assert "_int_list" not in err


def test_workers_below_one_exits_2(capsys):
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["weights", "--q", "4", "--n", "11", "--exps", "0,2,0", "--workers", value])
        assert exc.value.code == 2
        assert "argument --workers: expected an integer >= 1" in capsys.readouterr().err


def test_budget_below_one_exits_2(capsys):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["weights", "--q", "2", "--n", "3", "--exps", "0,0", "--budget", value])
        assert exc.value.code == 2
        assert "argument --budget: expected an integer >= 1" in capsys.readouterr().err


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


def test_factor_output_bytes_are_pinned(capsys):
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


def weights_digest(capsys, families):
    """(runs, sha256) over the exit code and JSON stdout, elapsedMs removed,
    of `weights` on every --exps divisor of the families."""
    digest = hashlib.sha256()
    runs = 0
    for q, n in families:
        fac = factor_x2n_minus_1(tower_for_q(q), n)
        for exps, _ in enumerate_divisors(fac):
            flag = ",".join(str(e) for e in exps)
            code, out, _ = run(
                capsys, "weights", "--q", str(q), "--n", str(n),
                "--exps", flag, "--format", "json",
            )
            digest.update(f"{code}\n".encode())
            if out:
                blob = json.loads(out)
                del blob["elapsedMs"]
                digest.update(json.dumps(blob, sort_keys=True).encode())
            runs += 1
    return runs, digest.hexdigest()


def test_odd_p_weights_output_bytes_are_pinned(capsys):
    runs, digest = weights_digest(capsys, WEIGHTS_ODD_FAMILIES)
    assert runs == 560
    assert digest == WEIGHTS_ODD_DIGEST


def test_p2_weights_output_bytes_are_pinned(capsys):
    runs, digest = weights_digest(capsys, WEIGHTS_EVEN_FAMILIES)
    assert runs == 567
    assert digest == WEIGHTS_EVEN_DIGEST


def test_environment_cannot_change_the_canonical_tower(capsys, monkeypatch, tmp_path):
    def outputs():
        out = []
        for q in (3, 25):
            _, blob, _ = run_json(capsys, "factor", "--q", str(q), "--n", "2")
            exps = ",".join(["1"] + ["0"] * (len(blob["factors"]) - 1))
            for argv in (("factor",), ("code", "--exps", exps)):
                code, text, _ = run(
                    capsys, *argv, "--q", str(q), "--n", "2", "--format", "json"
                )
                assert code == 0
                out.append(text)
        return out

    canonical = outputs()
    # other primitive moduli of GF(9) and GF(625), once read from this variable
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"9": [2, 1, 1], "625": [2, 0, 2, 4, 1]}))
    monkeypatch.setenv("CONJUCYCLIC_CONWAY_TABLE", str(path))
    build_tower.cache_clear()
    assert outputs() == canonical


# factor, code and dual at q <= 512 build their towers in pure Python,
# factor at any q builds no GF(q^2) table, quantum at odd p answers without
# a sweep, a side that shortens to no row lifts [1, 0, ..., 0] without one
# (the 3-word dual of the GF(3) code, the 4-word code of n = 1, the zero
# code, and the zero length-15 codes that quantum sweeps for the full
# space), and numpy's import waits for the first weight sweep with a row
# to pack
STARTUP_SCRIPT = """
import contextlib, io, sys
from conjucyclic import cli
assert "numpy" not in sys.modules, "after import"
with contextlib.redirect_stdout(io.StringIO()):
    for q in (3, 4, 512):
        g = f"{q % 2 + 1},1"  # x - 1
        for argv in (["factor"], ["code", "--g", g], ["dual", "--g", g]):
            assert cli.main(argv + ["--q", str(q), "--n", "3"]) == 0, argv
    for q in (1024, 4096):
        assert cli.main(["factor", "--q", str(q), "--n", "3"]) == 0, q
    for argv in (
        ["quantum", "--q", "3", "--n", "3", "--g", "2,1"],
        ["weights", "--q", "3", "--n", "3", "--g", "2,1"],
        ["weights", "--q", "2", "--n", "1", "--g", "1"],
        ["weights", "--q", "4", "--n", "5", "--exps", "2,2,2"],
        ["quantum", "--q", "2", "--n", "15", "--exps", "0,0,0,0,0"],
    ):
        assert cli.main(argv + ["--format", "json"]) == 0, argv
    assert "numpy" not in sys.modules, "after construction and trivial sides"
    assert cli.main(["weights", "--q", "2", "--n", "3", "--g", "1,0,0,1"]) == 0
assert "numpy" in sys.modules, "after weights"
"""


def test_numpy_loads_with_the_first_sweep():
    src = os.path.dirname(os.path.dirname(conjucyclic.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


# `factor --q 4096 --n 1` at the 2^24 cap: its sha256 and its peak RSS,
# read as the ru_maxrss (kilobytes on Linux) of a grandchild, so that no
# other child of the test process counts
CAP_FACTOR_DIGEST = "9ae6c4475de3a1f12484a66b52a7547f54427cdd6b6ebebdee692ae008f29972"
CAP_FACTOR_SCRIPT = """
import resource, subprocess, sys
argv = [sys.executable, "-m", "conjucyclic.cli", "factor", "--q", "4096", "--n", "1"]
sys.stdout.buffer.write(subprocess.run(argv, capture_output=True, check=True).stdout)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
"""


def test_factor_at_the_cap_builds_no_gf_q2_table():
    src = os.path.dirname(os.path.dirname(conjucyclic.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", CAP_FACTOR_SCRIPT], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == CAP_FACTOR_DIGEST
    assert int(done.stderr) < 100 * 1024
