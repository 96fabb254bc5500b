"""Known-answer vectors for the canonical field constructions.

These are the frozen reference values that the `verify` CLI command and the
regression suite check against: the GF(9) trace-pair table, two fully worked
length-11 codes (ternary mirror over GF(9), quaternary mirror over GF(16))
with their generator and dual matrices, and a small GF(9) length-3 code with
its complete codeword listing.

Elements are written as display tokens: "0" and small integers are literal
codes in the prime subfield, "b<k>" is beta^k for the tower's primitive
element beta, and "w"/"w2" are the subfield generator beta^(q+1) and its
square (the canonical primitive element of GF(q) inside the tower).
"""

from __future__ import annotations


def decode(tower, token: str) -> int:
    token = token.strip()
    if token == "w":
        return tower.power(tower.q + 1)
    if token == "w2":
        return tower.power(2 * (tower.q + 1))
    return tower.parse_element(token)


def decode_vector(tower, text: str) -> tuple:
    return tuple(decode(tower, tok) for tok in text.split())


def decode_matrix(tower, lines) -> list:
    return [decode_vector(tower, line) for line in lines]


# --- GF(9): the trace-pair bijection ---------------------------------------

F9_TRACE_PAIR_TABLE = {
    "0": (0, 0),
    "1": (1, 1),
    "b1": (0, 1),
    "b2": (1, 2),
    "b3": (1, 0),
    "b4": (2, 2),
    "b5": (0, 2),
    "b6": (2, 1),
    "b7": (2, 0),
}

# alpha = A * first - B * second
F9_INVERSION_CONSTANTS = ("b3", "b5")


# --- GF(9), length 3: fully listed code -------------------------------------

F9_N3_GENERATORS = ["2 1 0", "0 2 1", "b2 b6 b2"]

F9_N3_CODEWORDS = [
    "0 0 0", "b1 b3 b1", "b3 b1 b3", "1 2 0", "b2 b5 b1", "b6 b7 b3",
    "0 1 2", "b1 b6 b7", "b3 b2 b5", "2 0 1", "b7 b3 b2", "b5 b1 b6",
    "0 2 1", "b1 b5 b2", "b3 b7 b6", "2 1 0", "b7 b6 b1", "b5 b2 b3",
    "1 0 2", "b2 b3 b7", "b6 b1 b5", "2 2 2", "b7 b5 b7", "b5 b7 b5",
    "1 1 1", "b2 b6 b2", "b6 b2 b6",
]

F9_N3_EXPANDED = [
    "0 0 0 0 0 0", "0 1 0 1 0 1", "1 0 1 0 1 0",
    "0 1 2 0 1 2", "0 2 2 1 1 0", "1 1 0 0 2 2",
    "0 2 1 0 2 1", "0 0 1 1 2 2", "1 2 2 0 0 1",
    "1 0 2 1 0 2", "1 1 2 2 0 0", "2 0 0 1 1 2",
    "1 1 1 1 1 1", "1 2 1 2 1 2", "2 1 2 1 2 1",
    "1 2 0 1 2 0", "1 0 0 2 2 1", "2 2 1 1 0 0",
    "2 0 1 2 0 1", "2 1 1 0 0 2", "0 0 2 2 1 1",
    "2 1 0 2 1 0", "2 2 0 0 1 1", "0 1 1 2 2 0",
    "2 2 2 2 2 2", "2 0 2 0 2 0", "0 2 0 2 0 2",
]

F9_N3_CYCLIC_SUBCODE = [
    "0 0 0", "0 1 2", "0 2 1", "1 0 2", "1 1 1", "1 2 0",
    "2 0 1", "2 1 0", "2 2 2",
]


# --- q = 3, n = 11: ternary mirror over GF(9) --------------------------------

TERNARY_N11 = {
    "q": 3,
    "n": 11,
    "factors": [
        "1 1",
        "2 1",
        "2 2 1 2 0 1",
        "1 2 2 2 0 1",
        "1 0 2 2 2 1",
        "2 0 1 2 1 1",
    ],
    "divisor_count": 64,
    "g": "2 1 2 2 1 2 2 2 1 1 1",
    "h": "1 1 0 1 1 0 2 0 1 2 0 2 1",
    "h_star": "1 2 0 2 1 0 2 0 1 1 0 1 1",
    "tau_h_star": "2 2 0 0 0 0 0 0 0 0 0 1 2 0 2 1 0 2 0 1 1 0",
    "tau_shift9_h_star": "0 1 2 0 1 0 2 2 0 2 2 0 0 0 0 0 0 0 0 0 1 2",
    "gen_matrix": [
        "b7 b3 b7 b7 b3 b7 b7 b7 b3 b3 b3",
        "b1 b7 b3 b7 b7 b3 b7 b7 b7 b3 b3",
        "b1 b1 b7 b3 b7 b7 b3 b7 b7 b7 b3",
        "b1 b1 b1 b7 b3 b7 b7 b3 b7 b7 b7",
        "b5 b1 b1 b1 b7 b3 b7 b7 b3 b7 b7",
        "b5 b5 b1 b1 b1 b7 b3 b7 b7 b3 b7",
        "b5 b5 b5 b1 b1 b1 b7 b3 b7 b7 b3",
        "b1 b5 b5 b5 b1 b1 b1 b7 b3 b7 b7",
        "b5 b1 b5 b5 b5 b1 b1 b1 b7 b3 b7",
        "b5 b5 b1 b5 b5 b5 b1 b1 b1 b7 b3",
        "b1 b5 b5 b1 b5 b5 b5 b1 b1 b1 b7",
        "b5 b1 b5 b5 b1 b5 b5 b5 b1 b1 b1",
    ],
    "dual_matrix": [
        "b6 2 0 b5 b1 0 b5 0 b1 b1 0",
        "0 b6 2 0 b5 b1 0 b5 0 b1 b1",
        "b7 0 b6 2 0 b5 b1 0 b5 0 b1",
        "b7 b7 0 b6 2 0 b5 b1 0 b5 0",
        "0 b7 b7 0 b6 2 0 b5 b1 0 b5",
        "b3 0 b7 b7 0 b6 2 0 b5 b1 0",
        "0 b3 0 b7 b7 0 b6 2 0 b5 b1",
        "b7 0 b3 0 b7 b7 0 b6 2 0 b5",
        "b3 b7 0 b3 0 b7 b7 0 b6 2 0",
        "0 b3 b7 0 b3 0 b7 b7 0 b6 2",
    ],
    "dim": 12,
    "min_weight": 5,
}


# --- q = 4, n = 11: quaternary mirror over GF(16) ----------------------------

QUATERNARY_N11 = {
    "q": 4,
    "n": 11,
    "factors": [
        "1 1",
        "1 w2 1 1 w 1",
        "1 w 1 1 w2 1",
    ],
    "multiplicity": 2,
    "divisor_count": 27,
    "g": "1 0 w 0 1 0 1 0 w2 0 1",
    "h": "1 0 w 0 w 0 0 0 w2 0 w2 0 1",
    "h_star": "1 0 w2 0 w2 0 0 0 w 0 w 0 1",
    "h_eps": "0 1 0 0 0 0 0 0 0 0 0 1 0 w2 0 w2 0 0 0 w 0 w",
    "w_h_eps": "b4 b1 b14 0 b14 0 0 0 b9 0 b9",
    "gen_matrix": [
        "b1 0 b6 0 b1 0 b1 0 b11 0 b1",
        "b4 b1 0 b6 0 b1 0 b1 0 b11 0",
        "0 b4 b1 0 b6 0 b1 0 b1 0 b11",
        "b14 0 b4 b1 0 b6 0 b1 0 b1 0",
        "0 b14 0 b4 b1 0 b6 0 b1 0 b1",
        "b4 0 b14 0 b4 b1 0 b6 0 b1 0",
        "0 b4 0 b14 0 b4 b1 0 b6 0 b1",
        "b4 0 b4 0 b14 0 b4 b1 0 b6 0",
        "0 b4 0 b4 0 b14 0 b4 b1 0 b6",
        "b9 0 b4 0 b4 0 b14 0 b4 b1 0",
        "0 b9 0 b4 0 b4 0 b14 0 b4 b1",
        "b4 0 b9 0 b4 0 b4 0 b14 0 b4",
    ],
    "dual_matrix": [
        "b4 b1 b14 0 b14 0 0 0 b9 0 b9",
        "b6 b4 b1 b14 0 b14 0 0 0 b9 0",
        "0 b6 b4 b1 b14 0 b14 0 0 0 b9",
        "b6 0 b6 b4 b1 b14 0 b14 0 0 0",
        "0 b6 0 b6 b4 b1 b14 0 b14 0 0",
        "0 0 b6 0 b6 b4 b1 b14 0 b14 0",
        "0 0 0 b6 0 b6 b4 b1 b14 0 b14",
        "b11 0 0 0 b6 0 b6 b4 b1 b14 0",
        "0 b11 0 0 0 b6 0 b6 b4 b1 b14",
        "b11 0 b11 0 0 0 b6 0 b6 b4 b1",
    ],
    "dim": 12,
    "min_weight": 5,
    "weight_distribution": [
        1, 0, 0, 0, 0, 825, 1980, 61875, 391875, 2025375, 6045600, 8249685,
    ],
    "stabilizer": (11, 1, 5, 4),
}
