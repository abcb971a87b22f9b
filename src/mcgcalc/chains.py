"""Stepwise image tables for the twist factorizations of the pillar switchings.

For each factorization case and each starting loop, the table lists the
image after every single twist of ``pillar_switching_twist_word`` is
applied, rightmost twist first. Words use the z<k> abbreviation,
expanded by the replay verifier over the xy basis.

Placeholders: case 2 is indexed by the middle pillar position i
(2 <= i <= g-1, giving sigma_{i-1}), with ``{im1}``/``{ip1}`` standing
for i-1/i+1; case 3 uses ``{g}``/``{gm1}`` for g/g-1.
"""

# sigma_0 = a2^-1 (w1 a1 b1)^2:
CASE_1_CHAINS = {
    "x1": [
        "x1 y1",
        "x1 y1 x1^-1",
        "z1^-1 y2 x2 y2^-1 y1 x1^-1 z1",
        "z1^-1 y1 y2 x2 y2^-1 x1^-1 y1^-1 z1",
        "z1^-1 y1 z1 y1^-1 z1",
        "z1^-1 y1 z1 y1^-1 z1",
        "z1^-1 y1 z1 y1^-1 z1",
    ],
    "y1": [
        "y1",
        "y1 x1^-1",
        "y1 z1 y2 x2^-1 y2^-1 z1",
        "z1 y2 x2^-1 y2^-1 y1^-1 z1",
        "y1^-1 z1",
        "z1^-1 y1^-1 z1",
        "z1^-1 y1^-1 z1",
    ],
    "y2": [
        "y2",
        "y2",
        "z1^-1 y2",
        "z1^-1 y1 y2",
        "z1^-1 y1 x1^-1 y2",
        "z1^-1 y1 z1 y2 x2^-1",
        "z1^-1 y1 z1 y2",
    ],
    "z1": [
        "y1^-1 z1",
        "x1 y1^-1 z1",
        "z1^-1 y2 x2 y2^-1 z1^-1 y1^-1 z1",
        "z1^-1 y1 y2 x2 y2^-1 z1^-1 y1^-1 z1",
        "z1^-1 y1 x1^-1 y2 x2 y2^-1 z1^-1 x1 y1^-1 z1",
        "z1^-1 y1 y2 x2 y2^-1 z1^-1 y1^-1 z1",
        "z1^-1 y1 x1 y1^-1 z1",
    ],
}

# sigma_{i-1} = a_{i+1}^-1 a_i b_i w_i w_{i-1} a_{i-1}^-1 b_i a_i:
CASE_2_CHAINS = {
    "x{im1}": [
        "x{im1}",
        "x{im1}",
        "x{im1}",
        "z{im1}^-1 y{i} x{i} y{i}^-1",
        "z{im1}^-1 y{i} y{ip1} x{ip1} y{ip1}^-1 z{i}^-1 y{i}^-1",
        "y{i}^-1 z{im1}^-1 y{i} y{ip1} x{ip1} y{ip1}^-1 z{i}^-1",
        "y{i}^-1 x{im1} y{i}",
        "y{i}^-1 x{im1} y{i}",
    ],
    "x{i}": [
        "x{i}",
        "x{i} y{i}",
        "x{i} y{i}",
        "x{i} z{im1}^-1 y{i}",
        "z{i}^-1 y{ip1} x{ip1} y{ip1}^-1 z{im1}^-1 y{i} z{i}",
        "z{i}^-1 y{i} y{ip1} x{ip1} y{ip1}^-1 y{i}^-1 z{im1}^-1 z{i}",
        "z{i}^-1 y{i} z{i} y{i}^-1 x{im1} z{i}",
        "z{i}^-1 y{i} z{i} y{i}^-1 x{im1} z{i}",
    ],
    "y{im1}": [
        "y{im1}",
        "y{im1}",
        "y{im1} x{im1}",
        "y{im1} y{i} x{i} y{i}^-1",
        "y{im1} y{i} y{ip1} x{ip1} y{ip1}^-1 z{i}^-1 y{i}^-1",
        "y{im1} y{i} y{ip1} x{ip1} y{ip1}^-1 z{i}^-1",
        "y{im1} y{i}",
        "y{im1} y{i}",
    ],
    "y{i}": [
        "y{i} x{i}^-1",
        "x{i}^-1",
        "x{i}^-1",
        "x{i}^-1",
        "y{ip1} x{ip1}^-1 y{ip1}^-1 z{i}",
        "y{ip1} x{ip1}^-1 y{ip1}^-1 y{i}^-1 z{i}",
        "z{i}^-1 y{i}^-1 z{i}",
        "z{i}^-1 y{i}^-1 z{i}",
    ],
    "y{ip1}": [
        "y{ip1}",
        "y{ip1}",
        "y{ip1}",
        "y{ip1}",
        "z{i}^-1 y{ip1}",
        "z{i}^-1 y{i} y{ip1}",
        "z{i}^-1 y{i} x{i}^-1 y{ip1}",
        "z{i}^-1 y{i} z{i} y{ip1}",
    ],
    "z{im1}": [
        "z{im1}",
        "z{im1} y{i}",
        "z{im1} y{i}",
        "y{i}",
        "y{i} z{i}",
        "z{i}",
        "z{i}",
        "z{i}",
    ],
    "z{i}": [
        "z{i}",
        "y{i}^-1 z{i}",
        "y{i}^-1 z{i}",
        "y{i}^-1 z{im1} z{i}",
        "z{i}^-1 y{i}^-1 z{im1} z{i}",
        "z{i}^-1 z{im1} z{i}",
        "z{i}^-1 z{im1} z{i}",
        "z{i}^-1 z{im1} z{i}",
    ],
}

# sigma_{g-1} = (w_{g-1} a_g b_g)^2 a_{g-1}^-1:
CASE_3_CHAINS = {
    "x{gm1}": [
        "x{gm1}",
        "x{gm1}",
        "x{gm1}",
        "z{gm1}^-1 y{g} x{g} y{g}^-1",
        "y{g}^-1 z{gm1}^-1 y{g} x{g}",
        "y{g}^-1 x{gm1} y{g}",
        "y{g}^-1 x{gm1} y{g}",
    ],
    "x{g}": [
        "x{g}",
        "x{g} y{g}",
        "x{g} y{g} x{g}^-1",
        "x{g} z{gm1}^-1 y{g} x{g}^-1",
        "x{g} z{gm1}^-1 x{g}^-1",
        "x{g} z{gm1}^-1 x{g}^-1",
        "x{g} z{gm1}^-1 x{g}^-1",
    ],
    "y{gm1}": [
        "y{gm1} x{gm1}",
        "y{gm1} x{gm1}",
        "y{gm1} x{gm1}",
        "y{gm1} y{g} x{g} y{g}^-1",
        "y{gm1} y{g} x{g}",
        "y{gm1} y{g}",
        "y{gm1} y{g}",
    ],
    "y{g}": [
        "y{g}",
        "y{g}",
        "y{g} x{g}^-1",
        "z{gm1}^-1 y{g} x{g}^-1",
        "y{g}^-1 z{gm1}^-1 x{g}^-1",
        "x{g} y{g}^-1 z{gm1}^-1 x{g}^-1",
        "x{g} y{g}^-1 x{g}^-1",
    ],
    "z{gm1}": [
        "z{gm1}",
        "z{gm1} y{g}",
        "z{gm1} y{g} x{g}^-1",
        "y{g} x{g}^-1",
        "x{g}^-1",
        "x{g}^-1",
        "x{g}^-1",
    ],
}
