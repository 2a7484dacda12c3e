"""Pins of the transported sign structure on small seeded instances.

`SignAssignment.digest()` hashes every event (segment, vertex, edge and
exact time), so any change to how event times are found, ordered or
printed shows here.  The instances cover all four drawing modes,
irrational event times and a target that needs a retried path
(attempts >= 2).  The pins were recorded with the earlier evaluator that
ran Horner's rule by arithmetic in the quadratic field.
"""

import pytest

import kasteleyn as K
from kasteleyn.immersion import detect_mode
from test_transport import colliding_fixture

PINS = {
    "grid 4x4": (lambda: K.generate_grid(4, 4), "d77a56d55decfb46", 1),
    "aztec 3": (lambda: K.generate_aztec(3), "364cb9efe7b4f309", 1),
    "general 8+8 seed 0": (
        lambda: K.generate_random_disc_graph("general", 8, 8, seed=0), "5f72a37258b01a2d", 1
    ),
    "general 8+8 seed 1": (
        lambda: K.generate_random_disc_graph("general", 8, 8, seed=1), "0e95741f66c33576", 1
    ),
    "bipartite 12+4 k=2": (
        lambda: K.generate_random_disc_graph("bipartite", 12, 4, k=2, seed=0),
        "09793be3ac7134f8",
        1,
    ),
    "triangulation 16": (
        lambda: K.generate_triangulation_subgraph(16, seed=0, drop_one_in=8),
        "62266e2a7706f7c6",
        1,
    ),
    "colliding": (colliding_fixture, "2218446fec9d51dc", 2),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_digest_and_attempts_are_pinned(name):
    make, digest, attempts = PINS[name]
    g, c = make()
    result = K.compute_signed_structure(g, detect_mode(g), c, seed=0)
    assert (result.digest(), result.attempts) == (digest, attempts)
