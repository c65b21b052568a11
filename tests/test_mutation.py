"""The exchange step and the seed mutation that completes it, against the reference
copies in `oracles` of their plainer earlier form: the same edge, field by field,
and the same mutated seed at every step of seeded random walks."""
import random

import pytest

from clustermod.cartan import cartan_type
from clustermod.engine import Seed
from clustermod.errors import ConfigurationError
from clustermod.quivers import IceQuiver, Vertex, build_gamma_l, build_qcheck

from oracles import oracle_exchange_step, oracle_mutate_with_edge, orientations

# Gamma_2 of D4 is of infinite cluster type, and its F-polynomials grow fast along a
# walk: past about 25 steps a walk can reach thousands of terms.
WALK_STEPS, GRID_WALK_STEPS = 40, 20


def _shared_generator_a2() -> IceQuiver:
    """A2 with frozen vertices 3 and 3', which would both be named f_3: arrows
    1 -> 2, 3 -> 1, 1 -> 3' and 2 -> 3'."""
    v1, v2, v3, v3p = Vertex(1), Vertex(2), Vertex(3), Vertex(3, primed=True)
    return IceQuiver.from_arrows([v1, v2, v3, v3p], [v3, v3p],
                                 [(v1, v2), (v3, v1), (v1, v3p), (v2, v3p)])


def _frozen_plain_a2() -> IceQuiver:
    """A2 with the plain frozen vertex 3, which no quiver constructor builds: arrows
    1 -> 2, 3 -> 1 and 2 -> 3."""
    v1, v2, v3 = Vertex(1), Vertex(2), Vertex(3)
    return IceQuiver.from_arrows([v1, v2, v3], [v3], [(v1, v2), (v3, v1), (v2, v3)])


def _scopes():
    out = [(f"{name}-{','.join(map(str, xi.values()))}", build_qcheck(cartan_type(name), xi),
            WALK_STEPS)
           for name in ("A3", "A4", "D4") for xi in orientations(cartan_type(name))]
    e6 = cartan_type("E6")
    out.append(("E6-5", build_qcheck(e6, orientations(e6)[5]), WALK_STEPS))
    for name in ("A3", "D4"):
        cartan = cartan_type(name)
        for t in (0, -1):
            out.append((f"gamma2-{name}-{t}", build_gamma_l(cartan, orientations(cartan)[t], 2),
                        GRID_WALK_STEPS))
    out.append(("frozen-plain-A2", _frozen_plain_a2(), WALK_STEPS))
    return out


SCOPES = _scopes()


def _fields(obj) -> list:
    """Every field of `obj` with its value, in order (the compare=False ones too)."""
    return list(vars(obj).items())


@pytest.mark.parametrize("quiver,steps", [s[1:] for s in SCOPES], ids=[s[0] for s in SCOPES])
def test_mutation_matches_the_reference_along_random_walks(quiver, steps):
    # separate contexts, so each walk fills in its own F-polynomial table
    seed, want = Seed.initial(quiver), Seed.initial(quiver)
    vertices = seed.ctx.mutables
    rng = random.Random(len(quiver.vertices))
    for _ in range(steps):
        v = vertices[rng.randrange(len(vertices))]
        edge, want_edge = seed.exchange_step(v), oracle_exchange_step(want, v)
        # the terms with their factor order, then the canonical relation built on them
        assert _fields(edge.m_term) == _fields(want_edge.m_term)
        assert _fields(edge.mp_term) == _fields(want_edge.mp_term)
        assert _fields(edge) == _fields(want_edge)
        assert edge.relation == want_edge.relation
        seed, want = seed.mutate_with_edge(edge), oracle_mutate_with_edge(want, want_edge)
        assert _fields(seed.quiver) == _fields(want.quiver)
        assert _fields(seed) == _fields(want)


def test_labels_that_would_name_one_variable_twice_are_rejected():
    with pytest.raises(ConfigurationError) as err:
        Seed.initial(_shared_generator_a2())
    assert str(err.value) == "vertices 3 and 3' both name the variable f[3]"
    v1, v1p = Vertex(1), Vertex(1, primed=True)
    with pytest.raises(ConfigurationError) as err:
        Seed.initial(IceQuiver.from_arrows([v1, v1p], [], [(v1, v1p)]))
    assert str(err.value) == "vertices 1 and 1' both name the variable x[1]"
