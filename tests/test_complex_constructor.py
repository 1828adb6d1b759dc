"""The position-based complex constructor against the label-based reference.

Every attribute of a :class:`SimplicialComplex` fixes a basis order, a
boundary sign or a line of a written file downstream, so the constructor
must give exactly what :func:`reference_complex.reference_complex` gives:
the same vertices, simplices, degree-wise order, maximal faces in order,
equality, hash and written text.
"""

import random
from itertools import combinations

import pytest

from cohodist.complexes import barycentric_subdivision, from_maximal_faces, product
from cohodist.errors import CohodistError, UnsupportedLabelError
from cohodist.fileio import complex_to_text
from cohodist.fixtures import fixture_complex, fixture_names

from .oracles import count_chains
from .reference_complex import label_complex, reference_complex


def distinct_labels(rng, kind, n):
    draw = {
        "int": lambda: rng.randint(-40, 40),
        "str": lambda: "".join(rng.choices("abcxyz", k=rng.randint(1, 3))),
        "tuple": lambda: (rng.randint(0, 3), rng.choice(("a", "b", (1, 2)))),
    }
    kinds = ("int", "str", "tuple")
    labels = []
    while len(labels) < n:
        label = draw[rng.choice(kinds) if kind == "mixed" else kind]()
        if label not in labels:
            labels.append(label)
    return labels


def scrambled(rng, simplices):
    """The simplices shuffled, each in a random vertex order, some repeated."""
    out = [tuple(rng.sample(s, len(s))) for s in simplices]
    out += [tuple(rng.sample(s, len(s))) for s in rng.choices(out, k=len(out) // 3)]
    rng.shuffle(out)
    return out


def random_input(rng, kind):
    """(vertex order, scrambled simplices) of a random complex."""
    n = rng.randint(1, 8)
    labels = distinct_labels(rng, kind, n)
    faces = [rng.sample(labels, rng.randint(1, min(4, n))) for _ in range(rng.randint(1, 6))]
    closure = {frozenset(sub) for f in faces for k in range(1, len(f) + 1)
               for sub in combinations(f, k)}
    order = rng.sample(labels, n)  # a vertex order that is not the labels' own
    simplices = sorted((sorted(s, key=labels.index) for s in closure),
                       key=lambda s: [labels.index(v) for v in s])
    return order, scrambled(rng, [tuple(s) for s in simplices])


def assert_same(K, R):
    assert K.vertices == R.vertices
    assert K.simplices == R.simplices
    for d in range(-1, max(K.dim, R.dim) + 2):
        assert K.simplices_of_dim(d) == R.simplices_of_dim(d)
    assert K.simplices_of_dim_all() == R.simplices_of_dim_all()
    assert K.maximal_faces == R.maximal_faces
    for d in range(-1, max(K.dim, R.dim) + 2):
        assert K.keys_of_dim(d) == R.keys_of_dim(d)
    assert K.maximal_keys() == R.maximal_keys()
    assert K.f_vector() == R.f_vector()
    assert K == R and hash(K) == hash(R)
    assert complex_to_text(K) == complex_to_text(R)


def check_scrambled(K, seed):
    """K, and K rebuilt from its simplices scrambled, match the reference."""
    ordered = sorted(K.simplices, key=lambda s: [K.position(v) for v in s])
    simplices = scrambled(random.Random(seed), ordered)
    R = reference_complex(K.vertices, simplices)
    assert_same(K, R)
    assert_same(label_complex(K.vertices, simplices), R)


@pytest.mark.parametrize("kind", ["int", "str", "tuple", "mixed"])
def test_random_complexes(kind):
    rng = random.Random(f"constructor:{kind}")
    for _ in range(60):
        order, simplices = random_input(rng, kind)
        assert_same(label_complex(order, simplices), reference_complex(order, simplices))


@pytest.mark.parametrize("name", fixture_names())
def test_subdivision_of_every_fixture(name):
    K = fixture_complex(name)
    sd, _ = barycentric_subdivision(K)
    assert sd.f_vector() == count_chains(K.simplices)
    check_scrambled(sd, name)


def test_second_subdivision():
    sd, _ = barycentric_subdivision(fixture_complex("figure1"))
    sd2, _ = barycentric_subdivision(sd)
    assert sd2.f_vector() == count_chains(sd.simplices)
    check_scrambled(sd2, "sd2")


def test_product():
    s2 = fixture_complex("s2")
    P, _, _ = product(s2, s2)
    assert P.f_vector() == (16, 84, 216, 240, 96)
    check_scrambled(P, "s2xs2")


def test_equality_and_hash_agree_with_simplex_sets():
    # == compares the vertex order and the simplices degree by degree; it
    # must say what comparing the vertex orders and the simplex sets says,
    # and equal complexes must hash alike
    rng = random.Random("equality")
    for kind in ("int", "str", "tuple", "mixed"):
        built = []
        for _ in range(25):
            order, simplices = random_input(rng, kind)
            K = label_complex(order, simplices)
            smaller = set(K.simplices) - {K.maximal_faces[-1]}
            built += [K, label_complex(order, scrambled(rng, list(K.simplices))),
                      reference_complex(order, simplices),
                      label_complex(order[::-1], simplices)]
            if smaller:
                built.append(label_complex(order, smaller))
        for K in built:
            for L in built:
                same = K.vertices == L.vertices and K.simplices == L.simplices
                assert (K == L) == same
                if same:
                    assert hash(K) == hash(L)


def test_unsupported_labels_refused():
    # with an explicit order these used to build a complex; without one a
    # bare TypeError came out of the label sort
    assert issubclass(UnsupportedLabelError, CohodistError)
    for bad in (1.5, True, 2.0, False, ("a", 0.5)):
        faces = [[bad, "u"], ["u", "w"], ["w", bad]]
        for order in (None, [bad, "u", "w"]):
            with pytest.raises(UnsupportedLabelError):
                from_maximal_faces(faces, order=order)
