import pytest

from towerbound import config, cover


def plain_eval_poly2(F, poly, x, y):
    """sum c * x^i * y^j by F.pow, F.mul and F.add alone: a reference that
    shares no code with curve's compiled terms."""
    acc = 0
    for (i, j), c in dict(poly).items():
        acc = F.add(acc, F.mul(c % F.p, F.mul(F.pow(x, i), F.pow(y, j))))
    return acc


def conjugate_points(F, key):
    """The points of the place with affine key over F = F_{q^degree}: the
    orbit of the key under the base Frobenius."""
    x, y = key
    out = []
    for _ in range(F.n):
        out.append((x, y))
        x, y = F.frobenius_base(x), F.frobenius_base(y)
    return out


@pytest.fixture(scope="session")
def doc1():
    return config.load_config("f2_tower1")


@pytest.fixture(scope="session")
def doc2():
    return config.load_config("f2_tower2")


@pytest.fixture(scope="session")
def doc3():
    return config.load_config("f3_tower")


@pytest.fixture(scope="session")
def doc4():
    return config.load_config("remark_comparisons")


@pytest.fixture(scope="session")
def curve_E(doc1):
    return doc1.curves["E"]


@pytest.fixture(scope="session")
def curve_H(doc2):
    return doc2.curves["H"]


@pytest.fixture(scope="session")
def curve_E3(doc3):
    return doc3.curves["E3"]


@pytest.fixture(scope="session")
def cover_k1(doc1):
    return doc1.covers["k1"]


@pytest.fixture(scope="session")
def cover_C(doc1):
    return doc1.covers["C"]


@pytest.fixture(scope="session")
def cover_k2(doc2):
    return doc2.covers["k2"]


@pytest.fixture(scope="session")
def cover_k3(doc3):
    return doc3.covers["k3"]


@pytest.fixture(scope="session")
def spectrum_k1(cover_k1):
    return cover.assemble_spectrum(cover_k1, 10)


@pytest.fixture(scope="session")
def spectrum_k2(cover_k2):
    return cover.assemble_spectrum(cover_k2, 10)


@pytest.fixture(scope="session")
def spectrum_k3(cover_k3):
    return cover.assemble_spectrum(cover_k3, 9)
